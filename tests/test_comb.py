import itertools
import math
import random
from fractions import Fraction

import pytest

from hayesdist.comb import (
    binom_frac,
    binomial_lower_bound,
    coordinate_sieve_check,
    cycle_average_bruteforce,
    cycle_average_closed,
    cycle_average_series,
    cycle_average_work,
    partitions,
    truncated_binomial_sum,
)
from hayesdist.errors import BudgetExceededError, ValidationError


class TestTruncatedBinomialSum:
    def test_order_zero_is_one(self):
        assert truncated_binomial_sum(0, 5, 9, 4) == 1

    def test_order_one_closed_form(self):
        for n, r, q in [(5, 2, 3), (9, 0, 2), (12, 12, 7)]:
            assert truncated_binomial_sum(1, r, n, q) == Fraction(q - n + r, q)

    def test_worked_value(self):
        # n=5, r=2, q=3, m=3: 1 - 3/3 + 3/9 - 1/27 = 8/27, which is (1-1/3)^3
        assert truncated_binomial_sum(3, 2, 5, 3) == Fraction(8, 27)
        assert truncated_binomial_sum(3, 2, 5, 3) == Fraction(2, 3) ** 3

    def test_exhausts_to_full_expansion(self):
        for n, r, q in [(6, 1, 2), (8, 3, 5)]:
            full = Fraction(q - 1, q) ** (n - r)
            assert truncated_binomial_sum(n - r, r, n, q) == full
            assert truncated_binomial_sum(n - r + 4, r, n, q) == full

    def test_floor_where_terms_decrease(self):
        # partial sums never drop below the order-1 sum once |terms| decrease,
        # which needs n - r <= q
        for q in range(2, 10):
            for n in range(0, 13):
                for r in range(0, n + 1):
                    if n - r > q:
                        continue
                    floor = Fraction(q - n + r, q)
                    for m in range(1, 13):
                        assert truncated_binomial_sum(m, r, n, q) >= floor

    def test_floor_fails_outside_decreasing_range(self):
        # n - r > q: the alternating terms grow first and the floor is false
        assert truncated_binomial_sum(3, 0, 12, 2) < Fraction(2 - 12, 2)

    def test_proximity_envelope_everywhere(self):
        for q in range(2, 10):
            for n in range(0, 13):
                for r in range(0, n + 1):
                    target = Fraction(q - 1, q) ** (n - r)
                    for m in range(0, 13):
                        gap = abs(truncated_binomial_sum(m, r, n, q) - target)
                        assert gap <= Fraction(math.comb(n - r, m + 1), q ** (m + 1))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            truncated_binomial_sum(1, 5, 3, 2)
        with pytest.raises(ValueError):
            truncated_binomial_sum(-1, 0, 3, 2)
        with pytest.raises(ValueError):
            truncated_binomial_sum(1, 0, 3, 1)
        for m, r, n, q in [(1, -1, 3, 2), (0, 0, -1, 2), (2, 1, 3, 0), (-3, 3, 3, 9)]:
            with pytest.raises(ValueError):
                truncated_binomial_sum(m, r, n, q)

    def test_matches_defining_sum_on_bounds_grid(self):
        # the integer-numerator kernel against sum_{j<=m} (-1)^j C(n-r, j) q^-j
        # on every cell of the bounds-check grid, m > n - r included
        cells = 0
        for n in range(0, 13):
            for q in range(2, 10):
                for r in range(0, n + 1):
                    for m in range(0, 13):
                        want = sum(
                            (Fraction((-1) ** j * math.comb(n - r, j), q ** j) for j in range(m + 1)),
                            Fraction(0),
                        )
                        assert truncated_binomial_sum(m, r, n, q) == want, (m, r, n, q)
                        cells += 1
        assert cells == 9464


class TestCycleAverages:
    def test_empty_product(self):
        assert cycle_average_bruteforce(0, 2, 3, 2) == 1
        assert cycle_average_series(0, 2, 3, 2) == 1
        assert cycle_average_closed(0, 2, 3, 2) == 1

    def test_single_element(self):
        # S_1: one 1-cycle; 1 is never a multiple of p
        for p in (2, 3, 5):
            assert cycle_average_bruteforce(1, Fraction(7, 2), Fraction(1, 3), p) == Fraction(7, 6)

    def test_transposition_case(self):
        # S_2 with p=2: identity gives a^2 b^2, the transposition a (2-cycle, p | 2)
        a, b = Fraction(2), Fraction(1, 2)
        assert cycle_average_bruteforce(2, a, b, 2) == (a ** 2 * b ** 2 + a) / 2
        assert cycle_average_series(2, a, b, 2) == Fraction(3, 2)

    def test_triple_agreement_full_grid(self):
        for j in range(0, 9):
            for p in (2, 3, 5):
                for a in (1, 2, Fraction(7, 2)):
                    for b in (0, Fraction(1, 2), 1):
                        x = cycle_average_bruteforce(j, a, b, p)
                        y = cycle_average_series(j, a, b, p)
                        z = cycle_average_closed(j, a, b, p)
                        assert x == y == z, (j, p, a, b)

    def test_b_one_collapses_to_binomial(self):
        for j in range(0, 8):
            for a in (1, 3, Fraction(7, 2)):
                assert cycle_average_series(j, a, 1, 3) == binom_frac(a + j - 1, j)

    def test_b_zero_keeps_only_p_divisible_cycle_types(self):
        # j = p: the only partition into multiples of p is the single p-cycle,
        # whose class has (p-1)! permutations
        for p in (2, 3, 5):
            a = Fraction(7, 2)
            want = math.factorial(p - 1) * a / math.factorial(p)
            assert cycle_average_bruteforce(p, a, 0, p) == want

    def test_j_equal_p_b_one(self):
        for p in (2, 3, 5):
            for a in (2, 5):
                assert cycle_average_series(p, a, 1, p) == math.comb(a + p - 1, p)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            cycle_average_bruteforce(10, 1, 1, 2)


def test_partitions_and_class_sizes():
    for j in range(0, 9):
        parts = list(partitions(j))
        assert len(set(parts)) == len(parts)
        from hayesdist.comb import cycle_type_class_size

        assert sum(cycle_type_class_size(p, j) for p in parts) == math.factorial(j)


def test_cycle_stats_invariant_and_permutation_sum():
    # summing a^total b^off_p over literal permutations reproduces the
    # cycle-type average (an independent j! route, viable only for small j)
    from references import cycle_stats

    a, b = Fraction(7, 2), Fraction(1, 2)
    for j in range(0, 6):
        for p in (2, 3):
            total = Fraction(0)
            for perm in itertools.permutations(range(j)):
                stats = cycle_stats(perm, p)
                assert 0 <= stats.off_p <= stats.total <= j
                total += a ** stats.total * b ** stats.off_p
            assert total / math.factorial(j) == cycle_average_bruteforce(j, a, b, p)


class TestCoordinateSieve:
    def test_constant_function_counts_injections(self):
        for n, j in [(3, 2), (4, 3), (5, 1)]:
            direct, sieved = coordinate_sieve_check(j, list(range(n)), lambda xs: 1)
            assert direct == sieved == math.perm(n, j)

    def test_single_coordinate(self):
        direct, sieved = coordinate_sieve_check(1, [2, 5, 7], lambda xs: Fraction(xs[0]))
        assert direct == sieved == 14

    def test_worked_two_point_case(self):
        direct, sieved = coordinate_sieve_check(2, [0, 1], lambda xs: Fraction(xs[0] + xs[1]))
        assert direct == 2 and sieved == 2

    def test_random_rational_tables(self):
        rng = random.Random(42)
        for trial in range(20):
            nd = rng.randint(1, 5)
            j = rng.randint(1, min(4, nd + 1))
            D = list(range(nd))
            table = {
                xs: Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                for xs in itertools.product(D, repeat=j)
            }
            direct, sieved = coordinate_sieve_check(j, D, table)
            assert direct == sieved

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            coordinate_sieve_check(4, list(range(5)), lambda xs: 1, budget=100)


class TestBinomialLowerBound:
    def test_worked_value(self):
        v = binomial_lower_bound(2, 1)
        assert v == pytest.approx(
            math.sqrt(1 / math.pi) * 4 * math.exp(-1 / 6), rel=1e-12
        )
        assert v <= 2

    def test_dominated_by_binomial_up_to_30(self):
        for M in range(2, 31):
            for m in range(1, M):
                assert binomial_lower_bound(M, m) <= math.comb(M, m)

    def test_range_validation(self):
        for M, m in [(5, 0), (5, 5), (3, 4)]:
            with pytest.raises(ValueError):
                binomial_lower_bound(M, m)


def test_binom_frac_generalized():
    assert binom_frac(Fraction(7, 2), 2) == Fraction(35, 8)
    assert binom_frac(5, 2) == 10
    assert binom_frac(Fraction(1, 2), 0) == 1
    assert binom_frac(3, -1) == 0


def _cycle_average_work_by_steps(j, a, b, p):
    """`cycle_average_work` as a sum over the routes' steps: one per factor
    of a running product, the m-th counted as m * h bits, and one of j * h
    bits per product of full-size coefficients."""
    a, b = Fraction(a), Fraction(b)
    h = sum(x.bit_length() for x in (a.numerator, a.denominator, b.numerator, b.denominator, p))
    h += 2 * (j + 1).bit_length()
    series = sum(range(j + 1)) + sum(range(j // p + 1)) + (j + 1) * j
    closed = sum(sum(range(j - i * p + 1)) + sum(range(i + 1)) + j for i in range(j // p + 1))
    return h * (series + closed) // 64


@pytest.mark.parametrize("p", [1, 2, 3, 7])
@pytest.mark.parametrize("j", [0, 1, 4, 9, 37, 500])
@pytest.mark.parametrize("a, b", [(Fraction(7, 3), Fraction(1, 5)), (1, 1), (Fraction(123456789, 1000003), 5)])
def test_cycle_average_work_sums_the_steps(j, a, b, p):
    assert cycle_average_work(j, a, b, p) == _cycle_average_work_by_steps(j, a, b, p)


def test_cycle_average_work_grows_with_the_operands():
    # the default budget (10^8 words) admits j = 500 and refuses j = 1500 here
    assert cycle_average_work(500, Fraction(7, 3), Fraction(1, 5), 3) == 3750676
    assert cycle_average_work(1500, Fraction(7, 3), Fraction(1, 5), 3) == 110066988
    assert cycle_average_work(500, Fraction(7, 3), Fraction(1, 5), 3) < cycle_average_work(
        500, Fraction(7 ** 9, 3), Fraction(1, 5), 3
    )
    with pytest.raises(ValueError, match="need p >= 1"):
        cycle_average_work(4, 1, 1, 0)
