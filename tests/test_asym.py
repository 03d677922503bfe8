import math
import random
from fractions import Fraction

import pytest

from hayesdist.asym import (
    ConditionResult,
    Regime,
    binomial_envelope,
    binomial_pmf,
    characteristic_of,
    condition_a,
    condition_b,
    cycle_average_bound_power,
    gamma_at_most_one,
    gamma_upper,
    log_cycle_average_bound,
    mu_binomial_pmf,
    pmf_remainder_bound,
    poisson_pmf,
    sqrt_upper,
    w_remainder_bound,
)
from hayesdist.comb import cycle_average_series, truncated_binomial_sum
from hayesdist.errors import HypothesisError
from references import rs_count_asymptotic


class TestLimitShapes:
    def test_binomial_mass_worked_value(self):
        assert binomial_pmf(1, 2, 2) == Fraction(1, 2)

    def test_zero_class_masses(self):
        for q in (2, 3, 5):
            assert binomial_pmf(0, q, q) == Fraction(q - 1, q) ** q
            assert poisson_pmf(0, q, q) == pytest.approx(math.exp(-1))

    def test_poisson_normalizes(self):
        for n, q in [(4, 4), (9, 3), (25, 25)]:
            total, r = 0.0, 0
            while True:
                term = poisson_pmf(r, n, q)
                total += term
                r += 1
                if term < 1e-15 and r > n / q:
                    break
            assert abs(total - 1) < 1e-12

    def test_binomial_masses_sum_to_one(self):
        for n, q in [(3, 3), (5, 7)]:
            assert sum(binomial_pmf(r, n, q) for r in range(n + 1)) == 1


class TestEnvelope:
    def test_worked_value(self):
        assert binomial_envelope(1, 2, 2, 3) == 1

    def test_decreasing_in_k(self):
        values = [binomial_envelope(1, 5, 3, k) for k in range(2, 9)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_requires_r_below_k(self):
        with pytest.raises(ValueError):
            binomial_envelope(3, 5, 2, 3)


class TestMuMass:
    def test_r_zero(self):
        assert mu_binomial_pmf(0, 4, 2, 1, 0, 1) == truncated_binomial_sum(2, 0, 4, 2)

    def test_r_equal_n(self):
        # the truncated sum over an empty upper range is 1, leaving q^-n
        assert mu_binomial_pmf(3, 3, 3, 2, 0, 1) == Fraction(1, 27)

    def test_worked_value(self):
        assert mu_binomial_pmf(2, 3, 3, 2, 0, 1) == Fraction(2, 9)

    def test_r_beyond_point_count_is_zero(self):
        assert mu_binomial_pmf(4, 3, 3, 2, 0, 2) == 0

    def test_rs_specialization_is_bit_exact(self):
        for q, k, ell in [(3, 1, 1), (4, 2, 1), (5, 2, 2)]:
            for r in range(0, k + ell + 1):
                assert rs_count_asymptotic(r, q, k, ell) == q ** k * mu_binomial_pmf(
                    r, q, q, k, 0, ell
                )

    def test_rs_worked_value_and_positivity(self):
        assert rs_count_asymptotic(2, 3, 1, 1) == 1
        # mass at the top agreement count is C(q, k+ell) q^-ell > 0
        for q, k, ell in [(4, 2, 1), (5, 1, 2), (8, 3, 1)]:
            top = rs_count_asymptotic(k + ell, q, k, ell)
            assert top == Fraction(math.comb(q, k + ell), q ** ell)
            assert top > 0


class TestCertifiedBounds:
    def test_sqrt_upper_is_upper_and_tight(self):
        for v in (2, 3, 5, 7, 10, 24):
            s = sqrt_upper(v)
            assert s * s >= v
            assert float(s) - math.sqrt(v) < 1e-15
        for v in (1, 4, 9, 16, 25):
            assert sqrt_upper(v) == math.isqrt(v)

    def test_gamma_exact_comparison(self):
        # gamma = (t+ell-1) sqrt(q) / n <= 1 iff (t+ell-1)^2 q <= n^2
        assert gamma_at_most_one(2, 2, 0, 2)  # sqrt(2)/2
        assert not gamma_at_most_one(1, 2, 1, 2)  # 2 sqrt(2)
        assert gamma_at_most_one(5, 25, 0, 2)  # 5/5 = 1 exactly

    def test_characteristic(self):
        assert characteristic_of(16) == 2
        assert characteristic_of(25) == 5
        assert characteristic_of(7) == 7
        with pytest.raises(ValueError):
            characteristic_of(12)

    def test_w_bound_vanishes_for_single_class(self):
        assert w_remainder_bound(2, 2, 2, 1, 0, 1, 1) == 0

    def test_w_bound_exponent_collapse(self):
        # j = k+t+ell: the binomial and power factors are both 1
        q, n, k, t, ell, order = 4, 4, 2, 0, 2, 16
        j = k + t + ell
        got = w_remainder_bound(j, n, q, k, t, ell, order)
        g_up = gamma_upper(n, q, t, ell)
        want = Fraction(order - 1, order) * cycle_average_series(j, n, g_up, 2)
        assert got == want

    def test_w_bound_hypotheses(self):
        with pytest.raises(HypothesisError):
            w_remainder_bound(2, 1, 2, 1, 1, 2, 4)  # gamma > 1
        with pytest.raises(HypothesisError):
            w_remainder_bound(2, 2, 2, 1, 1, 0, 2)  # ell = 0

    def test_pmf_bound_manual_case(self):
        # q=2, n=2, k=1, t=0, ell=1: single j=2 term, gamma=0, A_2(2,0)=1
        assert pmf_remainder_bound(1, 2, 2, 1, 0, 1) == 1

    def test_pmf_bound_positive_and_monotone_in_ell(self):
        b1 = pmf_remainder_bound(0, 4, 4, 2, 0, 1)
        b2 = pmf_remainder_bound(0, 4, 4, 2, 0, 2)
        assert 0 <= b1 and b1 <= b2


def test_envelope_bounds_exact_distribution_small_case(fields, groups):
    # q = 4, ell = 1, Q = 1, k = 3: every class, every r < k
    from hayesdist.dist import exact_distributions_all

    G = groups(2, 2, 1, "1")
    q = n = 4
    dists = exact_distributions_all(G, 3)
    for d in dists:
        for r in range(0, 3):
            gap = abs(d.probability(r) - binomial_pmf(r, n, q))
            assert gap <= binomial_envelope(r, n, q, 3)


class TestLogCycleBounds:
    def test_dominates_exact_values(self):
        for p in (2, 3, 5):
            for n in (4, 8, 12):
                for j in range(1, 9):
                    for g in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                        exact = math.log(cycle_average_series(j, n, g, p))
                        if j <= n:
                            assert exact <= log_cycle_average_bound(j, n, g, p, "a")
                        if j <= 2 * p * n * g:
                            assert exact <= log_cycle_average_bound(j, n, g, p, "b")

    def test_first_value_dominates_log_n(self):
        # A_1(n, 1) = n
        for p in (2, 3, 5):
            for n in (3, 10):
                assert log_cycle_average_bound(1, n, 1, p, "a") >= math.log(n)
                assert log_cycle_average_bound(1, n, 1, p, "b") >= math.log(n)

    def test_integer_exponent_form_is_the_float_bound(self):
        # ln(R) / L is the float bound, and the exact verdict A^L <= R is the
        # float verdict ln A <= bound on the bounds-check grid at several p
        for p in (2, 3, 5, 7, 11, 251):
            for n in (4, 8, 12):
                for j in range(1, 9):
                    for g in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                        A = cycle_average_series(j, n, g, p)
                        for variant, applies in (("a", j <= n), ("b", j <= 2 * p * n * g)):
                            if not applies:
                                continue
                            L, R = cycle_average_bound_power(j, n, g, p, variant)
                            bound = log_cycle_average_bound(j, n, g, p, variant)
                            assert L >= 1
                            log_R = math.log(R.numerator) - math.log(R.denominator)
                            assert math.isclose(log_R / L, bound, rel_tol=1e-12, abs_tol=1e-12)
                            assert (A ** L <= R) == (math.log(A) <= bound), (p, n, j, g, variant)

    def test_integer_exponent_form_worked_value(self):
        # variant a at j = 2, n = 4, gamma = 1/2, p = 3: exponents 2/3, 2/3
        # and 2, so L = 3 and R = (6/2)^2 (6/4)^2 6^6
        assert cycle_average_bound_power(2, 4, Fraction(1, 2), 3, "a") == (3, Fraction(3) ** 2 * Fraction(3, 2) ** 2 * 6 ** 6)
        with pytest.raises(HypothesisError):
            cycle_average_bound_power(5, 4, Fraction(1, 2), 2, "a")  # j > n

    def test_hypothesis_validation(self):
        with pytest.raises(HypothesisError):
            log_cycle_average_bound(5, 4, 0.5, 2, "a")  # j > n
        with pytest.raises(HypothesisError):
            log_cycle_average_bound(2, 4, 0.0, 2, "b")  # gamma = 0
        with pytest.raises(HypothesisError):
            log_cycle_average_bound(100, 4, 0.25, 2, "b")  # j > 2 p n gamma
        with pytest.raises(ValueError):
            log_cycle_average_bound(1, 4, 0.5, 2, "c")


class TestConditions:
    def test_worked_value(self):
        res = condition_a(2, 1 / 3, 0.0, 0.1)
        assert bool(res)
        assert res.lhs == pytest.approx(0.26163, abs=1e-4)

    def test_antitone_in_delta0_and_gamma(self):
        assert bool(condition_a(2, 0.3, 0.05, 0.01))
        assert not bool(condition_a(2, 0.3, 0.05, 10.0))
        held = [bool(condition_a(3, 0.25, g, 0.05)) for g in (0.0, 0.1, 0.3, 1.0, 3.0)]
        assert held == sorted(held, reverse=True)

    def test_fails_near_c_one(self):
        assert not bool(condition_a(2, 0.99, 0.1, 0.1))

    def test_remark_sufficiency_sampled(self):
        rng = random.Random(2024)
        for _ in range(100):
            p = rng.choice((2, 3, 5))
            c = rng.uniform(0.05, (p - 1) / (p + 1))
            gmax = (p - 1) / (p * math.log(2 * p)) * c * math.log(1 / c)
            gamma = rng.uniform(0.0, gmax)
            assert bool(condition_a(p, c, gamma, 1e-9)), (p, c, gamma)

    def test_condition_b_gamma_zero_rejected(self):
        res = condition_b(2, 0.5, 0.0, 0.1)
        assert not bool(res)
        assert any("gamma = 0" in note for note in res.notes)

    def test_condition_b_requires_gamma_at_least_c_over_p(self):
        res = condition_b(5, 0.5, 0.05, 0.01)
        assert not bool(res)
        assert any("c/p" in note for note in res.notes)

    def test_condition_b_holds_and_carries_advisory(self):
        res = condition_b(7, 0.3, 0.2, 0.01)
        assert bool(res)
        assert any("p -> infinity" in note for note in res.notes)

    def test_result_is_boolean_like(self):
        assert isinstance(condition_a(2, 0.5, 0.0, 0.01), ConditionResult)


class TestRegime:
    def test_derived_coordinates(self):
        r = Regime(q=16, k=4, t=1, ell=2, n=15)
        assert r.p == 2
        assert r.c == 0.25
        assert r.gamma == pytest.approx(2 * 4 / 15)

    def test_validation(self):
        with pytest.raises(ValueError):
            Regime(q=4, k=4, t=0, ell=1, n=4)
        with pytest.raises(ValueError):
            Regime(q=4, k=1, t=0, ell=1, n=4, delta0=0.0)
