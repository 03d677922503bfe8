import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hayesdist.chars import CharacterTable
from hayesdist.dist import (
    classify_row,
    classify_word,
    codeword_agreement_row,
    default_point_set,
    enumeration_distributions_all,
    exact_distribution,
    exact_distribution_bruteforce,
    exact_distributions_all,
    factorial_moments,
    factorization_count_by_characters,
    factorization_counts,
    group_convolve,
    joint_zero_counts,
    rs_census,
    rs_distance_row,
    sieve_work,
    subset_product_table,
    verify_series_identities,
)
from hayesdist.errors import BudgetExceededError, ValidationError
from hayesdist.ffield import Polynomial, enumerate_monic
from hayesdist.hayes import ClassGroup, phi


class TestExactDistribution:
    def test_worked_two_class_case(self, fields, groups):
        F2 = fields(2)
        G = groups(2, 1, 1, "1")
        leading_one = G.class_of(Polynomial.from_text(F2, "x^2 + x"))
        leading_zero = G.class_of(Polynomial.from_text(F2, "x^2"))
        dists = exact_distributions_all(G, 1)
        assert dists[leading_one].counts == {0: 1, 2: 1}
        assert dists[leading_zero].counts == {1: 2}

    def test_empty_point_set(self, groups):
        d = exact_distribution(groups(2, 1, 1, "1"), 0, 2, points=())
        assert d.counts == {0: 4}

    def test_point_set_with_zero_of_q_rejected(self, fields, groups):
        F3 = fields(3)
        G = groups(3, 1, 1, "x")
        with pytest.raises(ValidationError):
            exact_distribution(G, 0, 1, points=F3.elements)

    def test_budget(self, groups):
        G = groups(2, 1, 1, "1")
        # the oracle budgets its q^k = 32 members ...
        with pytest.raises(BudgetExceededError):
            enumeration_distributions_all(G, 5, budget=10)
        # ... the sieve its cells, of which there are none at k >= n = 2
        assert exact_distribution(G, 0, 5, budget=10).counts == {0: 8, 1: 16, 2: 8}
        with pytest.raises(BudgetExceededError):
            exact_distribution(groups(5, 1, 1, "1"), 0, 1, budget=10)

    def test_negative_k_rejected(self, groups):
        with pytest.raises(ValidationError, match="k must be >= 0"):
            enumeration_distributions_all(groups(2, 1, 1, "1"), -1)

    def test_default_points_avoid_roots(self, fields, groups):
        F3 = fields(3)
        G = groups(3, 1, 1, "x")
        pts = default_point_set(G.params)
        assert {a.index for a in pts} == {1, 2}

    def test_default_point_count_sandwich(self, fields, groups):
        # Q has at most t roots, so q - t <= |D| <= q for the default D
        for key in [(2, 1, 1, "1"), (3, 1, 1, "x"), (2, 1, 1, "x^2 + x"), (5, 1, 2, "x^2 + x + 1")]:
            G = groups(*key)
            n = len(default_point_set(G.params))
            q, t = G.params.spec.q, G.params.t
            assert q - t <= n <= q

    @pytest.mark.parametrize(
        "key,k",
        [
            ((2, 1, 1, "1"), 2),
            ((2, 1, 0, "x"), 2),
            ((3, 1, 1, "x"), 1),
            ((2, 1, 2, "1"), 1),
            ((2, 2, 1, "1"), 1),
            ((2, 1, 1, "x^2 + x + 1"), 1),
        ],
    )
    def test_matches_bruteforce_oracle(self, groups, key, k):
        G = groups(*key)
        dists = exact_distributions_all(G, k)
        for eps in range(G.order):
            oracle = exact_distribution_bruteforce(G, eps, k)
            assert dists[eps].counts == oracle.counts

    def test_matches_oracle_on_random_subsets(self, groups):
        rng = random.Random(77)
        G = groups(3, 1, 1, "1")
        pts = default_point_set(G.params)
        for _ in range(5):
            sub = tuple(sorted(rng.sample(pts, rng.randint(1, len(pts) - 1))))
            fast = exact_distribution(G, 0, 2, sub)
            slow = exact_distribution_bruteforce(G, 0, 2, sub)
            assert fast.counts == slow.counts

    def test_total_and_support(self, groups):
        G = groups(3, 1, 1, "x")
        for k in (0, 1, 2):
            for d in exact_distributions_all(G, k):
                assert sum(d.counts.values()) == 3 ** k
                n = len(d.points)
                assert all(0 <= r <= min(n, k + G.params.t + G.params.ell) for r in d.counts)

    def test_probabilities_are_exact(self, groups):
        d = exact_distributions_all(groups(2, 1, 1, "1"), 1)[1]
        assert d.probability(0) == Fraction(1, 2)
        assert d.probability(2) == Fraction(1, 2)
        assert d.probability(1) == 0

    def test_json_schema(self, groups):
        d = exact_distributions_all(groups(2, 1, 1, "1"), 1)[0]
        js = d.to_json()
        assert js["q"] == 2 and js["k"] == 1 and js["ell"] == 1 and js["Q"] == "1"
        assert js["counts"] == {"1": "2"}


# (p, a, Q): t = 0..3; x^2 over GF(2) and (x + 1)^2 over GF(3) have a
# repeated factor, x^3 + x + 1 is irreducible
DIFFERENTIAL_GRID = [
    (2, 1, "1"),
    (3, 1, "1"),
    (2, 1, "x"),
    (2, 2, "x"),
    (2, 1, "x^2"),
    (3, 1, "x^2 + 2*x + 1"),
    (2, 1, "x^2 + x + 1"),
    (2, 1, "x^3 + x + 1"),
]


class TestSieveDifferential:
    """The sieve against the enumeration oracle and the brute-force oracle."""

    @pytest.mark.parametrize("ell", [0, 1, 2])
    @pytest.mark.parametrize("p,a,q_text", DIFFERENTIAL_GRID)
    def test_three_routes_agree(self, groups, p, a, q_text, ell):
        G = groups(p, a, ell, q_text)
        q, t = G.params.spec.q, G.params.t
        pts = default_point_set(G.params)
        rng = random.Random(f"{p}/{a}/{q_text}/{ell}")
        subsets = [None, (), tuple(sorted(rng.sample(pts, len(pts) // 2)))]
        # the brute force filters all q^d monic polynomials once per class
        ks = [k for k in range(3) if k == 0 or G.order * q ** (k + t + ell) <= 20_000]
        for k in ks:
            for sub in subsets:
                sieve = [d.counts for d in exact_distributions_all(G, k, sub)]
                assert sieve == [d.counts for d in enumeration_distributions_all(G, k, sub)], (k, sub)
                brute = [exact_distribution_bruteforce(G, eps, k, sub).counts for eps in range(G.order)]
                assert sieve == brute, (k, sub)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_configurations(self, fields, groups, data):
        p, a = data.draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2)]), label="field")
        q = p ** a
        t = data.draw(st.integers(0, 2), label="t")
        ell = data.draw(st.integers(0, 2), label="ell")
        if q ** (t + ell) > 64:  # keeps |G| and the brute force small
            ell = 0
        low = data.draw(st.lists(st.integers(0, q - 1), min_size=t, max_size=t), label="Q")
        G = groups(p, a, ell, Polynomial(fields(p, a), (*low, 1)).to_text())
        pts = default_point_set(G.params)
        keep = data.draw(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)), label="D")
        sub = tuple(x for x, kept in zip(pts, keep) if kept)
        k = data.draw(st.integers(0, 2 if q ** (t + ell) <= 16 else 1), label="k")
        eps = data.draw(st.integers(0, G.order - 1), label="eps")
        sieve = exact_distributions_all(G, k, sub)
        assert [d.counts for d in sieve] == [d.counts for d in enumeration_distributions_all(G, k, sub)]
        assert sieve[eps].counts == exact_distribution_bruteforce(G, eps, k, sub).counts

    def test_large_k(self, groups):
        G = groups(2, 6, 1, "1")  # q = 64, |G| = 64, D = GF(64)
        q, k, n = 64, 32, 64
        d = k + 1
        dists = exact_distributions_all(G, k)
        assert len(dists) == 64
        for dist in dists:
            assert sum(dist.counts.values()) == q ** k
            assert sum(r * c for r, c in dist.counts.items()) == n * q ** (k - 1)
            assert all(0 <= r <= min(n, d) and c > 0 for r, c in dist.counts.items())

    def test_subset_product_table(self, fields, groups):
        F5 = fields(5)
        G = groups(5, 1, 1, "x^2 + x + 1")
        pts = default_point_set(G.params)
        n = len(pts)
        full = subset_product_table(G, pts, 0, n)
        for j in range(n + 1):
            want = [0] * G.order
            for S in itertools.combinations(pts, j):
                prod = Polynomial.one(F5)
                for a in S:
                    prod = prod * Polynomial(F5, (F5.neg(a), F5.one))
                want[G.class_of(prod)] += 1
            assert full[j].tolist() == want, j
        # the banded table drops rows that cannot reach j_lo, and keeps the rest exact
        banded = subset_product_table(G, pts, 3, 4)
        assert banded[3:].tolist() == full[3:5].tolist()

    def test_sieve_work(self, groups):
        # q = 5, n = 5, |G| = 5, d = 2: the DP updates rows 1, 1-2, 1-2, 1-2
        # and 2 over the five points (8 rows), and N_0 has one nonzero entry
        G = groups(5, 1, 1, "1")
        assert sieve_work(G, 1, 5) == {"dp_cells": 40, "convolution_cells": 5}
        # k >= n: every W_j is the closed form C(n, j) q^(k-j), no DP at all
        assert sieve_work(G, 5, 5) == {"dp_cells": 0, "convolution_cells": 0}
        with pytest.raises(BudgetExceededError) as info:
            exact_distributions_all(G, 1, budget=44)
        assert info.value.value == 45


class TestFactorizationCounts:
    def test_worked_case(self, fields, groups):
        F2 = fields(2)
        G = groups(2, 1, 1, "1")
        W = factorization_counts(G, 2, 1)
        leading_one = G.class_of(Polynomial.from_text(F2, "x^2 + x"))
        leading_zero = G.class_of(Polynomial.from_text(F2, "x^2"))
        assert W[leading_one] == 1 and W[leading_zero] == 0

    def test_no_large_subsets(self, groups):
        # j exceeding |D| leaves no subsets at all
        G = groups(2, 1, 2, "1")  # n = 2, k+t+ell reaches 3
        W = factorization_counts(G, 3, 1)
        assert all(w == 0 for w in W)

    def test_j_range_enforced(self, groups):
        with pytest.raises(ValueError):
            factorization_counts(groups(2, 1, 1, "1"), 1, 1)

    def test_moment_identity_small_grid(self, groups):
        for key, kmax in [((2, 1, 1, "1"), 2), ((3, 1, 1, "x"), 2), ((2, 1, 2, "1"), 1)]:
            G = groups(*key)
            q = G.params.spec.q
            t, ell = G.params.t, G.params.ell
            pts = default_point_set(G.params)
            n = len(pts)
            for k in range(kmax + 1):
                dists = enumeration_distributions_all(G, k, pts)
                Ws = {j: factorization_counts(G, j, k, pts) for j in range(k + 1, k + t + ell + 1)}
                for eps in range(G.order):
                    moments = factorial_moments(dists[eps], k + t + ell)
                    for j, m in enumerate(moments):
                        if j <= k:
                            assert m == Fraction(math.comb(n, j), q ** j), (key, k, eps, j)
                        else:
                            assert m == Fraction(Ws[j][eps], q ** k), (key, k, eps, j)

    def test_character_route_matches_direct(self, groups):
        for key in [(2, 1, 1, "1"), (3, 1, 1, "x"), (2, 1, 2, "1"), (2, 2, 1, "1")]:
            G = groups(*key)
            q = G.params.spec.q
            t, ell = G.params.t, G.params.ell
            table = CharacterTable(G)
            pts = default_point_set(G.params)
            for k in (1, 2):
                Ws = {j: factorization_counts(G, j, k, pts) for j in range(k + 1, k + t + ell + 1)}
                for j in range(k + 1, k + t + ell + 1):
                    for eps in range(G.order):
                        split = factorization_count_by_characters(G, table, j, eps, k, pts)
                        assert abs(split.value - Ws[j][eps]) <= 1e-6 * q ** k
                        assert abs(split.value.imag) <= 1e-6 * q ** k

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_character_route_random_configurations(self, fields, groups, data):
        p, a = data.draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2)]), label="field")
        q = p ** a
        t = data.draw(st.integers(0, 2), label="t")
        ell = data.draw(st.integers(0 if t else 1, 2), label="ell")  # t + ell >= 1: some j > k
        if q ** (t + ell) > 64:  # keeps |G| and the character table small
            ell = 0
        low = data.draw(st.lists(st.integers(0, q - 1), min_size=t, max_size=t), label="Q")
        G = groups(p, a, ell, Polynomial(fields(p, a), (*low, 1)).to_text())
        pts = default_point_set(G.params)
        keep = data.draw(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)), label="D")
        sub = tuple(x for x, kept in zip(pts, keep) if kept)
        k = data.draw(st.integers(0, 2 if q ** (t + ell) <= 16 else 1), label="k")
        j = data.draw(st.integers(k + 1, k + t + ell), label="j")
        W = factorization_counts(G, j, k, sub)
        table = CharacterTable(G)
        for eps in range(G.order):
            split = factorization_count_by_characters(G, table, j, eps, k, sub)
            assert abs(split.value - W[eps]) <= 1e-6 * q ** k, eps
            # the main term is the class average of the counts
            assert split.main_term == Fraction(sum(W), G.order)

    def test_character_route_trivial_group_has_no_remainder(self, groups):
        # the only order-1 group with a nonempty j-range: ell = 0, Q = x^2 + x
        G = groups(2, 1, 0, "x^2 + x")
        assert G.order == 1
        table = CharacterTable(G)
        for j in (2, 3):
            split = factorization_count_by_characters(G, table, j, 0, 1)
            n = len(default_point_set(G.params))
            assert split.remainder == 0
            assert split.main_term == math.comb(n, j) * phi(3 - j, G.params.Q)
            assert split.value == complex(split.main_term)


class TestFactorialMoments:
    def test_zeroth_moment_is_one(self, groups):
        d = exact_distributions_all(groups(3, 1, 1, "1"), 2)[0]
        assert factorial_moments(d, 0) == [Fraction(1)]

    def test_worked_moments(self, fields, groups):
        F2 = fields(2)
        G = groups(2, 1, 1, "1")
        eps = G.class_of(Polynomial.from_text(F2, "x^2 + x"))
        d = exact_distributions_all(G, 1)[eps]
        assert factorial_moments(d, 2) == [Fraction(1), Fraction(1), Fraction(1, 2)]


def test_monic_series_slice_totals(groups):
    # a degree slice of the monic series sums over classes to the coprime
    # count at that degree
    for key in [(2, 1, 1, "1"), (3, 1, 1, "x"), (2, 1, 1, "x^2 + x + 1")]:
        G = groups(*key)
        for d in range(5):
            assert sum(G.monic_class_counts(d)) == phi(d, G.params.Q), (key, d)


class TestSeriesIdentities:
    @pytest.mark.parametrize(
        "key", [(2, 1, 1, "1"), (2, 1, 1, "x"), (3, 1, 1, "x"), (2, 1, 2, "1"), (2, 1, 0, "x + 1")]
    )
    def test_all_identities_hold(self, groups, key):
        G = groups(*key)
        d_max = G.params.t + G.params.ell + 3
        report = verify_series_identities(G, d_max)
        assert report.all_ok, report.failures()[:3]

    def test_degenerate_single_class(self, groups):
        report = verify_series_identities(groups(2, 1, 0, "1"), 3)
        assert report.all_ok

    def test_one_enumeration_per_degree(self, groups, monkeypatch):
        # the joint table is the only enumeration: no oracle, no class counts
        degrees = []

        def spy(group, d, points=None):
            degrees.append(d)
            return joint_zero_counts(group, d, points)

        def forbidden(*args, **kwargs):
            raise AssertionError("a second enumeration ran")

        monkeypatch.setattr("hayesdist.dist.joint_zero_counts", spy)
        monkeypatch.setattr("hayesdist.dist.enumeration_distributions_all", forbidden)
        monkeypatch.setattr(ClassGroup, "monic_class_counts", forbidden)
        report = verify_series_identities(groups(3, 1, 1, "x"), 4)
        assert report.all_ok
        assert degrees == [0, 1, 2, 3, 4]

    def test_budget_refused_before_any_enumeration(self, groups, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("enumerated on a refused run")

        monkeypatch.setattr("hayesdist.dist.joint_zero_counts", spy)
        with pytest.raises(BudgetExceededError) as info:
            verify_series_identities(groups(3, 1, 1, "x"), 4, budget=10)
        # the first degree over budget is named, as each degree is checked in turn
        assert (info.value.what, info.value.value) == ("monic enumeration q^3", 27)


def _corrupt_factorization_counts(monkeypatch):
    def corrupt(group, j, k, points=None, budget=None):
        out = factorization_counts(group, j, k, points, budget)
        out[0] += 1
        return out

    monkeypatch.setattr("hayesdist.dist.factorization_counts", corrupt)


def _corrupt_group_convolve(monkeypatch):
    def corrupt(group, u, v):
        out = group_convolve(group, u, v)
        out[0] += 1
        return out

    monkeypatch.setattr("hayesdist.dist.group_convolve", corrupt)


def _corrupt_joint_cell(monkeypatch, degree, r):
    def corrupt(group, d, points=None):
        out = joint_zero_counts(group, d, points)
        if d == degree:
            out = out.copy()
            out[0, r] += 1  # one more class-0 polynomial of this degree with exactly r zeros
        return out

    monkeypatch.setattr("hayesdist.dist.joint_zero_counts", corrupt)


def _corrupt_joint_zero_counts(monkeypatch):
    _corrupt_joint_cell(monkeypatch, 3, 1)


def _corrupt_cubic_class_count(monkeypatch):
    _corrupt_joint_cell(monkeypatch, 3, 0)


def _corrupt_linear_class_count(monkeypatch):
    _corrupt_joint_cell(monkeypatch, 1, 0)  # below t + ell = 2


@pytest.mark.parametrize(
    "corrupt, expected",
    [
        # |G| = 6, t = ell = 1, n = 2, d_max = 4: moment slices k = 0..2 use
        # factorization counts for j = k+1..k+2
        (_corrupt_factorization_counts, {f"moment slice k={k} eps=0 (u-1)^{j}" for k in range(3) for j in (k + 1, k + 2)}),
        (_corrupt_group_convolve, {f"product slice z^{d} (u-1)^{j}" for d in range(5) for j in range(1, min(d, 2) + 1)}),
        (_corrupt_joint_zero_counts, {"product slice z^3 (u-1)^1"}),
        # the (u-1)^0 slice is the class counts: q^(d-t-ell) each, or 0/1 with total Phi_d(Q)
        (_corrupt_cubic_class_count, {"product slice z^3 (u-1)^0", "geometric tail, degree 3"}),
        (_corrupt_linear_class_count, {"product slice z^1 (u-1)^0"}),
    ],
)
def test_series_check_catches_a_corrupt_cell(groups, monkeypatch, corrupt, expected):
    # each side of the series identities comes from its own route, so one
    # wrong cell on any route fails a slice with the expected name
    corrupt(monkeypatch)
    report = verify_series_identities(groups(3, 1, 1, "x"), 4)
    failed = {c.name for c in report.failures()}
    assert expected <= failed


class TestReedSolomon:
    def test_row_matches_distribution(self, fields):
        F2 = fields(2)
        f = Polynomial.from_text(F2, "x^2 + x")
        row = rs_distance_row(f, 1, 1)
        assert row.counts == {0: 1, 2: 1}
        assert sum(row.counts.values()) == 2

    def test_against_codeword_oracle_exhaustive(self, fields):
        for p, a in [(2, 1), (3, 1)]:
            spec = fields(p, a)
            for ell in (1, 2):
                for k in (1, 2):
                    from hayesdist.dist import rs_group

                    G = rs_group(spec, ell)
                    for f in enumerate_monic(spec, k + ell):
                        row = rs_distance_row(f, k, ell, G)
                        assert row.counts == codeword_agreement_row(f, k), f.to_text()

    def test_classification_examples(self, fields):
        F2 = fields(2)
        assert classify_word(Polynomial.from_text(F2, "x^2 + x"), 1, 1) == "ordinary"
        assert classify_word(Polynomial.from_text(F2, "x^2"), 1, 1) == "deep-hole"

    def test_neither_occurs_for_two_leading_coefficients(self, fields):
        # x^3 + x^2 over GF(2): some codeword agrees on 2 > k points but none on 3
        F2 = fields(2)
        row = rs_distance_row(Polynomial.from_text(F2, "x^3 + x^2"), 1, 2)
        assert row.count(2) > 0 and row.count(3) == 0
        assert classify_row(row) == "neither"

    def test_single_leading_coefficient_dichotomy(self, fields):
        # ell = 1: deep-hole and ordinary are the only possibilities
        for p in (2, 3):
            spec = fields(p)
            for f in enumerate_monic(spec, 2):
                assert classify_word(f, 1, 1) in ("deep-hole", "ordinary")

    def test_census_worked_case(self, fields):
        census = rs_census(fields(2), 1, 1)
        assert census["word_totals"] == {"deep-hole": 2, "ordinary": 2, "neither": 0}
        deep = {w["word"] for w in census["words"] if w["kind"] == "deep-hole"}
        assert deep == {"x^2", "x^2 + 1"}

    def test_word_validation(self, fields):
        F2 = fields(2)
        with pytest.raises(ValidationError):
            rs_distance_row(Polynomial.from_text(F2, "x^3"), 1, 1)
