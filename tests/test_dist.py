import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hayesdist.dist import (
    classify_row,
    classify_word,
    default_point_set,
    enumeration_distributions_all,
    exact_distribution,
    exact_distributions_all,
    factorial_moments,
    factorization_counts,
    _live_rows,
    group_convolve,
    joint_zero_counts,
    moment_plan,
    moment_rows,
    rs_census,
    rs_distance_row,
    rs_group,
    sieve_rows,
    sieve_plan,
    subset_product_table,
    transform_work,
    verify_series_identities,
)
from hayesdist.errors import BudgetExceededError, ValidationError
from hayesdist.ffield import Polynomial, enumerate_monic
from hayesdist.hayes import ClassGroup, phi
from references import codeword_agreement_row, exact_distribution_bruteforce, member_base, quotient_rows


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
        # the oracle budgets its |G| q^k n = 2 * 32 * 2 comparisons ...
        with pytest.raises(BudgetExceededError) as info:
            enumeration_distributions_all(G, 5, budget=127)
        assert info.value.value == 128
        assert enumeration_distributions_all(G, 5, budget=128)[0].total == 32
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


@pytest.mark.parametrize("route", [exact_distributions_all, enumeration_distributions_all])
def test_distributions_are_made_as_they_are_read(groups, route):
    # both engines hand back a sequence over their count matrix: each
    # class's ZeroDistribution is made when it is read, equal to the
    # brute force's, and so are the JSON records
    G = groups(3, 1, 1, "x")
    dists = route(G, 2)
    listed = [exact_distribution_bruteforce(G, eps, 2) for eps in range(G.order)]
    assert len(dists) == G.order and list(dists) == listed
    assert dists[-1] == listed[-1] and dists[1:4:2] == listed[1:4:2]
    assert dists[0] is not dists[0]
    with pytest.raises(IndexError):
        dists[G.order]
    assert (dists.total, dists.points) == (9, default_point_set(G.params))
    assert list(dists.json_records()) == [d.to_json() for d in listed]


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

    @pytest.mark.parametrize("ell", [0, 1, 2])
    @pytest.mark.parametrize("p,a,q_text", DIFFERENTIAL_GRID)
    def test_sieve_rows_are_the_factorization_counts(self, groups, p, a, q_text, ell):
        # one sieve call for all k gives both W_j (k < j <= d), equal to the enumerated
        # factorization counts, and the oracle's counts per class for r <= d,
        # all as Python integers: a float anywhere in the signed combination
        # rounds the counts once they pass 2^53 (q = 128, ell = 2, k = 20).
        # The first point alone makes n <= 1 < d once d >= 2: the rows past
        # n are there, and 0
        G = groups(p, a, ell, q_text)
        q, t = G.params.spec.q, G.params.t
        pts = default_point_set(G.params)
        ks = [k for k in range(3) if G.order * q ** k * max(len(pts), 1) <= 50_000]
        for sub in (pts, pts[:1]):
            n = len(sub)
            for k, (W, counts) in zip(ks, sieve_rows(G, ks, sub), strict=True):  # one call for all k
                d = k + t + ell
                assert W.shape == (d - k, G.order)
                assert counts.shape == (d + 1, G.order)
                assert {type(c) for c in [*W.ravel().tolist(), *counts.ravel().tolist()]} <= {int}
                for j, row in zip(range(k + 1, d + 1), W.tolist()):
                    assert row == factorization_counts(G, j, k, sub), (k, j, n)
                zero = [0] * G.order
                assert W.tolist()[max(n, k) - k:] == [zero] * (d - max(n, k))  # no j-subsets, j > n
                assert counts.tolist()[n + 1:] == [zero] * max(0, d - n)  # no member has r > n zeros
                oracle = enumeration_distributions_all(G, k, sub)
                assert [{r: c for r, c in enumerate(col) if c} for col in counts.T.tolist()] == [
                    dist.counts for dist in oracle
                ], (k, n)

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

    @pytest.mark.parametrize("rows", [16, 2])
    def test_subset_product_table(self, fields, groups, monkeypatch, rows):
        # the quotient rows of all 5 points at once, or in blocks of 2
        monkeypatch.setattr("hayesdist.dist._GATHER_ROWS", rows)
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

    @pytest.mark.parametrize(
        "key", [(2, 1, 0, "1"), (3, 1, 1, "x"), (5, 1, 2, "x^2 + 2"), (2, 2, 3, "1"), (2, 1, 3, "x^3 + x + 1")]
    )
    @pytest.mark.parametrize("scale", [1, 1 << 61, -(1 << 70)])
    @pytest.mark.parametrize("rows, cells", [(16, 1 << 14), (3, 1 << 14), (16, 1)])
    def test_group_convolve_is_the_sum_of_translations(self, groups, monkeypatch, key, scale, rows, cells):
        # int64 blocks while max |u| sum |v| < 2^63 (scale 1), Python
        # integers beyond it (the larger scales), the same sums in any block
        # split: blocks of 16 or 3 classes, or of one class (one cell)
        G = groups(*key)
        rng = random.Random(repr((key, scale)))
        u = [rng.choice([0, 0, 1, 7]) * scale for _ in range(G.order)]
        v = np.array([rng.randrange(3) * scale + rng.randrange(5) for _ in range(G.order)], dtype=object)
        want = [0] * G.order
        for c, uc in enumerate(u):
            if uc:
                for eps, x in enumerate(quotient_rows(G, [c])[0].tolist()):
                    want[eps] += uc * v[x]
        monkeypatch.setattr("hayesdist.dist._GATHER_ROWS", rows)
        monkeypatch.setattr("hayesdist.dist._GATHER_CELLS", cells)
        got = group_convolve(G, u, v)
        assert got.dtype == object and all(type(x) is int for x in got)
        assert got.tolist() == want

    @pytest.mark.parametrize(
        "key, d",
        [
            ((5, 1, 1, "x^2 + x + 1"), 5),  # one cyclic factor of order 120; n = 5 = d
            ((3, 1, 1, "x^2 + 1"), 5),  # one cyclic factor of order 24; n = 3 < d
            ((7, 1, 1, "x^3 + x + 1"), 3),  # one cyclic factor of order 2394 = 2 3^2 7 19; n = 7 > d
            ((2, 2, 1, "x^2 + x"), 3),  # two cyclic factors of order 6; n = 2 < d
            ((5, 1, 0, "x^2"), 4),  # ell = 0, one cyclic factor of order 20; n = 4 = d
            ((3, 1, 0, "x^2 + 1"), 4),  # ell = 0, one cyclic factor of order 8; n = 3 < d
            ((2, 1, 0, "1"), 3),  # the trivial group; n = 2 < d
            ((5, 1, 0, "1"), 2),  # the trivial group; n = 5 > d
        ],
    )
    def test_banded_rows_equal_the_unbanded_rows(self, groups, key, d):
        # the k + 1 banding of sieve_rows: the table drops rows that cannot
        # reach j_lo, and rows j >= j_lo of the row function are the
        # unbanded rows (j_lo = 1) for every j_lo in 1..min(n, d)
        G = groups(*key)
        pts = default_point_set(G.params)
        n = len(pts)
        [full] = moment_rows(G, pts, G.monic_class_counts, [(d, 1)])
        full = full.tolist()
        assert len(full) == d and all(not any(row) for row in full[n:])
        for j_lo in range(1, min(n, d) + 1):
            [W] = moment_rows(G, pts, G.monic_class_counts, [(d, j_lo)])
            assert W.tolist() == full[j_lo - 1:], j_lo

    def test_sieve_plan(self, groups):
        # q = 5, n = 5, |G| = 5, d = 2: the DP updates rows 1, 1-2, 1-2, 1-2
        # and 2 over the five points (8 rows), and N_0 has one nonzero entry;
        # the transform would take 1 prime * 5 * (one axis of 5 * 3
        # transforms + 2 * min(5, 2)) = 95 cells
        G = groups(5, 1, 1, "1")
        assert sieve_plan(G, [1], 5) == ("sieve", {"dp_cells": 40, "convolution_cells": 5})
        assert transform_work(G, 5, [(2, 2)]) == 95
        # k >= n: every W_j is the closed form C(n, j) q^(k-j), no DP at all
        assert sieve_plan(G, [5], 5) == ("sieve", {"dp_cells": 0, "convolution_cells": 0})
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
        passed, checks, _ = verify_series_identities(G, d_max)
        assert passed, [c for c in checks if not c["pass"]][:3]

    @pytest.mark.parametrize(
        "key", [(2, 1, 1, "1"), (3, 1, 1, "x"), (2, 1, 2, "1"), (3, 1, 0, "x^2 + 1"), (2, 2, 1, "x^2 + x"), (2, 1, 0, "1")]
    )
    def test_work_counts_the_gathers_and_rows_it_makes(self, groups, monkeypatch, key):
        # convolution_cells is |G| per nonzero class count that
        # group_convolve gathers, and dp_cells |G| per row that the
        # subset-product tables update (rows lo..hi of `_live_rows` at each
        # point, for the band of the one table), exactly; where the
        # transform runs the degrees, its cells are counted instead
        G = groups(*key)
        t, ell = G.params.t, G.params.ell
        n = len(default_point_set(G.params))
        gathers, updates = [], []

        def counted(group, u, v):
            gathers.append(sum(1 for uc in u if uc))
            return group_convolve(group, u, v)

        def table(group, points, j_lo, j_hi):
            updates.extend(hi - lo + 1 for lo, hi in _live_rows(len(points), j_lo, j_hi) if lo <= hi)
            return subset_product_table(group, points, j_lo, j_hi)

        monkeypatch.setattr("hayesdist.dist.group_convolve", counted)
        monkeypatch.setattr("hayesdist.dist.subset_product_table", table)
        for d_max in range(t + ell + 3):
            gathers.clear()
            updates.clear()
            passed, _, work = verify_series_identities(G, d_max)
            assert passed
            runs = [(d, 1) for d in range(d_max + 1)]
            if moment_plan(G, n, runs)[0] == "transform":
                assert work["transform_cells"] == transform_work(G, n, runs) and not gathers + updates, d_max
            else:
                assert work["convolution_cells"] == G.order * sum(gathers), d_max
                assert work["dp_cells"] == G.order * sum(updates), d_max

    def test_degenerate_single_class(self, groups):
        passed, _, _ = verify_series_identities(groups(2, 1, 0, "1"), 3)
        assert passed

    def test_one_enumeration_per_degree(self, groups, monkeypatch):
        # the joint table is the only enumeration of each degree: no oracle,
        # no factorization counts, no class counts of the group; the rows
        # come from one call of the row function for all degrees, not from
        # sieve_rows
        degrees = []
        row_runs = []

        def spy(group, d, points=None):
            degrees.append(d)
            return joint_zero_counts(group, d, points)

        def rows(group, pts, counts, runs, budget=None):
            row_runs.append(runs)
            return moment_rows(group, pts, counts, runs, budget)

        def forbidden(*args, **kwargs):
            raise AssertionError("a second enumeration ran")

        monkeypatch.setattr("hayesdist.dist.joint_zero_counts", spy)
        monkeypatch.setattr("hayesdist.dist.moment_rows", rows)
        for name in ("enumeration_distributions_all", "factorization_counts", "sieve_rows"):
            monkeypatch.setattr(f"hayesdist.dist.{name}", forbidden)
        monkeypatch.setattr(ClassGroup, "monic_class_counts", forbidden)
        passed, _, _ = verify_series_identities(groups(3, 1, 1, "x"), 4)
        assert passed
        assert degrees == [0, 1, 2, 3, 4]
        assert row_runs == [[(d, 1) for d in range(5)]]

    def test_budget_refused_before_any_enumeration(self, groups, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("enumerated on a refused run")

        monkeypatch.setattr("hayesdist.dist.joint_zero_counts", spy)
        with pytest.raises(BudgetExceededError) as info:
            verify_series_identities(groups(3, 1, 1, "x"), 4, budget=10)
        # the first degree over budget is named, as each degree is checked in
        # turn: q^d (n+1) evaluation cells with n = 2 points
        assert (info.value.what, info.value.value) == ("evaluation cells q^2 (n+1)", 27)


def _corrupt_factorization_counts(monkeypatch):
    # class 0 of every W_j row that the row function returns, rows past n included
    def corrupt(group, pts, counts, runs, budget=None):
        Ws = moment_rows(group, pts, counts, runs, budget)
        for W in Ws:
            W[:, 0] += 1
        return Ws

    monkeypatch.setattr("hayesdist.dist.moment_rows", corrupt)


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
        # |G| = 6, t = ell = 1, n = 2, d_max = 4: the product slices read
        # the rows W_j for 1 <= j <= min(d, n), and the moment slices
        # k = 0..2 the rows for j = k+1..k+2; a row past n is formed without
        # a convolution
        (
            _corrupt_factorization_counts,
            {f"product slice z^{d} (u-1)^{j}" for d in range(5) for j in range(1, min(d, 2) + 1)}
            | {f"moment slice k={k} eps=0 (u-1)^{j}" for k in range(3) for j in (k + 1, k + 2)},
        ),
        # the DP forms the rows with d - j < t + ell; a row whose class
        # count N_(d-j) is constant (d - j >= 2) is a closed form
        (
            _corrupt_group_convolve,
            {f"product slice z^{d} (u-1)^{j}" for d in range(4) for j in range(max(1, d - 1), min(d, 2) + 1)}
            | {f"moment slice k={k} eps=0 (u-1)^{j}" for k in range(2) for j in (k + 1, k + 2) if j <= 2},
        ),
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
    passed, checks, _ = verify_series_identities(groups(3, 1, 1, "x"), 4)
    checks = list(checks)
    failed = {c["name"] for c in checks if not c["pass"]}
    assert not passed and expected <= failed
    assert passed == all(c["pass"] for c in checks)  # the verdict is read from the tables, not the records


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

    def test_census_records_match_the_distance_rows(self, fields):
        # the census streams its class and word records from the count rows;
        # each equals the record made from that class's own distance row
        spec, k, ell = fields(2, 2), 1, 2
        G = rs_group(spec, ell)
        census = rs_census(spec, k, ell, group=G)
        classes = list(census["classes"])
        assert [c["eps"] for c in classes] == list(range(G.order))
        totals = {"deep-hole": 0, "ordinary": 0, "neither": 0}
        for entry in classes:
            row = rs_distance_row(member_base(G, entry["eps"], k + ell), k, ell, G)
            kind = classify_row(row)
            assert entry == {"eps": entry["eps"], "rep": G.rep(entry["eps"]).to_text(), "kind": kind,
                             "counts": row.to_json()["counts"]}
            totals[kind] += spec.q ** k
        assert census["word_totals"] == totals and totals["neither"] > 0
        words = list(census["words"])
        assert [w["word"] for w in words] == [f.to_text() for f in enumerate_monic(spec, k + ell)]
        for w, f in zip(words, enumerate_monic(spec, k + ell)):
            assert (w["eps"], w["kind"]) == (G.class_of(f), classify_word(f, k, ell, G))

    def test_word_validation(self, fields):
        F2 = fields(2)
        with pytest.raises(ValidationError):
            rs_distance_row(Polynomial.from_text(F2, "x^3"), 1, 1)
