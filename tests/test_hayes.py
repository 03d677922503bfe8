import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hayesdist.errors import BudgetExceededError
from hayesdist.ffield import (
    Polynomial,
    _factor_degrees,
    distinct_irreducible_factors,
    enumerate_monic,
    phi,
    phi_relative_gap,
)
from hayesdist.hayes import ClassGroup, HayesParams, _prime_powers, equivalent, signature
from references import character_values, class_at, decompose_uncut, inv, members, mul, quotient_rows


GROUP_CELLS = "class group cells (candidates + ladders)"


def leading_indices(sig):
    return [c.index for c in sig.leading]


class TestSignature:
    def test_reciprocal_coefficient(self, fields):
        F2 = fields(2)
        params = HayesParams(1, Polynomial.one(F2))
        sig = signature(Polynomial.from_text(F2, "x^2 + x"), params)
        assert leading_indices(sig) == [1]
        assert sig.residue.is_zero  # residue mod 1

    def test_coprimality_failure(self, fields):
        F2 = fields(2)
        params = HayesParams(0, Polynomial.x(F2))
        assert signature(Polynomial.from_text(F2, "x^2 + x"), params) is None

    def test_residue_is_constant_term_mod_x(self, fields):
        F3 = fields(3)
        params = HayesParams(1, Polynomial.x(F3))
        sig = signature(Polynomial.from_text(F3, "x^2 + 2*x + 1"), params)
        assert leading_indices(sig) == [2]
        assert sig.residue == Polynomial.one(F3)

    def test_zero_padding_for_short_polynomials(self, fields):
        F2 = fields(2)
        params = HayesParams(2, Polynomial.one(F2))
        sig = signature(Polynomial.x(F2), params)  # deg 1 < ell = 2
        assert leading_indices(sig) == [0, 0]

    def test_non_monic_rejected(self, fields):
        F3 = fields(3)
        params = HayesParams(1, Polynomial.one(F3))
        with pytest.raises(ValueError):
            signature(Polynomial.from_text(F3, "2*x"), params)


class TestEquivalence:
    def test_reflexive_on_coprime(self, fields):
        F3 = fields(3)
        params = HayesParams(1, Polynomial.x(F3))
        f = Polynomial.from_text(F3, "x^2 + 1")
        assert equivalent(f, f, params)
        g = Polynomial.from_text(F3, "x^2 + x")  # not coprime to x
        assert not equivalent(g, g, params)

    def test_same_leading_coefficient(self, fields):
        F2 = fields(2)
        params = HayesParams(1, Polynomial.one(F2))
        x2 = Polynomial.from_text(F2, "x^2")
        assert equivalent(x2, Polynomial.from_text(F2, "x^2 + 1"), params)
        assert not equivalent(x2, Polynomial.from_text(F2, "x^2 + x"), params)

    def test_agrees_with_definition_bruteforce(self, fields):
        # oracle: compare against the literal definition (reciprocals mod
        # x^(ell+1), residues mod Q) on a full small grid
        F3 = fields(3)
        params = HayesParams(1, Polynomial.x(F3))
        xl1 = Polynomial.from_text(F3, "x^2")  # x^(ell+1)
        polys = list(enumerate_monic(F3, 2)) + list(enumerate_monic(F3, 3))
        for f, g in itertools.product(polys, repeat=2):
            coprime = f.gcd(params.Q).is_one and g.gcd(params.Q).is_one
            literal = (
                coprime
                and (f.reciprocal() % xl1) == (g.reciprocal() % xl1)
                and (f % params.Q) == (g % params.Q)
            )
            assert equivalent(f, g, params) == literal, (f.to_text(), g.to_text())


class TestPhi:
    def test_trivial_modulus(self, fields):
        F3 = fields(3)
        for j in range(5):
            assert phi(j, Polynomial.one(F3)) == 3 ** j

    def test_single_irreducible_factor(self, fields):
        # Q irreducible of degree d1: q^j - q^(j-d1) once j >= d1
        F2 = fields(2)
        Q = Polynomial.from_text(F2, "x^2 + x + 1")
        for j in range(5):
            want = 2 ** j - (2 ** (j - 2) if j >= 2 else 0)
            assert phi(j, Q) == want

    def test_split_quadratic_by_enumeration(self, fields):
        F2 = fields(2)
        Q = Polynomial.from_text(F2, "x^2 + x")
        assert phi(2, Q) == 1
        survivors = [f for f in enumerate_monic(F2, 2) if f.gcd(Q).is_one]
        assert [f.to_text() for f in survivors] == ["x^2 + x + 1"]

    @pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (5, 1), (2, 2)])
    def test_matches_gcd_filter(self, fields, p, a):
        spec = fields(p, a)
        rng = random.Random(p * 10 + a)
        qs = [Polynomial.one(spec), Polynomial.x(spec), Polynomial.from_text(spec, "x^2 + x")]
        for d in (2, 3):
            coeffs = [rng.choice(spec.elements) for _ in range(d)]
            qs.append(Polynomial(spec, (*coeffs, spec.one)))
        for Q in qs:
            for j in range(0, 5):
                if spec.q ** j > 3000:
                    continue
                oracle = sum(1 for f in enumerate_monic(spec, j) if f.gcd(Q).is_one)
                assert phi(j, Q) == oracle, (Q.to_text(), j)

    def test_matches_gcd_filter_deeper_degrees(self, fields):
        # higher-degree sweep with moduli up to degree 3
        for p, a in [(2, 1), (3, 1), (5, 1)]:
            spec = fields(p, a)
            for q_text in ("1", "x^2 + x", "x^3 + x"):
                Q = Polynomial.from_text(spec, q_text)
                for j in range(5, 7):
                    if spec.q ** j > 20000:
                        continue
                    oracle = sum(1 for f in enumerate_monic(spec, j) if f.gcd(Q).is_one)
                    assert phi(j, Q) == oracle, (p, q_text, j)

    def test_sandwich_and_relative_gap(self, fields):
        for p, a in [(2, 1), (3, 1), (5, 1)]:
            spec = fields(p, a)
            q = spec.q
            for q_text in ("1", "x", "x^2 + x", "x^2 + 1"):
                Q = Polynomial.from_text(spec, q_text)
                drop = sum(Fraction(1, q ** P.degree) for P in distinct_irreducible_factors(Q))
                for j in range(7):
                    val = phi(j, Q)
                    assert q ** j * (1 - drop) <= val <= q ** j
                    assert phi_relative_gap(j, Q) <= drop


def test_distinct_irreducible_factors(fields):
    F2 = fields(2)
    Q = Polynomial.from_text(F2, "x^2 + x")  # x(x+1)
    assert {P.to_text() for P in distinct_irreducible_factors(Q)} == {"x", "x + 1"}
    # cube of an irreducible: one distinct factor
    x = Polynomial.x(F2)
    assert distinct_irreducible_factors(x * x * x) == (x,)
    # large leftover factor is irreducible itself
    Q2 = Polynomial.from_text(F2, "x^3 + x + 1")
    assert distinct_irreducible_factors(Q2) == (Q2,)


def _phi_by_subsets(j, Q):
    """Reference: inclusion-exclusion over every subset of the distinct
    irreducible factors of Q."""
    q = Q.spec.q
    degrees = [P.degree for P in distinct_irreducible_factors(Q)]
    total = 0
    for size in range(len(degrees) + 1):
        for combo in itertools.combinations(degrees, size):
            if sum(combo) <= j:
                total += (-1) ** size * q ** (j - sum(combo))
    return total


def _factors_to_half_degree(Q):
    """Reference: trial division by every monic irreducible of degree up to
    deg(Q)/2, the leftover appended whole."""
    out, rem = [], Q
    for d in range(1, Q.degree // 2 + 1):
        for cand in Q.spec.monic_irreducibles(d):
            if (rem % cand).is_zero:
                out.append(cand)
                while (rem % cand).is_zero:
                    rem = rem // cand
    if rem.degree >= 1:
        out.append(rem)
    return tuple(out)


@pytest.mark.parametrize("p,a,deg", [(2, 1, 8), (3, 1, 5), (2, 2, 4), (5, 1, 3), (7, 1, 3)])
def test_factors_and_phi_match_the_references(fields, p, a, deg):
    # every monic Q of degree <= deg: the same factors in the same order as
    # trial division to deg(Q)/2, and phi equal to the subset sum
    spec = fields(p, a)
    for d in range(deg + 1):
        for Q in enumerate_monic(spec, d):
            assert distinct_irreducible_factors(Q) == _factors_to_half_degree(Q), Q
            assert _factor_degrees(Q) == tuple(sorted(P.degree for P in _factors_to_half_degree(Q))), Q
            for j in range(7):
                assert phi(j, Q) == _phi_by_subsets(j, Q), (Q, j)


@pytest.mark.parametrize(
    "p, a, q_text, j, value",
    [
        # x^q - x is the product of the q linear polynomials
        (2, 4, "x^16 + x", 3, 1360),
        (2, 8, "x^256 + x", 3, 5592320),
    ],
)
def test_phi_of_a_modulus_with_many_factors(fields, monkeypatch, p, a, q_text, j, value):
    # phi lists no polynomials at all and never walks the 2^q subsets of the
    # factors; the factors split the one product of degree 1, x^q - x itself,
    # so the monic linear polynomials are the only candidates listed, and no
    # irreducible is listed
    from hayesdist import ffield

    spec = fields(p, a)
    Q = Polynomial.from_text(spec, q_text)
    listed = []
    monic, irreducibles = ffield.enumerate_monic, spec.monic_irreducibles

    def recorded_monic(field, d):
        listed.append(("enumerate_monic", d))
        return monic(field, d)

    def recorded_irreducibles(d):
        listed.append(("monic_irreducibles", d))
        return irreducibles(d)

    monkeypatch.setattr(ffield, "enumerate_monic", recorded_monic)
    monkeypatch.setattr(spec, "monic_irreducibles", recorded_irreducibles)
    ffield._ddf.cache_clear()
    assert phi(j, Q) == value == sum((-1) ** i * math.comb(spec.q, i) * spec.q ** (j - i) for i in range(j + 1))
    assert listed == []
    assert distinct_irreducible_factors(Q) == tuple(Polynomial(spec, (c, spec.one)) for c in spec.elements)
    assert listed == [("enumerate_monic", 1)]


def test_a_product_of_factors_of_one_degree_is_split(fields):
    # Q = x (x^2 + x + 1)^2 (x^3 + x + 1) (x^3 + x^2 + 1) over GF(2): the
    # distinct-degree pass keeps the two cubics as one product g_3, which the
    # split lists in enumerate_monic order, as trial division does
    from hayesdist.ffield import _ddf

    F2 = fields(2)
    x, f2, f3, g3 = (Polynomial.from_text(F2, s) for s in ("x", "x^2 + x + 1", "x^3 + x + 1", "x^3 + x^2 + 1"))
    Q = x * f2 * f2 * f3 * g3
    reference = _factors_to_half_degree(Q)
    assert reference == (x, f2, g3, f3)
    assert _ddf(Q) == ((1, x), (2, f2), (3, f3 * g3))
    assert distinct_irreducible_factors(Q) == reference
    assert _factor_degrees(Q) == tuple(P.degree for P in reference) == (1, 2, 3, 3)
    t = Q.degree
    units = 2 ** t * math.prod(1 - Fraction(1, 2 ** P.degree) for P in reference)
    assert phi(t, Q) == units == 588
    # the unit mask, from the split, counts q^ell Phi_t(Q) classes
    assert ClassGroup(HayesParams(1, Q)).order == 2 * 588


@pytest.mark.parametrize(
    "q_text, degrees, value",
    [
        # irreducible over GF(2), with 2^31 - 1 and 2^61 - 1 prime: trial
        # division of Q takes seconds for the first and does not finish for
        # the second, while phi reads only the factor degrees
        ("x^31 + x^3 + 1", (31,), 8),
        ("x^61 + x^5 + x^2 + x + 1", (61,), 8),
        # x (x^2 + x + 1) (x^31 + x^3 + 1)^2: (1 - z)(1 - z^2) truncated at
        # z^3 is 1 - z - z^2 + z^3, so phi_3 = 8 - 4 - 2 + 1
        ("x^65 + x^64 + x^63 + x^9 + x^8 + x^7 + x^3 + x^2 + x", (1, 2, 31), 3),
    ],
)
def test_phi_of_large_moduli_by_distinct_degree_factorization(fields, q_text, degrees, value):
    F2 = fields(2)
    Q = Polynomial.from_text(F2, q_text)
    if len(degrees) > 1:
        big = Polynomial.from_text(F2, "x^31 + x^3 + 1")
        assert Q == Polynomial.x(F2) * Polynomial.from_text(F2, "x^2 + x + 1") * big * big
    assert _factor_degrees(Q) == degrees
    assert phi(3, Q) == value


_DECOMPOSITION_GRID = [
    (2, 1, 0, "1"),  # the trivial group: no generator
    (2, 3, 2, "1"),  # 2-groups whose exponent is below |G|: the ladders stop early
    (2, 4, 2, "1"),
    (2, 5, 2, "1"),
    (3, 2, 2, "1"),
    (2, 2, 3, "1"),
    (5, 1, 2, "x^2 + 2"),
    (3, 1, 1, "x^2 + 1"),
    (2, 2, 1, "x^2 + x"),
    (3, 1, 2, "x^2"),
    (2, 1, 3, "x^3 + x + 1"),
    (7, 1, 1, "x^2 + 1"),
    (2, 8, 0, "x"),  # one factor of order 255: exponent sums pass 255
    (7, 1, 1, "x^3 + x + 1"),  # one factor of order 2394: exponents pass 255
]


class TestClassGroup:
    def test_order_examples(self, groups):
        assert groups(2, 1, 1, "1").order == 2
        assert groups(3, 1, 0, "x").order == 2  # residues 1, 2
        assert groups(2, 1, 1, "x").order == 2  # 2 * Phi_1(x) = 2

    @pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (2, 2)])
    def test_order_formula(self, fields, groups, p, a):
        spec = fields(p, a)
        for ell in (0, 1, 2):
            for q_text in ("1", "x", "x^2 + x"):
                Q = Polynomial.from_text(spec, q_text)
                if spec.q ** ell * spec.q ** Q.degree > 600:
                    continue
                G = groups(p, a, ell, q_text)
                assert G.order == spec.q ** ell * phi(Q.degree, Q)

    def test_representatives_have_unique_signatures(self, groups):
        G = groups(3, 1, 1, "x")
        reps = [G.rep(i) for i in range(G.order)]
        assert len({signature(r, G.params) for r in reps}) == G.order
        assert all(r.degree == 2 for r in reps)

    def test_mul_table_is_abelian_group(self, groups):
        for key in [(2, 1, 1, "1"), (3, 1, 1, "x"), (2, 1, 2, "x + 1"), (2, 2, 1, "1")]:
            G = groups(*key)
            n = G.order
            mt = np.array([[mul(G, i, j) for j in range(n)] for i in range(n)])
            assert np.array_equal(mt, mt.T)
            for i in range(n):
                assert sorted(mt[i]) == list(range(n))
                assert mt[G.identity, i] == i
                assert mul(G, i, inv(G, i)) == G.identity
                assert G.quotients([i])[0].tolist() == mt[:, inv(G, i)].tolist()
            rng = random.Random(17)
            for _ in range(30):
                i, j, k = (rng.randrange(n) for _ in range(3))
                assert mt[mt[i, j], k] == mt[i, mt[j, k]]

    def test_product_signature_matches_polynomial_product(self, groups):
        G = groups(3, 1, 1, "x")
        rng = random.Random(23)
        for _ in range(40):
            i, j = rng.randrange(G.order), rng.randrange(G.order)
            assert mul(G, i, j) == G.class_of(G.rep(i) * G.rep(j))

    def test_class_of_matches_signature(self, fields, groups):
        F3 = fields(3)
        G = groups(3, 1, 1, "x")
        params = G.params
        for f in enumerate_monic(F3, 3):
            sig = signature(f, params)
            if sig is None:
                assert G.class_of(f) is None
            else:
                assert signature(G.rep(G.class_of(f)), params) == sig

    def test_budget(self, fields):
        # q = 5, ell = 2, Q = 1: 5^2 candidate rows of 3 cells, and rungs of
        # |G| = 25 cells, counted as floor(log2 25) = 4 (the ladder has 2)
        params = HayesParams(2, Polynomial.one(fields(5)))
        with pytest.raises(BudgetExceededError) as info:
            ClassGroup(params, budget=174)
        assert (info.value.what, info.value.value) == (GROUP_CELLS, 175)
        assert ClassGroup(params, budget=175).order == 25

    @pytest.mark.parametrize("key", _DECOMPOSITION_GRID)
    def test_exponents_round_trip_through_the_grid(self, groups, key):
        # every class's exponent tuple, read off its place, leads back to it
        G = groups(*key)
        exponents = G.exponents(range(G.order))
        assert exponents.shape == (G.order, len(G.orders)) and exponents.dtype == np.int64
        assert ((exponents >= 0) & (exponents < np.array(G.orders, dtype=np.int64))).all()
        assert class_at(G, exponents).tolist() == list(range(G.order))
        assert G.exponents(G.identity).tolist() == [0] * len(G.orders)
        for i, g in enumerate(G.generators):
            assert G.exponents(g).tolist() == [int(i == axis) for axis in range(len(G.orders))]
        for c in random.Random(G.order).sample(range(G.order), min(G.order, 20)):
            assert G.exponents(c).tolist() == exponents[c].tolist()

    @pytest.mark.parametrize("key", _DECOMPOSITION_GRID)
    def test_quotients_are_products_with_inverses(self, groups, key):
        # one row per class c, i -> i * c^-1: every c against the differences
        # of exponent tuples, in blocks of 256 classes, and a sampled block
        # against products with inverses
        G = groups(*key)
        for lo in range(0, G.order, 256):
            block = range(lo, min(lo + 256, G.order))
            assert np.array_equal(G.quotients(block), quotient_rows(G, block))
        cs = random.Random(G.order).sample(range(G.order), min(G.order, 5))
        assert G.quotients(cs).tolist() == [[mul(G, i, inv(G, c)) for i in range(G.order)] for c in cs]
        assert G.quotients([]).shape == (0, G.order)

    @pytest.mark.parametrize("key", _DECOMPOSITION_GRID)
    def test_decomposition_matches_the_uncut_ladders(self, groups, key):
        G = groups(*key)
        generators, orders, eps_of, exponents = decompose_uncut(G)
        assert (G.generators, G.orders) == (generators, orders)
        assert np.array_equal(G._eps_of, eps_of)
        assert np.array_equal(G.exponents(range(G.order)), exponents)

    def test_degenerate_flag(self, fields, groups):
        assert groups(2, 1, 0, "1").degenerate
        assert groups(2, 1, 0, "1").order == 1
        assert not groups(2, 1, 1, "1").degenerate

    def test_export_classes(self, groups):
        G = groups(2, 1, 1, "1")
        assert list(G.export_classes()) == [{"eps": 0, "rep": "x"}, {"eps": 1, "rep": "x + 1"}]


class TestClassMembers:
    def test_leading_zero_class_degree_two(self, fields, groups):
        F2 = fields(2)
        G = groups(2, 1, 1, "1")
        eps = G.class_of(Polynomial.from_text(F2, "x^2"))
        got = {m.to_text() for m in members(G, eps, 2)}
        assert got == {"x^2", "x^2 + 1"}

    def test_base_degree_is_single_member(self, groups):
        for key in [(2, 1, 1, "1"), (3, 1, 1, "x"), (2, 1, 2, "x")]:
            G = groups(*key)
            d = G.params.t + G.params.ell
            for eps in range(G.order):
                assert list(members(G, eps, d)) == [G.rep(eps)]

    def test_count_against_exhaustive_filter(self, fields, groups):
        # every class has exactly q^(d-t-ell) members of degree d
        for key in [(2, 1, 1, "1"), (2, 1, 1, "x"), (3, 1, 1, "x"), (2, 1, 2, "1"), (2, 2, 1, "1")]:
            G = groups(*key)
            spec = G.params.spec
            t_ell = G.params.t + G.params.ell
            for d in range(t_ell, t_ell + 3):
                if spec.q ** d > 5000:
                    continue
                by_filter: dict[int, set] = {eps: set() for eps in range(G.order)}
                for f in enumerate_monic(spec, d):
                    eps = G.class_of(f)
                    if eps is not None:
                        by_filter[eps].add(f)
                for eps in range(G.order):
                    got = set(members(G, eps, d))
                    assert got == by_filter[eps]
                    assert len(got) == spec.q ** (d - t_ell)

    def test_count_example_q2_leading_one_degree_three(self, fields, groups):
        F2 = fields(2)
        G = groups(2, 1, 1, "1")
        eps = G.class_of(Polynomial.from_text(F2, "x^2 + x"))
        assert len(list(members(G, eps, 3))) == 4

    def test_degree_below_base_rejected(self, groups):
        with pytest.raises(ValueError):
            next(members(groups(2, 1, 1, "x"), 0, 1))


def test_monic_class_counts_consistency(fields, groups):
    G = groups(3, 1, 1, "x")
    q = 3
    for d in range(0, 5):
        counts = G.monic_class_counts(d)
        noncoprime = sum(1 for f in enumerate_monic(fields(3), d) if not f.gcd(G.params.Q).is_one)
        assert q ** d - sum(counts) == noncoprime
        if d >= G.params.t + G.params.ell:
            assert all(c == q ** (d - G.params.t - G.params.ell) for c in counts)


# Groups of the benchmark's sizes and one over GF(8): |G| = q^ell * Phi_t(Q).
ORACLE_GROUPS = [
    (7, 1, 1, "x^2 + 1", 336),
    (5, 1, 2, "x^2 + 2", 600),
    (5, 1, 1, "x^3 + x + 1", 620),
    (2, 3, 1, "x^2 + 3*x + 2", 8 * (64 - 8 - 8 + 1)),  # Q = (x + 1)(x + y)
]


@pytest.mark.parametrize("p,a,ell,q_text,order", ORACLE_GROUPS)
def test_group_against_polynomial_oracle(fields, groups, p, a, ell, q_text, order):
    """Representatives, products, class labels and class counts against
    object-level polynomial arithmetic: gcd, products and signature(), never
    the array kernel that labels classes."""
    G = groups(p, a, ell, q_text)
    spec = fields(p, a)
    params = G.params
    Q = params.Q
    assert G.order == order
    reps = [G.rep(i) for i in range(G.order)]
    assert reps == [f for f in enumerate_monic(spec, Q.degree + ell) if f.gcd(Q).is_one]
    by_signature = {signature(rep, params): i for i, rep in enumerate(reps)}

    def label(f):
        sig = signature(f, params)
        return -1 if sig is None else by_signature[sig]

    assert G.identity == label(Polynomial.one(spec))
    rng = random.Random(order)
    for _ in range(300):
        i, j = rng.randrange(order), rng.randrange(order)
        assert mul(G, i, j) == label(G.rep(i) * G.rep(j))
        assert mul(G, i, inv(G, i)) == G.identity
    for d in range(4):
        polys = list(enumerate_monic(spec, d))
        want = [label(f) for f in polys]
        got = G.classes_of([f.index_coeffs() for f in polys])
        assert got.tolist() == want
        assert (got == -1).tolist() == [not f.gcd(Q).is_one for f in polys]
        counts = np.bincount(np.array(want) + 1, minlength=order + 1)
        assert G.monic_class_counts(d) == counts[1:].tolist()
        assert spec.q ** d - sum(G.monic_class_counts(d)) == counts[0]


# (generators, orders) of the greedy decomposition, recorded from the
# multiplication-table construction: `weil` artifacts carry the orders and
# the exponent tuples that depend on them.
DECOMPOSITIONS = {
    (2, 1, 0, "1"): ((), ()),
    (2, 1, 1, "1"): ((1,), (2,)),
    (2, 2, 1, "1"): ((1, 2), (2, 2)),
    (2, 1, 1, "x"): ((1,), (2,)),
    (3, 1, 1, "x"): ((4,), (6,)),
    (2, 1, 2, "x + 1"): ((1,), (4,)),
    (3, 1, 2, "1"): ((1, 2), (3, 3)),
    (2, 2, 1, "x"): ((1, 6), (6, 2)),
    (2, 1, 2, "x"): ((1,), (4,)),
    (2, 1, 1, "x^2 + x + 1"): ((1,), (6,)),
    (3, 1, 1, "1"): ((1,), (3,)),
    (5, 1, 1, "1"): ((1,), (5,)),
    (2, 1, 2, "1"): ((1,), (4,)),
    (7, 1, 1, "x^2 + 1"): ((2,), (336,)),
    (5, 1, 2, "x^2 + 2"): ((2, 19), (120, 5)),
    (5, 1, 1, "x^3 + x + 1"): ((4,), (620,)),
    (2, 3, 1, "x^2 + 3*x + 2"): ((1, 2, 34), (14, 14, 2)),
}


@pytest.mark.parametrize("key", sorted(DECOMPOSITIONS))
def test_decomposition_is_pinned(groups, key):
    G = groups(*key)
    assert (G.generators, G.orders) == DECOMPOSITIONS[key]
    assert G.exponents(range(G.order)).shape == (G.order, len(G.orders))


def test_coordinates_beyond_the_class_cap(fields):
    """|G| = 16384 over GF(128): sampled products, inverses and quotients
    from the coordinates against classes of polynomial products."""
    spec = fields(2, 7)
    G = ClassGroup(HayesParams(2, Polynomial.one(spec)))
    assert G.order == 1 << 14 and math.prod(G.orders) == G.order
    rng = random.Random(128)
    for _ in range(50):
        i, j = rng.randrange(G.order), rng.randrange(G.order)
        assert mul(G, i, j) == G.class_of(G.rep(i) * G.rep(j))
        assert G.class_of(G.rep(i) * G.rep(inv(G, i))) == G.identity
    for c in rng.sample(range(G.order), 3):
        row = G.quotients([c])[0]  # i -> i c^-1
        for i in rng.sample(range(G.order), 20):
            assert G.class_of(G.rep(row[i]) * G.rep(c)) == i


def test_exponents_near_256(fields):
    """q = 256, ell = 0, Q = x: one cyclic factor of order 255.  Products,
    inverses and quotients of classes of exponent 200 and the character
    values there are taken mod 255 (200 + 200 = 145 and -200 = 55 mod 255,
    where an 8-bit sum would wrap to 144 and 56)."""
    from hayesdist.chars import CharacterTable

    spec = fields(2, 8)
    G = ClassGroup(HayesParams(0, Polynomial.x(spec)))
    assert G.orders == (255,)
    at = {e: c for c, (e,) in enumerate(G.exponents(range(G.order)).tolist())}
    a = at[200]
    assert mul(G, a, a) == at[145] == G.class_of(G.rep(a) * G.rep(a))
    assert inv(G, a) == at[55]
    assert G.class_of(G.rep(a) * G.rep(inv(G, a))) == G.identity
    assert G.quotients([a]).tolist() == [[mul(G, i, at[55]) for i in range(G.order)]]
    assert G.quotients([a])[0, at[254]] == at[54]
    table = CharacterTable(G)
    values = character_values(table, [a])[:, 0]
    assert np.allclose(values, np.exp(2j * np.pi * table.exponents[:, 0] * 200 / 255))


def test_paper_regime_group_builds_under_the_default_budget(fields):
    """q = 256, ell = 2, Q = 1 (t + ell <= sqrt(q)): 256^2 candidate rows of
    3 cells plus 16 ladder rungs of |G| = 65536 cells, about 1.2e6."""
    G = ClassGroup(HayesParams(2, Polynomial.one(fields(2, 8))))
    assert G.order == 1 << 16 and math.prod(G.orders) == G.order


@pytest.mark.parametrize(
    "ell, q_text, cells",
    [
        (3, "1", 256 ** 3 * 4 + 2 ** 24 * 24),  # |G| = 2^24
        (2, "x + 1", 256 ** 3 * 4 + 2 ** 16 * 255 * 23),  # |G| = 2^16 * 255, log2 |G| < 24
    ],
)
def test_oversized_group_is_refused_before_any_array(fields, ell, q_text, cells):
    params = HayesParams(ell, Polynomial.from_text(fields(2, 8), q_text))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as info:
            ClassGroup(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.what, info.value.value) == (GROUP_CELLS, cells)
    assert peak < 2 ** 20


def test_group_with_a_large_prime_order_factor_is_refused_before_q_is_factored(fields, monkeypatch):
    """GF(2), ell = 1, Q = x^31 + x^3 + 1 (irreducible): |G| = 2 (2^31 - 1)
    with 2^31 - 1 prime.  The 2^32 candidate rows of 33 cells are refused
    on q, t and ell alone, before Phi_t(Q) needs the factors of Q."""
    params = HayesParams(1, Polynomial.from_text(fields(2), "x^31 + x^3 + 1"))

    def factored(*args):
        raise AssertionError("Q factored on a refused group")

    monkeypatch.setattr("hayesdist.hayes.phi", factored)
    with pytest.raises(BudgetExceededError) as info:
        ClassGroup(params)
    assert (info.value.what, info.value.value) == (GROUP_CELLS, 2 ** 32 * 33)
    assert _prime_powers(2 * (2 ** 31 - 1)) == [(2, 1), (2 ** 31 - 1, 1)]


def test_classes_of_input_checks(fields, groups):
    F3 = fields(3)
    G = groups(3, 1, 1, "x")
    assert G.class_of(Polynomial.one(F3)) == G.identity
    assert G.class_of(Polynomial.x(F3)) is None  # gcd(x, Q) = x
    assert G.classes_of([]).shape == (0,)
    assert G.classes_of(np.zeros((0, 3), dtype=np.uint8)).shape == (0,)
    assert G.classes_of([(1,), (1,)]).tolist() == [G.identity] * 2
    for bad in ([(0, 2)], [(1, 1), (1, 2)], [()], [(1, 0, 1), (0, 1)], [1, 1]):
        with pytest.raises(ValueError):
            G.classes_of(bad)
    for f in (Polynomial.zero(F3), Polynomial(F3, (0, 2))):
        with pytest.raises(ValueError):
            G.class_of(f)
