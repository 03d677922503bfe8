import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hayesdist.errors import BudgetExceededError
from hayesdist.ffield import Polynomial, enumerate_monic
from hayesdist.hayes import (
    ClassGroup,
    HayesParams,
    distinct_irreducible_factors,
    equivalent,
    phi,
    phi_relative_gap,
    signature,
)


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
        assert len({signature(r, G.params) for r in G.reps}) == G.order
        assert all(r.degree == 2 for r in G.reps)

    def test_mul_table_is_abelian_group(self, groups):
        for key in [(2, 1, 1, "1"), (3, 1, 1, "x"), (2, 1, 2, "x + 1"), (2, 2, 1, "1")]:
            G = groups(*key)
            n = G.order
            mt = np.array([[G.mul(i, j) for j in range(n)] for i in range(n)])
            assert np.array_equal(mt, mt.T)
            for i in range(n):
                assert sorted(mt[i]) == list(range(n))
                assert mt[G.identity, i] == i
                assert G.mul(i, G.inv(i)) == G.identity
                assert G.translation(i).tolist() == mt[:, i].tolist()
            rng = random.Random(17)
            for _ in range(30):
                i, j, k = (rng.randrange(n) for _ in range(3))
                assert mt[mt[i, j], k] == mt[i, mt[j, k]]

    def test_product_signature_matches_polynomial_product(self, groups):
        G = groups(3, 1, 1, "x")
        rng = random.Random(23)
        for _ in range(40):
            i, j = rng.randrange(G.order), rng.randrange(G.order)
            assert G.mul(i, j) == G.class_of(G.reps[i] * G.reps[j])

    def test_class_of_matches_signature(self, fields, groups):
        F3 = fields(3)
        G = groups(3, 1, 1, "x")
        params = G.params
        for f in enumerate_monic(F3, 3):
            sig = signature(f, params)
            if sig is None:
                assert G.class_of(f) is None
            else:
                assert signature(G.reps[G.class_of(f)], params) == sig

    def test_budget(self, fields):
        F5 = fields(5)
        with pytest.raises(BudgetExceededError):
            ClassGroup(HayesParams(2, Polynomial.one(F5)), max_classes=10)

    def test_degenerate_flag(self, fields, groups):
        assert groups(2, 1, 0, "1").degenerate
        assert groups(2, 1, 0, "1").order == 1
        assert not groups(2, 1, 1, "1").degenerate

    def test_export_classes(self, groups):
        G = groups(2, 1, 1, "1")
        assert G.export_classes() == [{"eps": 0, "rep": "x"}, {"eps": 1, "rep": "x + 1"}]


class TestClassMembers:
    def test_leading_zero_class_degree_two(self, fields, groups):
        F2 = fields(2)
        G = groups(2, 1, 1, "1")
        eps = G.class_of(Polynomial.from_text(F2, "x^2"))
        got = {m.to_text() for m in G.members(eps, 2)}
        assert got == {"x^2", "x^2 + 1"}

    def test_base_degree_is_single_member(self, groups):
        for key in [(2, 1, 1, "1"), (3, 1, 1, "x"), (2, 1, 2, "x")]:
            G = groups(*key)
            d = G.params.t + G.params.ell
            for eps in range(G.order):
                members = list(G.members(eps, d))
                assert members == [G.reps[eps]]

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
                    members = set(G.members(eps, d))
                    assert members == by_filter[eps]
                    assert len(members) == spec.q ** (d - t_ell)

    def test_count_example_q2_leading_one_degree_three(self, fields, groups):
        F2 = fields(2)
        G = groups(2, 1, 1, "1")
        eps = G.class_of(Polynomial.from_text(F2, "x^2 + x"))
        assert len(list(G.members(eps, 3))) == 4

    def test_degree_below_base_rejected(self, groups):
        with pytest.raises(ValueError):
            next(groups(2, 1, 1, "x").members(0, 1))


def test_monic_class_counts_consistency(groups):
    G = groups(3, 1, 1, "x")
    q = 3
    for d in range(0, 5):
        counts = G.monic_class_counts(d)
        assert sum(counts) + G.noncoprime_count(d) == q ** d
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
    assert list(G.reps) == [f for f in enumerate_monic(spec, Q.degree + ell) if f.gcd(Q).is_one]
    by_signature = {signature(rep, params): i for i, rep in enumerate(G.reps)}

    def label(f):
        sig = signature(f, params)
        return -1 if sig is None else by_signature[sig]

    assert G.identity == label(Polynomial.one(spec))
    rng = random.Random(order)
    for _ in range(300):
        i, j = rng.randrange(order), rng.randrange(order)
        assert G.mul(i, j) == label(G.reps[i] * G.reps[j])
        assert G.mul(i, G.inv(i)) == G.identity
    for d in range(4):
        polys = list(enumerate_monic(spec, d))
        want = [label(f) for f in polys]
        got = G.classes_of([f.index_coeffs() for f in polys])
        assert got.tolist() == want
        assert (got == -1).tolist() == [not f.gcd(Q).is_one for f in polys]
        counts = np.bincount(np.array(want) + 1, minlength=order + 1)
        assert G.monic_class_counts(d) == counts[1:].tolist()
        assert G.noncoprime_count(d) == counts[0]


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
    assert G.dlog.shape == (G.order, len(G.orders))


def test_coordinates_beyond_the_class_cap(fields):
    """|G| = 16384 over GF(128): sampled products, inverses and translations
    from the coordinates against classes of polynomial products."""
    spec = fields(2, 7)
    G = ClassGroup(HayesParams(2, Polynomial.one(spec)), max_classes=1 << 14)
    assert G.order == 1 << 14 and math.prod(G.orders) == G.order
    rng = random.Random(128)
    for _ in range(50):
        i, j = rng.randrange(G.order), rng.randrange(G.order)
        assert G.mul(i, j) == G.class_of(G.reps[i] * G.reps[j])
        assert G.class_of(G.reps[i] * G.reps[G.inv(i)]) == G.identity
    for c in rng.sample(range(G.order), 3):
        row = G.translation(c)
        for i in rng.sample(range(G.order), 20):
            assert row[i] == G.class_of(G.reps[i] * G.reps[c])


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
