import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_gcdex, gf_irreducible_p, gf_mul, gf_neg, gf_rem, gf_sub

from hayesdist.ffield import (
    FieldSpec,
    Polynomial,
    distinct_roots_in,
    enumerate_monic,
)
from references import enumerate_below_degree, zeros_of


def test_rejects_bad_characteristic():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(1)
    with pytest.raises(ValueError):
        FieldSpec(2, 0)


def test_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        FieldSpec(2, 2, modulus=(1, 0, 1))  # (x+1)^2
    with pytest.raises(ValueError):
        FieldSpec(2, 2, modulus=(0, 1, 1))  # divisible by x


def sympy_irreducible(coeffs, p):
    """sympy's irreducibility test on a little-endian coefficient tuple over GF(p)."""
    return gf_irreducible_p([ZZ(c) for c in reversed(coeffs)], p, ZZ)


@pytest.mark.parametrize("p,a", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2)])
def test_default_modulus_is_smallest_irreducible(p, a):
    spec = FieldSpec(p, a)
    assert sympy_irreducible(spec.modulus, p)
    # oracle: every lexicographically smaller monic candidate is reducible
    for low in itertools.product(range(p), repeat=a):
        cand = (*low, 1)
        if cand == spec.modulus:
            break
        assert not sympy_irreducible(cand, p)


def _first_irreducible_by_trial_division(p, a):
    """The default modulus by the rule that tries every candidate: the first
    monic degree-a polynomial over GF(p), with the low coefficients in
    `itertools.product` order (as `enumerate_monic` lists them), that no
    monic polynomial of degree 1..a/2 divides, in integer arithmetic mod p."""

    def divides(g, f):
        rem = list(f)
        for i in range(len(f) - 1, len(g) - 2, -1):
            c = rem[i]
            for j, gj in enumerate(g):
                rem[i - len(g) + 1 + j] = (rem[i - len(g) + 1 + j] - c * gj) % p
        return not any(rem)

    divisors = [(*low, 1) for d in range(1, a // 2 + 1) for low in itertools.product(range(p), repeat=d)]
    for low in itertools.product(range(p), repeat=a):
        if not any(divides(g, (*low, 1)) for g in divisors):
            return (*low, 1)


def test_default_modulus_is_the_first_irreducible_of_every_candidate():
    # the search skips the candidates with a zero constant term; the modulus
    # it finds is the one that trying every candidate finds, for every q <= 256
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(1, 9):
            if p ** a <= 256:
                assert FieldSpec(p, a).modulus == _first_irreducible_by_trial_division(p, a), (p, a)
    assert _first_irreducible_by_trial_division(2, 8) == (1, 0, 0, 0, 1, 1, 0, 1, 1)  # x^8 + x^7 + x^5 + x^4 + 1


@pytest.mark.parametrize("p", [2, 3])
def test_explicit_modulus_accepted_iff_irreducible(p):
    for a in (1, 2, 3):
        for low in itertools.product(range(p), repeat=a):
            cand = (*low, 1)
            if sympy_irreducible(cand, p):
                assert FieldSpec(p, a, modulus=cand).modulus == cand
            else:
                with pytest.raises(ValueError, match="reducible"):
                    FieldSpec(p, a, modulus=cand)


def test_gf4_multiplication_reduces_by_modulus():
    # GF(4) = GF(2)[y]/(y^2+y+1): y*y = y+1 by reducing y^2
    F4 = FieldSpec(2, 2)
    y = F4.element((0, 1))
    assert F4.mul(y, y) == F4.element((1, 1))


def test_additive_inverse_everywhere(fields):
    for p, a in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        spec = fields(p, a)
        for x in spec.elements:
            assert F_add_neg_zero(spec, x)


def F_add_neg_zero(spec, x):
    return spec.add(x, spec.neg(x)) == spec.zero


def test_inverse_in_gf5(fields):
    F5 = fields(5)
    assert F5.inv(F5.element(2)) == F5.element(3)  # 2*3 = 6 = 1 mod 5
    for x in F5.elements[1:]:
        assert F5.mul(F5.inv(x), x) == F5.one
    with pytest.raises(ZeroDivisionError):
        F5.inv(F5.zero)


def test_field_axioms_spot_checks(fields):
    rng = random.Random(7)
    for p, a in [(2, 2), (3, 2), (5, 1)]:
        spec = fields(p, a)
        els = spec.elements
        for _ in range(50):
            x, y, z = (rng.choice(els) for _ in range(3))
            assert spec.mul(x, y) == spec.mul(y, x)
            assert spec.add(x, y) == spec.add(y, x)
            assert spec.mul(x, spec.add(y, z)) == spec.add(spec.mul(x, y), spec.mul(x, z))


def test_element_coercion_and_order(fields):
    F9 = fields(3, 2)
    assert F9.element(5).index == 5
    assert F9.element((2, 1)) == F9.element(2 + 1 * 3)
    # enumeration order is lexicographic on coordinates
    coords = [e.coeffs for e in F9.elements]
    assert coords == sorted(coords)
    with pytest.raises(ValueError):
        F9.element(9)


class TestPolynomialArithmetic:
    def test_gcd_examples(self, fields):
        F2 = fields(2)
        f = Polynomial.from_text(F2, "x^2 + x")
        x = Polynomial.x(F2)
        assert f.gcd(x) == x
        with pytest.raises(ValueError):
            Polynomial.zero(F2).gcd(Polynomial.zero(F2))

    def test_eval_root_by_construction(self, fields):
        for p, a in [(2, 1), (3, 1), (2, 2)]:
            spec = fields(p, a)
            for alpha in spec.elements:
                f = Polynomial(spec, (spec.neg(alpha), spec.one))  # x - alpha
                assert f(alpha) == spec.zero

    def test_mod_by_long_division(self, fields):
        F3 = fields(3)
        f = Polynomial.from_text(F3, "x^3 + 2*x + 1")
        g = Polynomial.from_text(F3, "x^2 + 1")
        assert (f % g) == Polynomial.from_text(F3, "x + 1")

    def test_divmod_identity_random(self, fields):
        rng = random.Random(3)
        for p, a in [(2, 1), (3, 1), (2, 2)]:
            spec = fields(p, a)
            for _ in range(40):
                f = Polynomial(spec, [rng.choice(spec.elements) for _ in range(rng.randint(0, 6))])
                g = Polynomial(spec, [rng.choice(spec.elements) for _ in range(rng.randint(1, 4))])
                if g.is_zero:
                    continue
                quot, rem = divmod(f, g)
                assert quot * g + rem == f
                assert rem.is_zero or rem.degree < g.degree

    def test_gcd_divides_both(self, fields):
        rng = random.Random(5)
        F3 = fields(3)
        for _ in range(40):
            f = Polynomial(F3, [rng.randrange(3) for _ in range(rng.randint(1, 5))])
            g = Polynomial(F3, [rng.randrange(3) for _ in range(rng.randint(1, 5))])
            if f.is_zero or g.is_zero:
                continue
            d = f.gcd(g)
            assert (f % d).is_zero and (g % d).is_zero and d.is_monic

    def test_eval_multiplicative(self, fields):
        rng = random.Random(9)
        for p, a in [(2, 1), (3, 1), (2, 2)]:
            spec = fields(p, a)
            for _ in range(30):
                f = Polynomial(spec, [rng.choice(spec.elements) for _ in range(4)])
                g = Polynomial(spec, [rng.choice(spec.elements) for _ in range(3)])
                alpha = rng.choice(spec.elements)
                assert (f * g)(alpha) == spec.mul(f(alpha), g(alpha))

    def test_division_by_zero(self, fields):
        F2 = fields(2)
        with pytest.raises(ZeroDivisionError):
            divmod(Polynomial.x(F2), Polynomial.zero(F2))


class TestReciprocal:
    def test_coefficient_reversal(self, fields):
        F7 = fields(7)
        f = Polynomial.from_text(F7, "x^2 + 3*x + 5")
        assert f.reciprocal() == Polynomial.from_text(F7, "5*x^2 + 3*x + 1")

    def test_pure_power_collapses_to_one(self, fields):
        F3 = fields(3)
        for d in range(1, 5):
            assert Polynomial.monomial(F3, d).reciprocal() == Polynomial.one(F3)

    def test_degree_drops_when_zero_is_a_root(self, fields):
        F2 = fields(2)
        f = Polynomial.from_text(F2, "x^3 + x")
        assert f.reciprocal() == Polynomial.from_text(F2, "x^2 + 1")

    def test_involution_off_zero(self, fields):
        rng = random.Random(13)
        for p, a in [(2, 1), (3, 1), (2, 2)]:
            spec = fields(p, a)
            for _ in range(40):
                coeffs = [rng.choice(spec.elements) for _ in range(rng.randint(1, 6))]
                f = Polynomial(spec, coeffs)
                if f.is_zero or f.coefficient(0).is_zero:
                    continue
                assert f.reciprocal().reciprocal() == f

    def test_zero_rejected(self, fields):
        with pytest.raises(ValueError):
            Polynomial.zero(fields(2)).reciprocal()


class TestEnumeration:
    def test_counts_are_q_to_d(self, fields):
        for p, a in [(2, 1), (3, 1), (2, 2), (5, 1)]:
            spec = fields(p, a)
            for d in range(0, 4):
                polys = list(enumerate_monic(spec, d))
                assert len(polys) == spec.q ** d
                assert len(set(polys)) == len(polys)
                assert all(f.is_monic and f.degree == d for f in polys)

    def test_degree_zero_is_one(self, fields):
        assert list(enumerate_monic(fields(3), 0)) == [Polynomial.one(fields(3))]

    def test_q2_d2_exact_set(self, fields):
        F2 = fields(2)
        got = {f.to_text() for f in enumerate_monic(F2, 2)}
        assert got == {"x^2", "x^2 + 1", "x^2 + x", "x^2 + x + 1"}

    def test_lexicographic_order(self, fields):
        F3 = fields(3)
        seen = [f.index_coeffs()[:2] for f in enumerate_monic(F3, 2)]
        assert seen == sorted(seen)

    def test_below_degree_includes_zero(self, fields):
        F2 = fields(2)
        polys = list(enumerate_below_degree(F2, 2))
        assert len(polys) == 4
        assert Polynomial.zero(F2) in polys


class TestRootCounting:
    def test_multiplicity_ignored(self, fields):
        F2 = fields(2)
        assert distinct_roots_in(Polynomial.from_text(F2, "x^2"), F2.elements) == 1

    def test_split_polynomial(self, fields):
        F2 = fields(2)
        assert distinct_roots_in(Polynomial.from_text(F2, "x^2 + x"), F2.elements) == 2

    def test_irreducible_has_none(self, fields):
        F2 = fields(2)
        assert distinct_roots_in(Polynomial.from_text(F2, "x^2 + x + 1"), F2.elements) == 0

    def test_zero_polynomial_rejected(self, fields):
        with pytest.raises(ValueError):
            distinct_roots_in(Polynomial.zero(fields(2)), fields(2).elements)

    def test_zeros_of(self, fields):
        F3 = fields(3)
        f = Polynomial.from_text(F3, "x^2 + 2")  # x^2 - 1 = (x-1)(x+1)
        assert {a.index for a in zeros_of(f)} == {1, 2}


def test_zero_polynomial_degree_marker(fields):
    z = Polynomial.zero(fields(2))
    assert z.degree is None
    assert z.is_zero
    assert not z.is_monic


def test_text_round_trips(fields):
    rng = random.Random(21)
    for p, a in [(2, 1), (3, 1), (5, 1), (3, 2)]:
        spec = fields(p, a)
        for _ in range(30):
            f = Polynomial(spec, [rng.choice(spec.elements) for _ in range(rng.randint(0, 5))])
            if f.is_zero:
                continue
            assert Polynomial.from_text(spec, f.to_text()) == f


def test_text_parser_handles_minus(fields):
    F5 = fields(5)
    assert Polynomial.from_text(F5, "x^2 - 1") == Polynomial.from_text(F5, "x^2 + 4")


def test_monic_irreducibles_cache(fields):
    F2 = fields(2)
    assert [f.to_text() for f in F2.monic_irreducibles(1)] == ["x", "x + 1"]
    assert [f.to_text() for f in F2.monic_irreducibles(2)] == ["x^2 + x + 1"]
    assert len(F2.monic_irreducibles(3)) == 2


def test_fields_are_shared_per_argument_triple():
    assert FieldSpec(2, 3) is FieldSpec(2, 3)
    assert FieldSpec(2, 3, modulus=(1, 1, 0, 1)) is FieldSpec(2, 3, modulus=[1, 1, 0, 1])
    assert FieldSpec(2, 3, modulus=(1, 1, 0, 1)) != FieldSpec(2, 3)  # default: (1, 0, 1, 1)
    for _ in range(2):  # a failed construction is not remembered
        with pytest.raises(ValueError):
            FieldSpec(2, 2, modulus=(1, 0, 1))


# ---------------------------------------------------------------------------
# Field tables against an independent oracle: sympy's GF(p)[y] arithmetic
# reduced by the stored modulus
# ---------------------------------------------------------------------------

def _to_gf(spec, x):
    """Element index -> sympy dense GF(p) polynomial in y (highest degree first)."""
    poly = [ZZ(x // spec.p ** i % spec.p) for i in reversed(range(spec.a))]
    while poly and poly[0] == 0:
        poly.pop(0)
    return poly


def _from_gf(spec, poly):
    return sum(int(c) * spec.p ** i for i, c in enumerate(reversed(poly)))


def _check_pairs(spec, pairs):
    p = spec.p
    m = [ZZ(c) for c in reversed(spec.modulus)]
    for x, y in pairs:
        fx, fy = _to_gf(spec, x), _to_gf(spec, y)
        s = _from_gf(spec, gf_add(fx, fy, p, ZZ))
        d = _from_gf(spec, gf_sub(fx, fy, p, ZZ))
        prod = _from_gf(spec, gf_rem(gf_mul(fx, fy, p, ZZ), m, p, ZZ))
        ex, ey = spec.element(x), spec.element(y)
        assert spec.add(ex, ey).index == spec.add_table[x, y] == s
        assert spec.sub(ex, ey).index == spec.sub_table[x, y] == d
        assert spec.mul(ex, ey).index == spec.mul_table[x, y] == prod


def _check_inverses(spec, xs):
    m = [ZZ(c) for c in reversed(spec.modulus)]
    for x in xs:
        ex = spec.element(x)
        assert spec.neg(ex).index == _from_gf(spec, gf_neg(_to_gf(spec, x), spec.p, ZZ))
        if x:
            s, _, g = gf_gcdex(_to_gf(spec, x), m, spec.p, ZZ)  # s * x + t * m = g = 1
            assert g == [1] and spec.inv(ex).index == _from_gf(spec, s)


@pytest.mark.parametrize(
    "p,a,modulus",
    [(2, 1, None), (3, 1, None), (7, 1, None), (31, 1, None), (2, 2, None), (3, 2, None),
     (2, 3, None), (2, 3, (1, 1, 0, 1)), (5, 2, None), (3, 3, None), (2, 4, None), (2, 5, None)],
)
def test_tables_match_sympy_on_all_pairs(p, a, modulus):
    spec = FieldSpec(p, a, modulus)
    _check_pairs(spec, itertools.product(range(spec.q), repeat=2))
    _check_inverses(spec, range(spec.q))


@pytest.mark.parametrize("p,a", [(2, 7), (3, 5), (2, 8)])
def test_tables_match_sympy_on_sampled_pairs(p, a):
    spec = FieldSpec(p, a)
    rng = random.Random(p * 100 + a)
    _check_pairs(spec, [(rng.randrange(spec.q), rng.randrange(spec.q)) for _ in range(3000)])
    _check_inverses(spec, range(spec.q))


# ---------------------------------------------------------------------------
# Field construction against the direct one: moduli from the full list of
# monic irreducibles, the product table from a^2 q x q array products
# ---------------------------------------------------------------------------

def _reference_field(p, a, modulus=None):
    """(modulus, add, sub, mul, neg, inv) of GF(p^a) built directly."""
    if modulus is None and a == 1:
        modulus = (0, 1)
    else:
        irreducibles = [f.index_coeffs() for f in FieldSpec(p).monic_irreducibles(a)]
        if modulus is None:
            modulus = irreducibles[0]
        assert tuple(modulus) in irreducibles
    weights = [p ** j for j in range(a)]
    coords = np.array([c[::-1] for c in itertools.product(range(p), repeat=a)], dtype=np.int64)

    def index(coord):
        return sum(coord(j) % p * weights[j] for j in range(a))

    basis = [coords]
    for _ in range(a - 1):
        prev = basis[-1]
        shifted = np.zeros_like(prev)
        shifted[:, 1:] = prev[:, :-1]
        basis.append((shifted - prev[:, -1:] * np.array(modulus[:a])) % p)
    add = index(lambda j: coords[:, j, None] + coords[None, :, j])
    mul = index(lambda j: sum(coords[:, i, None] * basis[i][None, :, j] for i in range(a)))
    neg = index(lambda j: p - coords[:, j])
    inv = [None, *(int(np.flatnonzero(row == 1)[0]) for row in mul[1:])]
    return tuple(modulus), add, add[:, neg], mul, neg.tolist(), inv


_SMALL_FIELDS = [
    (p, a) for p in range(2, 257) if all(p % d for d in range(2, p)) for a in range(1, 9) if p ** a <= 256
]


@pytest.mark.parametrize(
    "p,a,modulus",
    [(p, a, None) for p, a in _SMALL_FIELDS] + [(2, 3, (1, 1, 0, 1)), (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1))],
)
def test_field_construction_matches_direct_construction(p, a, modulus):
    spec = FieldSpec(p, a, modulus)
    ref_modulus, add, sub, mul, neg, inv = _reference_field(p, a, modulus)
    assert spec.modulus == ref_modulus
    assert np.array_equal(spec.add_table, add)
    assert np.array_equal(spec.sub_table, sub)
    assert np.array_equal(spec.mul_table, mul)
    assert list(spec._neg_i) == neg
    assert list(spec._inv_i) == inv
    assert [list(r) for r in spec._add_i] == add.tolist()
    assert [list(r) for r in spec._sub_i] == sub.tolist()
    assert [list(r) for r in spec._mul_i] == mul.tolist()
    # the numpy views are read-only and share the scalar rows' memory
    for view, rows in ((spec.add_table, spec._add_i), (spec.sub_table, spec._sub_i), (spec.mul_table, spec._mul_i)):
        assert not view.flags.writeable
        assert all(np.shares_memory(view[x], np.frombuffer(row, dtype=np.uint8)) for x, row in enumerate(rows))
    assert not spec._index_at.flags.writeable
    assert spec._index_at.tolist() == [e.index for e in spec.elements]


_SCALAR_FIELD_WORK = """
import sys
from hayesdist.ffield import FieldSpec, Polynomial, phi
for p, a in ((2, 8), (3, 5), (251, 1)):
    spec = FieldSpec(p, a)
    f = Polynomial.from_text(spec, "x^3 + 2*x + 1")
    quotient, remainder = divmod(f * f, Polynomial.from_text(spec, "x^2 + 1"))
    assert quotient.degree == 4 and spec.mul(spec.element(2), spec.inv(spec.element(2))) == spec.one
    assert 0 < phi(4, f) <= spec.q ** 4
assert "numpy" not in sys.modules, "scalar field work imported numpy"
view = FieldSpec(2, 8).mul_table
assert "numpy" in sys.modules and view.base is not None and not view.flags.writeable
"""


def test_scalar_field_work_never_imports_numpy():
    # ffield imports numpy only for its views and its row kernel
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _SCALAR_FIELD_WORK], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
