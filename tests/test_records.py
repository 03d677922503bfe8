"""The package's value types: equality, order, hash values, read-only fields,
validation messages and truth values."""

import math

import numpy as np
import pytest

from hayesdist.asym import ConditionResult, Regime
from hayesdist.chars import LPolynomial, LPolynomials
from hayesdist.dist import RSDistanceRow, ZeroDistribution
from hayesdist.ffield import FieldSpec, FqElement, Polynomial
from hayesdist.hayes import HayesParams, HayesSignature


def test_field_elements_compare_and_hash_by_coefficients_alone():
    a, b, c = FqElement((1, 0), 1), FqElement((1, 0), 7), FqElement((0, 1), 2)
    assert a == b and hash(a) == hash(b) == hash(((1, 0),))
    assert not a < b and a <= b and a >= b and not a > b
    assert c < a and c <= a and a > c and a >= c
    assert a != c and a != (1, 0) and a != 1
    with pytest.raises(TypeError):
        a < (1, 0)
    assert sorted([a, c]) == [c, a]
    assert repr(b) == "Fq(7)"
    F9 = FieldSpec(3, 2)
    assert list(F9.elements) == sorted(F9.elements, key=lambda e: e.coeffs)
    assert {e: e.index for e in F9.elements} == {e: e.index for e in reversed(F9.elements)}


def test_hashes_are_those_of_the_compared_fields():
    F3 = FieldSpec(3)
    Q = Polynomial.from_text(F3, "x + 1")
    assert hash(HayesParams(2, Q)) == hash((2, Q))
    assert HayesParams(2, Q) == HayesParams(ell=2, Q=Polynomial.from_text(F3, "x + 1"))
    assert HayesParams(2, Q) != HayesParams(1, Q) and HayesParams(2, Q) != (2, Q)
    regime = Regime(q=16, k=4, t=1, ell=2, n=15)
    assert hash(regime) == hash((16, 4, 1, 2, 15, 0.05))
    assert regime == Regime(16, 4, 1, 2, 15, 0.05) != Regime(16, 4, 1, 2, 15, 0.1)
    signature = HayesSignature((F3.one,), Q)
    assert hash(signature) == hash(((F3.one,), Q))
    assert repr(HayesParams(2, Q)) == "HayesParams(ell=2, Q=Poly('x + 1'))"
    assert repr(regime) == "Regime(q=16, k=4, t=1, ell=2, n=15, delta0=0.05)"


_F3 = FieldSpec(3)
_FROZEN = [
    (_F3.one, "index"),
    (HayesParams(1, Polynomial.from_text(_F3, "x + 1")), "ell"),
    (HayesSignature((_F3.one,), Polynomial.from_text(_F3, "x + 1")), "residue"),
    (Regime(q=16, k=4, t=1, ell=2, n=15), "delta0"),
    (ConditionResult(True, 1.0, 0.0), "holds"),
    (LPolynomial((1,), 0, 0, (), 3), "degree"),
    (LPolynomials(np.zeros(0), np.zeros(0), np.zeros(0), 0, 3), "q"),
]


@pytest.mark.parametrize("value, field", _FROZEN, ids=[type(value).__name__ for value, _ in _FROZEN])
def test_frozen_types_refuse_assignment(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        value.other = 1
    assert getattr(value, field) is before


@pytest.mark.parametrize(
    "ell, q_text, message",
    [(-1, "x + 1", "ell must be >= 0"), (1, "2*x + 1", "Q must be monic (and nonzero)"), (1, "0", "Q must be monic (and nonzero)")],
)
def test_hayes_params_validation(ell, q_text, message):
    with pytest.raises(ValueError) as info:
        HayesParams(ell, Polynomial.from_text(FieldSpec(3), q_text))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"delta0": 0.0}, "delta0 must be positive"),
        ({"k": 0}, "regime evaluation needs 0 < c = k/q < 1"),
        ({"k": 16}, "regime evaluation needs 0 < c = k/q < 1"),
        ({"t": -1}, "need t >= 0 and ell >= 0, got t=-1, ell=2"),
        ({"ell": -2}, "need t >= 0 and ell >= 0, got t=1, ell=-2"),
        ({"n": 0}, "need 1 <= n <= q = 16, got n=0"),
        ({"n": 17}, "need 1 <= n <= q = 16, got n=17"),
        ({"delta0": math.nan}, "delta0 must be finite, got nan"),
        ({"delta0": math.inf}, "delta0 must be finite, got inf"),
    ],
)
def test_regime_validation(kwargs, message):
    with pytest.raises(ValueError) as info:
        Regime(**{"q": 16, "k": 4, "t": 1, "ell": 2, "n": 15, **kwargs})
    assert str(info.value) == message


def test_regime_coordinates():
    regime = Regime(q=16, k=4, t=1, ell=2, n=15)
    assert (regime.p, regime.c, regime.delta0) == (2, 0.25, 0.05)
    assert regime.gamma == 2 * math.sqrt(16) / 15


def test_condition_result_truth_is_its_verdict():
    assert not ConditionResult(False, 1.0, 2.0) and ConditionResult(True, 2.0, 1.0)
    assert not ConditionResult(False, float("nan"), float("nan"), ("note",))
    assert ConditionResult(True, 2.0, 1.0).notes == ()
    assert ConditionResult(True, 2.0, 1.0) == ConditionResult(True, 2.0, 1.0, ())


def test_mutable_records_compare_by_fields_and_are_unhashable():
    F3 = FieldSpec(3)
    params = HayesParams(1, Polynomial.from_text(F3, "x"))
    dist = ZeroDistribution(params, 0, 1, (F3.one,), {0: 2, 1: 1}, 3)
    assert dist == ZeroDistribution(params, 0, 1, (F3.one,), {0: 2, 1: 1}, 3)
    assert dist != ZeroDistribution(params, 0, 1, (F3.one,), {0: 3}, 3)
    dist.counts = {0: 3}
    assert dist == ZeroDistribution(params, 0, 1, (F3.one,), {0: 3}, 3)
    assert repr(dist).startswith("ZeroDistribution(params=HayesParams(ell=1, Q=Poly('x')), eps=0, k=1,")
    row = RSDistanceRow(Polynomial.from_text(F3, "x^2"), 1, 1, {0: 1, 2: 2}, 3)
    assert row == RSDistanceRow(Polynomial.from_text(F3, "x^2"), 1, 1, {0: 1, 2: 2}, 3)
    assert row.count(2) == 2 and row.count(1) == 0
    for value in (dist, row):
        with pytest.raises(TypeError):
            hash(value)
