"""Characters of the Hayes class group and their L-polynomials.

Characters are read off the group's direct-product decomposition
(`ClassGroup.orders` and `dlog`): the map  class -> exponent tuple  is a
homomorphism onto Z_{n_1} x ... x Z_{n_m}, which is what the character
construction needs.

Character values are complex floats; the verification layer tolerances
(orthogonality 1e-9, coefficient vanishing 1e-6 scaled) absorb the rounding.
A character is extended by zero to polynomials not coprime to Q, which is
already encoded in the class counts: non-coprime polynomials carry no class.

For a nontrivial character chi, the series  sum over monic f of
chi(f) z^deg(f)  is a polynomial P(z, chi) of degree at most ell + t - 1
whose roots are 1 or have modulus q^(-1/2), at most one root equal to 1.
Coefficient j is the full character sum over monic degree-j polynomials,
so |coefficient j| <= C(t+ell-1, j) * q^(j/2) (the Weil bound used
throughout the error estimates).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import check_budget
from .hayes import ClassGroup, HayesParams

COEFF_ZERO_TOL = 1e-9  # below this magnitude an L-polynomial coefficient is treated as zero


@dataclass(frozen=True)
class Character:
    """Exponent tuple e: the character sends a class with dlog d to
    prod_i zeta_{n_i}^(e_i * d_i)."""

    exponents: tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)


def decompose(group: ClassGroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Generators (class indices) and cyclic orders of the group's
    direct-product decomposition, which `ClassGroup` computes once.  A read
    of its fields, kept because the benchmark's tracer wraps it by name."""
    return group.generators, group.orders


class CharacterTable:
    """All |E| characters, as a dense complex matrix values[chi, class]."""

    def __init__(self, group: ClassGroup):
        self.orders = group.orders
        n = group.order
        m = len(self.orders)
        dmat = group.dlog.astype(np.float64)
        exps = np.array(
            list(itertools.product(*[range(o) for o in self.orders])), dtype=np.float64
        ).reshape(n, m)
        self.characters = tuple(
            Character(tuple(int(e) for e in row)) for row in exps
        )
        if m:
            scaled = exps / np.array(self.orders, dtype=np.float64)
            phase = 2j * np.pi * (scaled @ dmat.T)
            self.values = np.exp(phase, out=phase)  # in place: one |G|^2 complex array at peak
        else:
            self.values = np.ones((1, 1), dtype=np.complex128)

    @property
    def order(self) -> int:
        return len(self.characters)

    def value(self, chi: int, cls: int) -> complex:
        return complex(self.values[chi, cls])

    def nontrivial(self) -> list[int]:
        return [i for i, c in enumerate(self.characters) if not c.is_trivial]


def character_table(group: ClassGroup) -> CharacterTable:
    return CharacterTable(group)


def weil_bound(j: int, t: int, ell: int, q: int) -> float:
    """C(t+ell-1, j) * q^(j/2): bound for nontrivial character sums over M_j."""
    return math.comb(t + ell - 1, j) * q ** (j / 2) if t + ell - 1 >= 0 else 0.0


def character_sum(
    table: CharacterTable,
    chi: int,
    j: int,
    group: ClassGroup,
    budget: int | None = None,
    check: bool = True,
) -> complex:
    """sum over monic degree-j f of chi(f), with chi(f) = 0 off gcd(f,Q)=1."""
    counts = group.monic_class_count_array(j, budget)
    total = complex(np.dot(table.values[chi], counts))
    if check and not table.characters[chi].is_trivial:
        params = group.params
        bound = weil_bound(j, params.t, params.ell, params.spec.q)
        slack = 1e-9 * max(1.0, params.spec.q ** (j / 2))
        if abs(total) > bound + slack:
            raise ArithmeticError(
                f"character sum magnitude {abs(total)} exceeds Weil bound {bound}"
            )
    return total


@dataclass(frozen=True)
class LPolynomial:
    """Coefficients c_j of P(z, chi) with diagnostics.

    `coeffs` runs j = 0..(ell+t+2): a couple of degrees past the guaranteed
    bound, so the vanishing of the tail is itself observable.  `degree` is
    the effective degree after dropping trailing coefficients below
    COEFF_ZERO_TOL; `roots` are the roots of that truncation.
    """

    coeffs: tuple[complex, ...]
    degree: int
    degree_bound: int
    roots: tuple[complex, ...]
    q: int

    def root_moduli(self) -> tuple[float, ...]:
        return tuple(abs(z) for z in self.roots)


def check_l_polynomial_budget(params: HayesParams, budget: int | None = None) -> None:
    """Refuse an L-polynomial whose sums enumerate monic degrees up to t + ell + 2."""
    check_budget("L-polynomial enumeration q^j", params.spec.q ** (params.ell + params.t + 2), budget)


def l_polynomial(
    table: CharacterTable, chi: int, group: ClassGroup, budget: int | None = None
) -> LPolynomial:
    """P(z, chi) for a nontrivial character, with companion-matrix roots."""
    if table.characters[chi].is_trivial:
        raise ValueError("the L-polynomial is defined for nontrivial characters")
    params = group.params
    degree_bound = params.ell + params.t - 1
    top = params.ell + params.t + 2
    check_l_polynomial_budget(params, budget)
    coeffs = tuple(character_sum(table, chi, j, group, budget) for j in range(top + 1))
    degree = 0
    for j in range(min(degree_bound, top), 0, -1):
        if abs(coeffs[j]) >= COEFF_ZERO_TOL:
            degree = j
            break
    if degree == 0:
        roots: tuple[complex, ...] = ()
    else:
        # numpy wants the highest-degree coefficient first
        arr = np.array([coeffs[j] for j in range(degree, -1, -1)], dtype=np.complex128)
        roots = tuple(complex(z) for z in np.roots(arr))
    return LPolynomial(coeffs, degree, degree_bound, roots, params.spec.q)
