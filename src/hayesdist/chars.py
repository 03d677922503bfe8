"""Characters of the Hayes class group and their L-polynomials.

Characters are read off the group's direct-product decomposition
(`ClassGroup.orders` and `dlog`): the map  class -> exponent tuple  is a
homomorphism onto Z_{n_1} x ... x Z_{n_m}.  The character with exponent
tuple e sends a class with dlog d to exp(2 pi i sum_i e_i d_i / n_i);
characters are numbered in `itertools.product` order of their exponent
tuples, so character 0 is the trivial one.

No |G| x |G| table is built.  The character sums of one degree j,

    S_j(e) = sum over classes c of N_j(c) chi_e(c),

are one inverse FFT of the class counts N_j laid out on the `orders` grid
by their dlog (`CharacterTable.sums`), and single character values come
from exact integer phases (`CharacterTable.values_at`).  Both are complex
floats; an L-polynomial coefficient below COEFF_ZERO_TOL counts as zero.
A character is extended by zero to polynomials not coprime to Q, which is
already encoded in the class counts: non-coprime polynomials carry no class.

For a nontrivial character chi, the series  sum over monic f of
chi(f) z^deg(f)  is a polynomial P(z, chi) of degree at most ell + t - 1.
For a primitive chi its roots have modulus q^(-1/2), except at most one
root equal to 1.  An imprimitive chi is induced by a primitive chi' of
smaller modulus, and P(z, chi) also carries the Euler factors
(1 - chi'(P) z^deg(P)) of the primes P dividing Q: their roots have
modulus 1 and can equal 1, so more than one root may be 1 (at q = 4,
ell = 1, Q = x^2 + x one polynomial is (1 - z)^2).
Coefficient j is the full character sum over monic degree-j polynomials,
so |coefficient j| <= C(t+ell-1, j) * q^(j/2) (the Weil bound used
throughout the error estimates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_budget
from .hayes import ClassGroup

COEFF_ZERO_TOL = 1e-9  # below this magnitude an L-polynomial coefficient is treated as zero


def decompose(group: ClassGroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Generators (class indices) and cyclic orders of the group's
    direct-product decomposition, which `ClassGroup` computes once.  A read
    of its fields, kept because the benchmark's tracer wraps it by name."""
    return group.generators, group.orders


class CharacterTable:
    """The |G| characters of a class group: their exponent tuples, values at
    chosen classes, and per-degree character sums, in O(|G| m) memory."""

    def __init__(self, group: ClassGroup):
        self.orders = group.orders
        m = len(self.orders)
        # row chi holds the exponent tuple of character chi (itertools.product order)
        self.exponents = np.indices(self.orders).reshape(m, group.order).T
        self._group = group
        self._sums: dict[int, np.ndarray] = {}

    @property
    def order(self) -> int:
        return len(self.exponents)

    def values_at(self, classes) -> np.ndarray:
        """chi(c) for every character chi (rows) and each class c of
        `classes` (columns), from the exact phase sum_i e_i d_i N/n_i mod N."""
        N = math.lcm(*self.orders)
        weights = np.array([N // n for n in self.orders], dtype=np.int64)
        d = self._group.dlog[np.asarray(classes, dtype=np.int64)] * weights
        return np.exp(2j * np.pi * ((self.exponents @ d.T) % N / N))

    def sums(self, j: int, budget: int | None = None) -> np.ndarray:
        """Character sums over monic degree-j polynomials, one per character:
        |G| times the inverse FFT of the class counts N_j on the `orders`
        grid.  Each degree is computed once and checked against the Weil
        bound for every nontrivial character."""
        if j not in self._sums:
            group = self._group
            counts = np.array(group.monic_class_counts(j, budget), dtype=np.float64)
            grid = counts[group._eps_of].reshape(self.orders or (1,))
            sums = group.order * np.fft.ifftn(grid).ravel()
            params = group.params
            q = params.spec.q
            bound = weil_bound(j, params.t, params.ell, q)
            worst = np.abs(sums[1:]).max(initial=0.0)
            if worst > bound + 1e-9 * max(1.0, q ** (j / 2)):
                raise ArithmeticError(f"character sum magnitude {worst} exceeds Weil bound {bound}")
            sums.flags.writeable = False
            self._sums[j] = sums
        return self._sums[j]


def weil_bound(j: int, t: int, ell: int, q: int) -> float:
    """C(t+ell-1, j) * q^(j/2): bound for nontrivial character sums over M_j."""
    return math.comb(t + ell - 1, j) * q ** (j / 2) if t + ell - 1 >= 0 else 0.0


def character_sum(table: CharacterTable, chi: int, j: int, budget: int | None = None) -> complex:
    """sum over monic degree-j f of chi(f), with chi(f) = 0 off gcd(f,Q)=1."""
    return complex(table.sums(j, budget)[chi])


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


def l_polynomial(table: CharacterTable, chi: int, budget: int | None = None) -> LPolynomial:
    """P(z, chi) for a nontrivial character, with companion-matrix roots.
    Refuses before any enumeration when q^(t+ell+2) exceeds the budget."""
    if chi == 0:
        raise ValueError("the L-polynomial is defined for nontrivial characters")
    params = table._group.params
    degree_bound = params.ell + params.t - 1
    top = params.ell + params.t + 2
    check_budget("L-polynomial enumeration q^j", params.spec.q ** top, budget)
    coeffs = tuple(character_sum(table, chi, j, budget) for j in range(top + 1))
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
