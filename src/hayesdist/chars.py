"""Characters of the Hayes class group and their L-polynomials.

Characters are read off the group's direct-product decomposition
(`ClassGroup.orders` and `exponents`): the map  class -> exponent tuple  is
a homomorphism onto Z_{n_1} x ... x Z_{n_m}.  The character with exponent
tuple e sends a class with exponent tuple d to
exp(2 pi i sum_i e_i d_i / n_i); characters are numbered in
`itertools.product` order of their exponent tuples, so character 0 is the
trivial one.

No |G| x |G| table is built.  The character sums of one degree j,

    S_j(e) = sum over classes c of N_j(c) chi_e(c),

are one inverse FFT of the class counts N_j laid out on the `orders` grid
at each class's place (`CharacterTable.sums`), as complex floats; an
L-polynomial coefficient below COEFF_ZERO_TOL counts as zero.
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

The coefficients are computed for j = 0..t+ell, one degree past that bound:
every class holds exactly one monic polynomial of degree t+ell (and q^k of
degree t+ell+k), so from degree t+ell on every nontrivial sum is exactly
zero.  `CharacterTable.l_polynomials` checks N_(t+ell)(c) = 1 for every
class c with zero tolerance, and `series-check` verifies the geometric tail
by enumeration.  All L-polynomials come from one array pass: the per-degree
sums stacked into one coefficient array, one vectorized degree rule, and one
eigenvalue call per effective degree on the stacked companion matrices.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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
    """The |G| characters of a class group: their exponent tuples and
    per-degree character sums, in O(|G| m) memory."""

    def __init__(self, group: ClassGroup):
        self.orders = group.orders
        m = len(self.orders)
        # row chi holds the exponent tuple of character chi (itertools.product order)
        self.exponents = np.indices(self.orders).reshape(m, group.order).T
        self._group = group
        self._sums: dict[int, np.ndarray] = {}
        self._l_polynomials: LPolynomials | None = None

    @property
    def order(self) -> int:
        return len(self.exponents)

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

    def l_polynomials(self, budget: int | None = None) -> LPolynomials:
        """P(z, chi) of every character, coefficients j = 0..t+ell.  Refuses
        before any enumeration when q^(t+ell) exceeds the budget; computed
        once per table."""
        group = self._group
        params = group.params
        q, top = params.spec.q, params.t + params.ell
        check_budget("L-polynomial enumeration q^j", q ** top, budget)
        if self._l_polynomials is None:
            # the tail stops at t+ell because each class holds one polynomial there
            tail = group.monic_class_counts(top, budget)
            bad = [c for c, n in enumerate(tail) if n != 1]
            if bad:
                raise RuntimeError(f"class {bad[0]} holds {tail[bad[0]]} monic polynomials of degree {top}, not 1")
            coeffs = np.stack([self.sums(j, budget) for j in range(top + 1)], axis=1)
            degree_bound = top - 1
            # effective degree: the last j in 1..degree_bound with |c_j| >= COEFF_ZERO_TOL
            # (hypot is what abs(complex) computes)
            big = np.hypot(coeffs.real, coeffs.imag)[1:, 1:degree_bound + 1] >= COEFF_ZERO_TOL
            degrees = np.zeros(self.order, dtype=np.int64)
            if big.size:
                degrees[1:] = np.where(big.any(axis=1), big.shape[1] - np.argmax(big[:, ::-1], axis=1), 0)
            roots = np.zeros((self.order, max(degree_bound, 0)), dtype=np.complex128)
            for d in sorted(set(degrees[degrees > 0].tolist())):  # np.unique would import numpy.ma
                rows = np.flatnonzero(degrees == d)
                # companion matrices as np.roots builds them, highest coefficient first
                p = coeffs[rows, d::-1]
                A = np.zeros((len(rows), d, d), dtype=np.complex128)
                A[:, 0, :] = -p[:, 1:] / p[:, :1]
                A[:, np.arange(1, d), np.arange(d - 1)] = 1
                roots[rows, :d] = np.linalg.eigvals(A)
            for array in (coeffs, degrees, roots):
                array.flags.writeable = False
            self._l_polynomials = LPolynomials(coeffs, degrees, roots, degree_bound, q)
        return self._l_polynomials


def weil_bound(j: int, t: int, ell: int, q: int) -> float:
    """C(t+ell-1, j) * q^(j/2): bound for nontrivial character sums over M_j."""
    return math.comb(t + ell - 1, j) * q ** (j / 2) if t + ell - 1 >= 0 else 0.0


def character_sum(table: CharacterTable, chi: int, j: int, budget: int | None = None) -> complex:
    """sum over monic degree-j f of chi(f), with chi(f) = 0 off gcd(f,Q)=1."""
    return complex(table.sums(j, budget)[chi])


class LPolynomials(NamedTuple):
    """P(z, chi) of every character of a table, as read-only arrays.

    `coeffs[chi, j]` is the character sum over monic degree-j polynomials,
    j = 0..t+ell; row 0, the trivial character, holds Phi_j(Q) and has
    degree 0 and no roots.  `degrees[chi]` is the effective degree after
    dropping trailing coefficients below COEFF_ZERO_TOL, and
    `roots[chi, :degrees[chi]]` are the roots of that truncation (the rest of
    the row is zero).
    """

    coeffs: np.ndarray
    degrees: np.ndarray
    roots: np.ndarray
    degree_bound: int
    q: int


class LPolynomial(NamedTuple):
    """Coefficients c_j of P(z, chi) with diagnostics.

    `coeffs` runs j = 0..t+ell: one degree past the guaranteed bound, the
    first degree at which every class holds the same number of polynomials,
    so that every nontrivial sum from there on is exactly zero.  `degree` is
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
    """P(z, chi) for a nontrivial character: row chi of
    `CharacterTable.l_polynomials`.  Refuses before any enumeration when
    q^(t+ell) exceeds the budget."""
    if chi == 0:
        raise ValueError("the L-polynomial is defined for nontrivial characters")
    L = table.l_polynomials(budget)
    degree = int(L.degrees[chi])
    return LPolynomial(
        tuple(L.coeffs[chi].tolist()), degree, L.degree_bound, tuple(L.roots[chi, :degree].tolist()), L.q
    )
