"""Characters of the Hayes class group and their L-polynomials.

The group is decomposed greedily into a direct product of cyclic factors:
repeatedly take an element whose order in the quotient by what is already
generated is maximal *and* whose order in the full group equals that
quotient order (such a lift always exists; the search is exhaustive over
the tiny groups handled here).  The exponent coordinates produced this way
make every map  class -> exponent tuple  a genuine homomorphism onto
Z_{n_1} x ... x Z_{n_m}, which is what the character construction needs.

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
from .hayes import ClassGroup

COEFF_ZERO_TOL = 1e-9  # below this magnitude an L-polynomial coefficient is treated as zero


@dataclass(frozen=True)
class AbelianDecomposition:
    """Generators (class indices), their cyclic orders, and the exponent map."""

    generators: tuple[int, ...]
    orders: tuple[int, ...]
    dlog: dict[int, tuple[int, ...]]

    @property
    def group_order(self) -> int:
        return math.prod(self.orders)


@dataclass(frozen=True)
class Character:
    """Exponent tuple e: the character sends a class with dlog d to
    prod_i zeta_{n_i}^(e_i * d_i)."""

    exponents: tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)


def _element_order(group: ClassGroup, x: int) -> int:
    e = group.identity
    y = x
    n = 1
    while y != e:
        y = group.mul(y, x)
        n += 1
    return n


def decompose(group: ClassGroup) -> AbelianDecomposition:
    """Greedy direct-product decomposition of the (finite abelian) class group."""
    n = group.order
    identity = group.identity
    dlog: dict[int, tuple[int, ...]] = {identity: ()}
    generators: list[int] = []
    orders: list[int] = []
    element_order = {x: _element_order(group, x) for x in range(n)}
    while len(dlog) < n:
        # quotient order of x = least m >= 1 with x^m already generated
        best_x, best_m = -1, 0
        for x in range(n):
            if x in dlog:
                continue
            y = x
            m = 1
            while y not in dlog:
                y = group.mul(y, x)
                m += 1
            if m > best_m:
                best_x, best_m = x, m
        # among elements of maximal quotient order, a lift with matching
        # full order exists; take the first for determinism
        chosen = -1
        for x in range(n):
            if x in dlog or element_order[x] != best_m:
                continue
            y = x
            m = 1
            while y not in dlog:
                y = group.mul(y, x)
                m += 1
            if m == best_m:
                chosen = x
                break
        if chosen < 0:
            raise RuntimeError("no direct-summand lift found; group table is corrupt")
        generators.append(chosen)
        orders.append(best_m)
        new_dlog: dict[int, tuple[int, ...]] = {}
        power = identity
        for e in range(best_m):
            for h, tup in dlog.items():
                new_dlog[group.mul(h, power)] = tup + (e,)
            power = group.mul(power, chosen)
        if len(new_dlog) != len(dlog) * best_m:
            raise RuntimeError("decomposition is not direct; group table is corrupt")
        dlog = new_dlog
    return AbelianDecomposition(tuple(generators), tuple(orders), dlog)


class CharacterTable:
    """All |E| characters, as a dense complex matrix values[chi, class]."""

    def __init__(self, decomposition: AbelianDecomposition):
        self.decomposition = decomposition
        n = decomposition.group_order
        m = len(decomposition.orders)
        dmat = np.zeros((n, m), dtype=np.float64)
        for cls, tup in decomposition.dlog.items():
            dmat[cls] = tup
        exps = np.array(
            [tup for tup in _exponent_tuples(decomposition.orders)], dtype=np.float64
        ).reshape(n, m)
        self.characters = tuple(
            Character(tuple(int(e) for e in row)) for row in exps
        )
        if m:
            scaled = exps / np.array(decomposition.orders, dtype=np.float64)
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


def _exponent_tuples(orders: tuple[int, ...]):
    if not orders:
        yield ()
        return
    yield from itertools.product(*[range(o) for o in orders])


def all_characters(decomposition: AbelianDecomposition) -> CharacterTable:
    return CharacterTable(decomposition)


def character_table(group: ClassGroup) -> CharacterTable:
    return CharacterTable(decompose(group))


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
    counts = group.monic_class_counts(j, budget)
    row = table.values[chi]
    total = complex(np.dot(row, np.array(counts, dtype=np.float64)))
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


def l_polynomial(
    table: CharacterTable, chi: int, group: ClassGroup, budget: int | None = None
) -> LPolynomial:
    """P(z, chi) for a nontrivial character, with companion-matrix roots."""
    if table.characters[chi].is_trivial:
        raise ValueError("the L-polynomial is defined for nontrivial characters")
    params = group.params
    degree_bound = params.ell + params.t - 1
    top = params.ell + params.t + 2
    check_budget("L-polynomial enumeration q^j", params.spec.q ** top, budget)
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
