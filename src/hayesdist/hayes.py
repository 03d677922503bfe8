"""Hayes equivalence of monic polynomials over GF(q).

Two monic polynomials f, g coprime to a fixed monic Q are Hayes equivalent
(with respect to ell and Q) when their reciprocals agree mod x^(ell+1) --
i.e. they share the ell coefficients just below the leading one -- and
f = g mod Q.  The classes form a finite abelian group of order
q^ell * Phi_t(Q), t = deg Q, under <f><g> = <fg>.

A class is recorded as its *signature*: the ell reciprocal coefficients of
x^1..x^ell (zero-padded when deg f < ell) together with the residue f mod Q.
As element indices these form a key, read as the mixed-radix integer
sum_i key_i q^i (the class *code*).  Each class has exactly one monic member
of degree t + ell; that canonical representative fixes the class indexing
used everywhere: classes are numbered by the enumeration order of their
representatives.

The group is a direct product of cyclic factors with generators g_1..g_m of
orders n_1..n_m; a class is stored by its exponent tuple (its *dlog*), and
products, inverses and translations are index arithmetic on those tuples.

Codes come from `ClassGroup._codes` on rows of index coefficients, on the
field's row kernel (`FieldSpec.mod_rows`).  `ClassGroup.classes_of` labels
a block of monic polynomials of one degree with it, and `class_of` is its
one-row form; `signature` is the object-level definition the kernel is
tested against.  `member_base_rows` is the row form of `member_base`.

Phi_j(Q) counts monic degree-j polynomials coprime to Q; it is computed by
inclusion-exclusion over the distinct irreducible factors of Q, and the same
factorization drives the coprimality checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DEFAULT_CLASS_BUDGET, BudgetExceededError, check_budget
from .ffield import FieldSpec, FqElement, Polynomial, enumerate_below_degree


@dataclass(frozen=True)
class HayesParams:
    """The pair (ell, Q) defining the equivalence; t = deg Q is derived."""

    ell: int
    Q: Polynomial

    def __post_init__(self):
        if self.ell < 0:
            raise ValueError("ell must be >= 0")
        if not self.Q.is_monic:
            raise ValueError("Q must be monic (and nonzero)")

    @property
    def t(self) -> int:
        return self.Q.degree  # Q monic, so never None

    @property
    def spec(self) -> FieldSpec:
        return self.Q.spec

    @property
    def degenerate(self) -> bool:
        """ell = 0 and Q = 1: a single class containing every monic polynomial."""
        return self.ell == 0 and self.t == 0


@dataclass(frozen=True)
class HayesSignature:
    """Class label: ell reciprocal coefficients and the residue mod Q."""

    leading: tuple[FqElement, ...]
    residue: Polynomial


def signature(f: Polynomial, params: HayesParams) -> HayesSignature | None:
    """Signature of a monic f, or None when gcd(f, Q) != 1 (the <f> = 0 case)."""
    if not f.is_monic:
        raise ValueError("signatures are defined for monic polynomials")
    spec = params.spec
    if not f.gcd(params.Q).is_one:
        return None
    d = f.degree
    leading = tuple(f.coefficient(d - j) if d - j >= 0 else spec.zero for j in range(1, params.ell + 1))
    return HayesSignature(leading, f % params.Q)


def equivalent(f: Polynomial, g: Polynomial, params: HayesParams) -> bool:
    """True iff both are coprime to Q and share a signature."""
    sf = signature(f, params)
    sg = signature(g, params)
    return sf is not None and sf == sg


def distinct_irreducible_factors(Q: Polynomial) -> tuple[Polynomial, ...]:
    """Distinct monic irreducible factors of Q, via trial division up to deg(Q)/2.

    Whatever survives after dividing out every factor of degree <= t/2 has a
    single irreducible factor left, so it is appended whole.
    """
    if not Q.is_monic:
        raise ValueError("Q must be monic")
    spec = Q.spec
    t = Q.degree
    out = []
    rem = Q
    for d in range(1, t // 2 + 1):
        for cand in spec.monic_irreducibles(d):
            if (rem % cand).is_zero:
                out.append(cand)
                while (rem % cand).is_zero:
                    rem = rem // cand
    if rem.degree >= 1:
        out.append(rem)
    return tuple(out)


def phi(j: int, Q: Polynomial) -> int:
    """Number of monic degree-j polynomials coprime to Q (inclusion-exclusion)."""
    if j < 0:
        raise ValueError("degree must be >= 0")
    q = Q.spec.q
    degrees = [P.degree for P in distinct_irreducible_factors(Q)]
    total = 0
    for size in range(len(degrees) + 1):
        for combo in itertools.combinations(degrees, size):
            drop = sum(combo)
            if drop <= j:
                total += (-1) ** size * q ** (j - drop)
    return total


def phi_relative_gap(j: int, Q: Polynomial) -> Fraction:
    """|Phi_j(Q)/q^j - 1| as an exact rational (bounded by sum over factors of q^-d_i)."""
    q = Q.spec.q
    return abs(Fraction(phi(j, Q), q ** j) - 1)


MONIC_BLOCK_ROWS = 1 << 14  # monic polynomials per array block when enumerating a degree


class ClassGroup:
    """The group of Hayes classes, in discrete-log coordinates.

    Classes are indexed 0..n-1 in the enumeration order of their canonical
    representatives; a dense lookup maps each of the q^(ell+t) codes to its
    class, or to -1 when the residue is not coprime to Q.  Construction,
    class counts and labels all go through `classes_of`, on arrays of
    polynomials with the field's numpy tables.  `generators` and `orders`
    give the decomposition, `dlog[i]` the exponent tuple of class i, and
    the memory is O(|G| m).  The whole structure is immutable after
    construction; queries are pure.
    """

    def __init__(self, params: HayesParams, max_classes: int | None = None):
        limit = DEFAULT_CLASS_BUDGET if max_classes is None else max_classes
        spec = params.spec
        expected = spec.q ** params.ell * phi(params.t, params.Q)
        if expected > limit:
            raise BudgetExceededError("class group order", expected, limit)
        self.params = params
        self.degenerate = params.degenerate
        self._spec = spec
        self._q = q = spec.q
        self._ell = ell = params.ell
        self._t = t = params.t
        self._Q_idx = params.Q.index_coeffs()
        # Each code belongs to exactly one monic polynomial of degree t + ell;
        # it is a class when its residue (the high digits) is a unit mod Q.
        cands = spec.monic_rows(t + ell)
        codes = self._codes(cands)
        unit = np.ones(q ** t, dtype=bool)
        residues = np.indices((q,) * t).reshape(t, q ** t)[::-1].T  # row r holds the digits of r
        for P in distinct_irreducible_factors(params.Q):
            unit &= spec.mod_rows(residues, P.index_coeffs()).any(axis=1)
        keep = np.repeat(unit, q ** ell)[codes]
        if keep.sum() != expected:
            raise RuntimeError(f"class count {keep.sum()} != q^ell * Phi_t(Q) = {expected}")
        self._lookup = np.full(q ** (t + ell), -1, dtype=np.int32)
        self._lookup[codes[keep]] = np.arange(expected)
        rows = cands[keep]
        self.reps = tuple(Polynomial(spec, r) for r in rows.tolist())
        self._rows = rows
        self.identity = self.class_of(Polynomial.one(spec))
        self._decompose()
        self._counts_cache: dict[int, tuple[list[int], int]] = {}

    # -- class codes -------------------------------------------------------------

    def _codes(self, f: np.ndarray) -> np.ndarray:
        """Codes of the monic polynomials in the rows of f (as from `FieldSpec.monic_rows`)."""
        q, ell = self._q, self._ell
        d = f.shape[1] - 1
        code = np.zeros(len(f), dtype=np.int64)
        for c in self._spec.mod_rows(f, self._Q_idx).T[::-1]:
            code = code * q + c
        for j in range(ell, 0, -1):
            code = code * q + (f[:, d - j] if j <= d else 0)
        return code

    def _products(self, a, b) -> np.ndarray:
        """Classes of reps[a_i] * reps[b_i] for index arrays a and b (either
        may be a single index), by one array product of the representatives."""
        a, b = np.broadcast_arrays(a, b)
        return self.classes_of(self._spec.mul_rows(self._rows[a], self._rows[b]))

    def _power(self, x: np.ndarray, e: int) -> np.ndarray:
        """Classes x_i^e for e >= 1, by square-and-multiply on the whole array."""
        out = None
        while True:
            if e & 1:
                out = x if out is None else self._products(out, x)
            e >>= 1
            if not e:
                return out
            x = self._products(x, x)

    def _decompose(self) -> None:
        """Greedy direct-product decomposition: repeatedly take the first class
        whose order modulo the subgroup H generated so far is maximal *and*
        equals its full order (such a lift always exists).  H is listed so
        that position sum_i dlog_i * stride_i holds the class with that dlog."""
        n = len(self.reps)
        everything = np.arange(n)
        ladders = []
        for p, v in _prime_powers(n):
            rung = self._power(everything, n // p ** v)
            ladder = [rung]
            for _ in range(v - 1):
                ladder.append(rung := self._power(rung, p))
            ladders.append((p, np.array(ladder)))
        member = everything == self.identity
        order = _orders_mod(ladders, member)
        elements = np.array([self.identity])
        generators, orders = [], []
        while len(elements) < n:
            quotient = _orders_mod(ladders, member)
            m = int(quotient.max())
            lifts = np.flatnonzero((quotient == m) & (order == m))
            if m < 2 or not len(lifts):
                raise RuntimeError("no direct-summand lift found; group arithmetic is corrupt")
            g = int(lifts[0])
            powers = np.array([self.identity, g])
            while len(powers) < m:  # g^0..g^(2L-1) from g^0..g^(L-1) and g^L
                powers = np.concatenate([powers, self._products(powers, self._products(powers[-1:], g))])
            elements = self._products(np.repeat(elements, m), np.tile(powers[:m], len(elements)))
            member[elements] = True
            if elements.min() < 0 or member.sum() != len(elements):
                raise RuntimeError("decomposition is not direct; group arithmetic is corrupt")
            generators.append(g)
            orders.append(m)
        self.generators = tuple(generators)
        self.orders = tuple(orders)
        self._radix = np.array(orders, dtype=np.int64)
        self._strides = np.array([math.prod(orders[i + 1:]) for i in range(len(orders))], dtype=np.int64)
        self._eps_of = elements
        self.dlog = np.empty((n, len(orders)), dtype=np.int64)
        self.dlog[elements] = everything[:, None] // self._strides % self._radix
        self.dlog.flags.writeable = False

    # -- queries ----------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.reps)

    def __len__(self) -> int:
        return len(self.reps)

    def _class_at(self, dlog: np.ndarray) -> np.ndarray:
        """Classes with the exponent tuples in the last axis of dlog (taken mod the orders)."""
        return self._eps_of[dlog % self._radix @ self._strides]

    def mul(self, i: int, j: int) -> int:
        return int(self._class_at(self.dlog[i] + self.dlog[j]))

    def inv(self, i: int) -> int:
        return int(self._class_at(-self.dlog[i]))

    def translation(self, c: int) -> np.ndarray:
        """Index array of i -> i*c over all classes, so that v[translation(c)]
        is the class function eps -> v(eps * c)."""
        return self._class_at(self.dlog + self.dlog[c])

    def classes_of(self, rows) -> np.ndarray:
        """Class indices of monic polynomials of one degree, given as rows of
        index coefficients (constant term first, leading one last): an int32
        array with -1 where gcd(f, Q) != 1."""
        rows = np.asarray(rows, dtype=np.uint8)  # ragged rows raise ValueError
        if rows.ndim == 2 and rows.shape[1] and (rows[:, -1] == 1).all():
            return self._lookup[self._codes(rows)]
        if rows.shape == (0,):
            return np.empty(0, dtype=np.int32)
        raise ValueError("classes_of expects monic polynomials of one degree")

    def class_of(self, f: Polynomial) -> int | None:
        """Class index of a monic f, or None when gcd(f, Q) != 1."""
        idx = int(self.classes_of([f.index_coeffs()])[0])
        return idx if idx >= 0 else None

    def member_base(self, eps: int, d: int) -> Polynomial:
        """A monic degree-d member of class eps: x^k * rep, residue-corrected."""
        k = d - self._t - self._ell
        if k < 0:
            raise ValueError(f"degree must be >= t + ell = {self._t + self._ell}")
        spec = self._spec
        rep = self.reps[eps]
        f0 = rep * Polynomial.monomial(spec, k)
        if self._t > 0:
            f0 = f0 + (rep % self.params.Q) - (f0 % self.params.Q)
        return f0

    def member_base_rows(self, d: int) -> np.ndarray:
        """Rows of member_base(eps, d) for every class eps at once: the
        representatives shifted up by k, with the low t coefficients corrected
        to the representative's residue."""
        k = d - self._t - self._ell
        if k < 0:
            raise ValueError(f"degree must be >= t + ell = {self._t + self._ell}")
        spec, t = self._spec, self._t
        base = np.zeros((len(self._rows), d + 1), dtype=np.uint8)
        base[:, k:] = self._rows
        base[:, :t] = spec.sub_table[
            spec.add_table[base[:, :t], spec.mod_rows(self._rows, self._Q_idx)],
            spec.mod_rows(base, self._Q_idx),
        ]
        return base

    def members(self, eps: int, d: int):
        """All q^(d - t - ell) monic degree-d members of class eps.

        The members are exactly base + h*Q over all h of degree < k: adding
        h*Q (degree <= d - ell - 1) touches neither the ell leading
        coefficients nor the residue mod Q.
        """
        base = self.member_base(eps, d)
        k = d - self._t - self._ell
        Q = self.params.Q
        for h in enumerate_below_degree(self._spec, k):
            yield base + h * Q

    def _class_counts_entry(self, d: int, budget: int | None) -> tuple[list[int], int]:
        """Cached (per-class counts, non-coprime count) of degree d."""
        if d not in self._counts_cache:
            check_budget(f"monic enumeration q^{d}", self._q ** d, budget)
            counts = np.zeros(len(self.reps) + 1, dtype=np.int64)  # slot 0: not coprime
            for rows in self._spec.monic_row_blocks(d, MONIC_BLOCK_ROWS):
                counts += np.bincount(self.classes_of(rows) + 1, minlength=len(counts))
            self._counts_cache[d] = (counts[1:].tolist(), int(counts[0]))
        return self._counts_cache[d]

    def monic_class_counts(self, d: int, budget: int | None = None) -> list[int]:
        """Counts of monic degree-d polynomials per class (coprime ones only)."""
        return list(self._class_counts_entry(d, budget)[0])

    @property
    def monic_enumerated(self) -> int:
        """Monic polynomials enumerated so far by `monic_class_counts` (each degree once)."""
        return sum(self._q ** d for d in self._counts_cache)

    def noncoprime_count(self, d: int) -> int:
        """Number of monic degree-d polynomials with gcd(f, Q) != 1."""
        return self._class_counts_entry(d, None)[1]

    def export_classes(self) -> list[dict]:
        """Stable class-index <-> canonical-representative mapping."""
        return [{"eps": i, "rep": rep.to_text()} for i, rep in enumerate(self.reps)]

    def __repr__(self) -> str:
        return (
            f"ClassGroup(q={self._q}, ell={self._ell}, Q={self.params.Q.to_text()!r}, "
            f"order={len(self.reps)})"
        )


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, v) for each prime power p^v exactly dividing n."""
    out, p = [], 2
    while n > 1:
        v = 0
        while n % p == 0:
            n, v = n // p, v + 1
        if v:
            out.append((p, v))
        p += 1
    return out


def _orders_mod(ladders: list[tuple[int, np.ndarray]], member: np.ndarray) -> np.ndarray:
    """Order of every class modulo the subgroup H marked by `member`.

    For each prime power p^v exactly dividing |G| a ladder holds the rows
    x^(|G|/p^v), x^(p |G|/p^v), ..., x^(|G|/p) over all classes x.  The p-part
    of the order of xH is p^a for the least a whose row lies in H; once a row
    lies in H so do the later ones, so a is the number of rows outside H."""
    order = np.ones(len(member), dtype=np.int64)
    for p, ladder in ladders:
        order *= p ** (~member[ladder]).sum(axis=0)
    return order
