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
orders n_1..n_m.  Its one stored layout is the grid of exponent tuples: each
class has a place on it, sum_i e_i * stride_i for its exponent tuple e, so
the exponents are the mixed-radix digits of the place (`exponents`), and
quotients are digit arithmetic on places.

Codes come from `ClassGroup._code` on residue and leading digits: from
rows of index coefficients, on the field's row kernel (`FieldSpec.mod_rows`,
in `_codes`), or straight from the field's monic-enumeration kernel
(`FieldSpec.monic_blocks`).  `ClassGroup.classes_of` labels a block of
monic polynomials of one degree with it, and `class_of` is its one-row
form; `monic_class_blocks` labels every monic polynomial of one degree
through the same lookup, without forming a row, and `monic_class_counts`
counts them.  `signature` is the object-level definition the kernel is
tested against.  `member_base_rows` gives a degree-d member of every class
at once, as rows.
`quotients` gives the maps i -> i c^-1 of a block of classes c at once:
the subset-product DP gathers through it one point class at a time, and
the group-algebra product a block at a time.

Phi_j(Q) counts monic degree-j polynomials coprime to Q.  It lives in
`ffield` (`phi`), where the scalar subcommands reach it without numpy, as do
the distinct irreducible factors of Q that the unit mask of `ClassGroup`
reads (`distinct_irreducible_factors`); both come from one distinct-degree
factorization pass per Q.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from ._record import FrozenRecord
from .errors import check_budget
from .ffield import FieldSpec, FqElement, Polynomial, distinct_irreducible_factors, phi


class HayesParams(FrozenRecord):
    """The pair (ell, Q) defining the equivalence; t = deg Q is derived."""

    __slots__ = ("ell", "Q")

    def __init__(self, ell: int, Q: Polynomial):
        if ell < 0:
            raise ValueError("ell must be >= 0")
        if not Q.is_monic:
            raise ValueError("Q must be monic (and nonzero)")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "Q", Q)

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


class HayesSignature(NamedTuple):
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


GROUP_CELLS = "class group cells (candidates + ladders)"
MONIC_BLOCK_ROWS = 1 << 14  # monic polynomials per array block when enumerating a degree
_COUNT_BLOCK_ROWS = 1 << 16  # ... when only counting them per class (no values at points)


class ClassGroup:
    """The group of Hayes classes, in discrete-log coordinates.

    Classes are indexed 0..n-1 in the enumeration order of their canonical
    representatives; a dense lookup maps each of the q^(ell+t) codes to its
    class, or to -1 when the residue is not coprime to Q.  Construction,
    class counts and labels all go through that lookup (`_code`), on
    arrays of polynomials or of their residues and leading digits, with the
    field's numpy tables.  Representatives are kept
    as rows of index coefficients; `rep(eps)` makes one a `Polynomial`.
    `generators` and `orders` give the decomposition; each class's place on
    the grid of exponent tuples (`_position`) and the class at each place
    (`_eps_of`) are its one layout, and `exponents` reads the tuples off the
    places.  Construction is refused before it allocates anything when its
    cells exceed the budget.
    The whole structure is immutable after construction; queries are pure.
    """

    def __init__(self, params: HayesParams, budget: int | None = None):
        spec = params.spec
        q, ell, t = spec.q, params.ell, params.t
        # q^(t+ell) candidate rows of t+ell+1 cells, checked before Q is
        # factored; then one row of |G| cells per rung of the ladders of
        # _decompose, at most log2 |G| of them (sum_p v_p <= log2 |G|; the
        # ladders stop early in a group of small exponent)
        cells = q ** (t + ell) * (t + ell + 1)
        check_budget(GROUP_CELLS, cells, budget)
        expected = q ** ell * phi(t, params.Q)
        cells += expected * (expected.bit_length() - 1)
        check_budget(GROUP_CELLS, cells, budget)
        self.params = params
        self.degenerate = params.degenerate
        self._spec = spec
        self._q, self._ell, self._t = q, ell, t
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
        self._rows = cands[keep]
        self.identity = self.class_of(Polynomial.one(spec))
        self._decompose()
        self._counts_cache: dict[int, list[int]] = {}

    # -- class codes -------------------------------------------------------------

    def _code(self, residues: np.ndarray, leading: np.ndarray) -> np.ndarray:
        """Codes of the signatures with these residue digits (t rows) and
        leading digits (ell rows, the coefficients of x^(d-1)..x^(d-ell)),
        one column per polynomial."""
        q = self._q
        code = np.zeros(residues.shape[1], dtype=np.int64)
        for c in residues[::-1]:
            code *= q
            code += c
        for c in leading[::-1]:
            code *= q
            code += c
        return code

    def _codes(self, f: np.ndarray) -> np.ndarray:
        """Codes of the monic polynomials in the rows of f (as from `FieldSpec.monic_rows`)."""
        d = f.shape[1] - 1
        leading = np.zeros((self._ell, len(f)), dtype=np.uint8)
        for j in range(1, min(self._ell, d) + 1):
            leading[j - 1] = f[:, d - j]
        return self._code(self._spec.mod_rows(f, self._Q_idx).T, leading)

    def _products(self, a, b) -> np.ndarray:
        """Classes of rep(a_i) * rep(b_i) for index arrays a and b (either
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
        that place sum_i e_i * stride_i holds the class with exponent tuple e."""
        n = self.order
        everything = np.arange(n)
        ladders = []
        for p, v in _prime_powers(n):
            # a rung of identities lies in every H, as do the rungs after it
            # (powers of the identity), so a ladder stops before the first one
            rung = self._power(everything, n // p ** v)
            ladder = [rung]
            for _ in range(v - 1):
                rung = self._power(rung, p)
                if (rung == self.identity).all():
                    break
                ladder.append(rung)
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
        self._strides = np.array([math.prod(orders[i + 1:]) for i in range(len(orders))], dtype=np.int64)
        self._eps_of = elements  # the class at each place of the grid
        self._position = np.empty(n, dtype=np.intp)  # each class's place in the grid, the inverse of _eps_of
        self._position[elements] = everything

    # -- queries ----------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def rep(self, eps: int) -> Polynomial:
        """The canonical representative of class eps: its monic member of degree t + ell."""
        return Polynomial(self._spec, self._rows[eps].tolist())

    def _exponent_columns(self, classes) -> Iterator[np.ndarray]:
        """The exponents of `classes` (a class, or an array of them) in one
        factor at a time: the digits of their places, int64."""
        places = self._position[np.asarray(classes, dtype=np.intp)]
        for stride, order in zip(self._strides.tolist(), self.orders):
            yield places // stride % order

    def exponents(self, classes) -> np.ndarray:
        """The exponent tuples of `classes` (a class, or an array of them, with
        one more axis for the factors), int64."""
        columns = list(self._exponent_columns(classes))
        return np.stack(columns, axis=-1) if columns else np.zeros(np.shape(classes) + (0,), dtype=np.int64)

    def quotients(self, cs) -> np.ndarray:
        """Classes i * c^-1 for each class c in cs (rows) and every class i
        (columns), so that v[quotients([c])[0]] is the class function
        eps -> v(eps c^-1).  On the grid, the place of i * c^-1 is a sum over
        the factors of ((e_i - e_c) mod n) * stride, built by broadcasting
        one factor at a time, and read at each class's place (no |G| x m
        array of exponents is formed)."""
        k, m = len(cs), len(self.orders)
        pos = np.zeros((k,) + (1,) * m, dtype=np.intp)
        shifts = self._exponent_columns(np.asarray(cs, dtype=np.intp))
        for axis, (shift, n, stride) in enumerate(zip(shifts, self.orders, self._strides.tolist())):
            shape = [k] + [1] * m
            shape[axis + 1] = n
            pos = pos + ((np.arange(n) - shift[:, None]) % n * stride).reshape(shape)
        return self._eps_of.take(pos.reshape(k, self.order)).take(self._position, axis=1)

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

    def member_base_rows(self, d: int) -> np.ndarray:
        """A monic degree-d member of every class eps at once, as rows: the
        representatives shifted up by k = d - t - ell, with the low t
        coefficients corrected to the representative's residue."""
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

    def monic_class_counts(self, d: int, budget: int | None = None) -> list[int]:
        """Counts of monic degree-d polynomials per class (coprime ones only),
        enumerated once per degree and cached; each call returns a copy."""
        if d not in self._counts_cache:
            check_budget(f"monic enumeration q^{d}", self._q ** d, budget)
            counts = np.zeros(self.order + 1, dtype=np.int64)  # slot 0: not coprime
            for classes, _ in self.monic_class_blocks(d, (), _COUNT_BLOCK_ROWS):
                counts += np.bincount(classes + 1, minlength=len(counts))
            self._counts_cache[d] = counts[1:].tolist()
        return list(self._counts_cache[d])

    def monic_class_blocks(self, d: int, points, max_rows: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The monic degree-d polynomials in `enumerate_monic` order, in
        blocks of at most max_rows, each as (classes, zeros): what
        `classes_of` gives for the block's polynomials, and how many of the
        elements with indices `points` each vanishes at.  The field's
        enumeration kernel (`FieldSpec.monic_blocks`) gives the residues and
        leading digits, and the code lookup of `classes_of` the classes."""
        for zeros, residues, leading in self._spec.monic_blocks(d, points, self._Q_idx, self._ell, max_rows):
            yield self._lookup[self._code(residues, leading)], zeros

    @property
    def monic_enumerated(self) -> int:
        """Monic polynomials enumerated so far by `monic_class_counts` (each degree once)."""
        return sum(self._q ** d for d in self._counts_cache)

    def export_classes(self) -> Iterator[dict]:
        """Stable class-index <-> canonical-representative mapping, one
        record per class, each made as it is read."""
        return ({"eps": i, "rep": self.rep(i).to_text()} for i in range(self.order))

    def __repr__(self) -> str:
        return (
            f"ClassGroup(q={self._q}, ell={self._ell}, Q={self.params.Q.to_text()!r}, "
            f"order={self.order})"
        )


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, v) for each prime power p^v exactly dividing n."""
    out, p = [], 2
    while p * p <= n:
        v = 0
        while n % p == 0:
            n, v = n // p, v + 1
        if v:
            out.append((p, v))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _orders_mod(ladders: list[tuple[int, np.ndarray]], member: np.ndarray) -> np.ndarray:
    """Order of every class modulo the subgroup H marked by `member`.

    For each prime power p^v exactly dividing |G| a ladder holds the rows
    x^(|G|/p^v), x^(p |G|/p^v), ..., x^(|G|/p) over all classes x, up to its
    first row of identities.  The p-part of the order of xH is p^a for the
    least a whose row lies in H; once a row lies in H so do the later ones
    (the identity rows too), so a is the number of rows outside H."""
    order = np.ones(len(member), dtype=np.int64)
    for p, ladder in ladders:
        order *= p ** (~member[ladder]).sum(axis=0)
    return order
