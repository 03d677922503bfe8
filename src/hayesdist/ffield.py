"""Exact arithmetic in GF(p^a) and for dense polynomials over it.

Field elements are coordinate vectors in the power basis of a stored monic
irreducible modulus m(y), so GF(p^a) = GF(p)[y]/(m(y)).  Every element of a
field is interned: arithmetic returns the one canonical object per value,
which keeps equality, hashing and the enumeration loops cheap.  The dense
q x q add/sub/mul tables are built with numpy gathers, one block of rows
per digit of the row index: x + z and x * z come from x' + z and x' * z,
where x' is x without its leading digit, and from the coordinates of
y^i * z reduced by m.  Scalar arithmetic reads nested-list views of them.
`FieldSpec(p, a, modulus)` returns one shared field per argument triple,
so the tables are built once per process.

The same tables drive the package's one array polynomial kernel: blocks of
polynomials as uint8 rows of index coefficients, with `FieldSpec.monic_rows`
(enumeration), `mul_rows` (row-wise products), `mod_rows` (remainders) and
`eval_rows` (Horner evaluation at a vector of points).  `Polynomial` is the
object-level form the kernel is tested against.

Three encodings are used throughout:

* coordinate tuple ``(c_0, ..., c_{a-1})`` with each ``c_i`` in ``[0, p)``;
* integer index ``c_0 + c_1*p + ... + c_{a-1}*p^(a-1)``, used for table
  lookups and JSON (for a = 1 the index is just the residue mod p);
* element *order*, used wherever a deterministic enumeration is needed,
  is lexicographic on the coordinate tuple.  For a > 1 this differs from
  index order; both are fixed conventions, not tunables.

Polynomials are immutable dense coefficient tuples with no stored trailing
zeros.  The zero polynomial has degree ``None`` -- a distinguished marker,
never -1, so degree arithmetic cannot silently go negative.

The default modulus for GF(p^a) is the lexicographically smallest monic
irreducible of degree a over GF(p) (ordered by coefficient tuple
``(c_0, ..., c_{a-1})``), which makes enumeration orders and class labels
reproducible across runs.  It is the first irreducible in `enumerate_monic`
order, so the first entry of ``FieldSpec(p).monic_irreducibles(a)``; the
search stops there.  Irreducibility is trial division by the monic
irreducibles of degree at most a/2, in the same `Polynomial` arithmetic as
everything else (``(0, 1)`` when a = 1), and an explicit modulus must pass
that one test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_Q = 256  # lookup tables are dense q x q; full-enumeration work stays far below this


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Elements and the field
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class FqElement:
    """A field element: coordinates in the power basis, plus its table index.

    Comparison (and the enumeration order) is lexicographic on `coeffs`;
    `index` is excluded from comparisons but always consistent with them.
    """

    coeffs: tuple[int, ...]
    index: int = field(compare=False)

    @property
    def is_zero(self) -> bool:
        return self.index == 0

    def __repr__(self) -> str:
        return f"Fq({self.index})"


class _Shared(type):
    """Metaclass returning one FieldSpec per (p, a, modulus) argument triple.

    A field never changes after construction (its cache of monic
    irreducibles is a pure function of the field), so every caller may share
    it and the tables are built once per process."""

    def __call__(cls, p: int, a: int = 1, modulus: Sequence[int] | None = None):
        key = (p, a, None if modulus is None else tuple(modulus))
        spec = cls._shared.get(key)
        if spec is None:
            spec = cls._shared[key] = super().__call__(*key)
        return spec


class FieldSpec(metaclass=_Shared):
    """GF(p^a) with interned elements and dense lookup-table arithmetic."""

    _shared: dict[tuple, "FieldSpec"] = {}

    def __init__(self, p: int, a: int = 1, modulus: Sequence[int] | None = None):
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if a < 1:
            raise ValueError("extension degree must be >= 1")
        if p ** a > MAX_Q:
            raise ValueError(f"q = {p ** a} exceeds supported table size {MAX_Q}")
        if modulus is None and a == 1:
            modulus = (0, 1)
        else:
            # the moduli are the monic irreducibles of degree a over the prime field
            prime = FieldSpec(p)
            if modulus is None:
                first = next(f for f in enumerate_monic(prime, a) if prime.is_irreducible(f))
                modulus = first.index_coeffs()
            else:
                modulus = tuple(int(c) % p for c in modulus)
                if len(modulus) != a + 1 or modulus[-1] != 1:
                    raise ValueError("modulus must be monic of degree a")
                if not prime.is_irreducible(Polynomial(prime, modulus)):
                    raise ValueError("modulus is reducible over GF(p)")
        self.p = p
        self.a = a
        self.q = p ** a
        self.modulus: tuple[int, ...] = tuple(modulus)
        self._build_tables()
        self._irreducibles: dict[int, tuple["Polynomial", ...]] = {}

    # -- construction ------------------------------------------------------

    def _build_tables(self) -> None:
        p, a = self.p, self.a
        weights = [p ** j for j in range(a)]
        # coords[x] = power-basis coordinates of the element with index x
        coords = np.array([c[::-1] for c in itertools.product(range(p), repeat=a)], dtype=np.int32)

        def index(coord):
            """Table of element indices from a function giving coordinate j of each entry."""
            return sum(coord(j) % p * weights[j] for j in range(a))

        # basis[i][z] = coordinates of y^i * z: shift up one place and fold
        # y^a back in with y^a = -(m_0 + m_1 y + ... + m_{a-1} y^(a-1))
        basis = [coords]
        for _ in range(a - 1):
            prev = basis[-1]
            shifted = np.zeros_like(prev)
            shifted[:, 1:] = prev[:, :-1]
            basis.append((shifted - prev[:, -1:] * np.array(self.modulus[:a])) % p)
        # rows x of the tables by the digits of x: for x = x' + d p^j with
        # x' < p^j, x + z = (x' + z) + d y^j and x * z = x' * z + d (y^j z),
        # one row gather per block of p^j rows
        add = np.zeros((self.q, self.q), dtype=np.uint8)
        add[0] = np.arange(self.q)
        mul = np.zeros_like(add)
        digits = [(weights[j], d, j) for j in range(a) for d in range(1, p)]
        for step, d, j in digits:
            plus = index(lambda i: coords[:, i] + d * (i == j))  # z -> z + d y^j
            add[d * step:(d + 1) * step] = plus[add[:step]]
        for step, d, j in digits:
            times = index(lambda i: d * basis[j][:, i])  # z -> d (y^j z)
            mul[d * step:(d + 1) * step] = add[mul[:step], times]
        neg = index(lambda j: p - coords[:, j])
        self.add_table = add
        self.sub_table = add[:, neg]
        self.mul_table = mul

        self._by_index = tuple(FqElement(tuple(c), i) for i, c in enumerate(coords.tolist()))
        self.elements: tuple[FqElement, ...] = tuple(sorted(self._by_index, key=lambda e: e.coeffs))
        # index of the element at each position of the element order
        self._index_at = np.array([e.index for e in self.elements], dtype=np.uint8)
        self.zero = self._by_index[0]
        self.one = self._by_index[1]
        # nested-list views for scalar arithmetic, never written to
        self._add_i = add.tolist()
        self._sub_i = self.sub_table.tolist()
        self._mul_i = mul.tolist()
        self._neg_i = tuple(neg.tolist())
        self._inv_i = (None, *(row.index(1) for row in self._mul_i[1:]))

    # -- element access ------------------------------------------------------

    def element(self, value) -> FqElement:
        """Coerce an index, coordinate sequence, or element into this field."""
        if isinstance(value, FqElement):
            return self._by_index[value.index]
        if isinstance(value, int):
            if not 0 <= value < self.q:
                raise ValueError(f"element index {value} out of range for GF({self.q})")
            return self._by_index[value]
        coords = tuple(int(c) % self.p for c in value)
        if len(coords) != self.a:
            raise ValueError("coordinate vector has wrong length")
        return self._by_index[sum(c * self.p ** i for i, c in enumerate(coords))]

    # -- arithmetic ----------------------------------------------------------

    def add(self, x: FqElement, y: FqElement) -> FqElement:
        return self._by_index[self._add_i[x.index][y.index]]

    def sub(self, x: FqElement, y: FqElement) -> FqElement:
        return self._by_index[self._sub_i[x.index][y.index]]

    def mul(self, x: FqElement, y: FqElement) -> FqElement:
        return self._by_index[self._mul_i[x.index][y.index]]

    def neg(self, x: FqElement) -> FqElement:
        return self._by_index[self._neg_i[x.index]]

    def inv(self, x: FqElement) -> FqElement:
        i = self._inv_i[x.index]
        if i is None:
            raise ZeroDivisionError(f"inversion of zero in GF({self.q})")
        return self._by_index[i]

    def monic_irreducibles(self, d: int) -> tuple["Polynomial", ...]:
        """All monic irreducible polynomials of degree d, cached, in order."""
        if d not in self._irreducibles:
            self._irreducibles[d] = tuple(f for f in enumerate_monic(self, d) if self.is_irreducible(f))
        return self._irreducibles[d]

    def is_irreducible(self, f: "Polynomial") -> bool:
        """Whether f has degree >= 1 and no monic irreducible factor of degree <= deg(f)/2."""
        d = f.degree
        return d is not None and d >= 1 and all(
            not (f % g).is_zero for dd in range(1, d // 2 + 1) for g in self.monic_irreducibles(dd)
        )

    # -- polynomial rows -----------------------------------------------------
    #
    # A polynomial row is a uint8 array of index coefficients, constant term
    # first; a 2-d array holds one polynomial per row, all of one width.

    def monic_rows(self, d: int, prefix: tuple[int, ...] = ()) -> np.ndarray:
        """Rows of the monic degree-d polynomials whose first coefficients are
        the elements at positions `prefix` of the element order, in
        `enumerate_monic` order."""
        free = d - len(prefix)
        pos = np.empty((self.q ** free, d), dtype=np.uint8)
        pos[:, :len(prefix)] = prefix
        grid = np.indices((self.q,) * free, dtype=np.uint8)
        pos[:, len(prefix):] = grid.reshape(free, len(pos)).T
        return np.column_stack([self._index_at[pos], np.ones(len(pos), dtype=np.uint8)])

    def monic_row_blocks(self, d: int, max_rows: int) -> Iterator[np.ndarray]:
        """`monic_rows(d)` in `enumerate_monic` order, in blocks of at most
        max_rows rows (each block fixes a prefix of the low coefficients)."""
        free = d
        while self.q ** free > max_rows:
            free -= 1
        for prefix in itertools.product(range(self.q), repeat=d - free):
            yield self.monic_rows(d, prefix)

    def mul_rows(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Row-wise products A_i * B_i of two arrays with the same number of rows."""
        width = B.shape[1]
        prod = np.zeros((len(A), A.shape[1] + width - 1), dtype=np.uint8)
        for j in range(A.shape[1]):
            prod[:, j:j + width] = self.add_table[prod[:, j:j + width], self.mul_table[A[:, j:j + 1], B]]
        return prod

    def mod_rows(self, rows: np.ndarray, mod: tuple[int, ...]) -> np.ndarray:
        """Rows reduced modulo the monic `mod` (index coefficients): deg(mod) columns."""
        s = len(mod) - 1
        width = rows.shape[1]
        rem = np.zeros((len(rows), max(width, s)), dtype=np.uint8)
        rem[:, :width] = rows
        times_mod = self.mul_table[:, list(mod[:-1])]  # times_mod[c] = c * (m_0..m_{s-1})
        for i in range(width - 1, s - 1, -1):
            rem[:, i - s:i] = self.sub_table[rem[:, i - s:i], times_mod[rem[:, i]]]
        return rem[:, :s]

    def eval_rows(self, rows: np.ndarray, points) -> np.ndarray:
        """Values of the rows' polynomials at the elements with indices
        `points`, by Horner's rule from the leading column down: (R, n) uint8."""
        points = np.asarray(points, dtype=np.intp)
        vals = np.zeros((len(rows), len(points)), dtype=np.uint8)
        for c in rows.T[::-1]:
            vals = self.add_table[self.mul_table[vals, points], c[:, None]]
        return vals

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.a == other.a
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.a, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Dense polynomial over a FieldSpec; coeffs[i] multiplies x^i."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: Iterable = ()):
        cs = [c if isinstance(c, FqElement) else spec.element(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.spec = spec
        self.coeffs: tuple[FqElement, ...] = tuple(cs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Polynomial":
        return cls(spec)

    @classmethod
    def one(cls, spec: FieldSpec) -> "Polynomial":
        return cls(spec, (spec.one,))

    @classmethod
    def x(cls, spec: FieldSpec) -> "Polynomial":
        return cls(spec, (spec.zero, spec.one))

    @classmethod
    def monomial(cls, spec: FieldSpec, d: int, coeff: FqElement | None = None) -> "Polynomial":
        c = spec.one if coeff is None else coeff
        return cls(spec, (spec.zero,) * d + (c,))

    @classmethod
    def from_text(cls, spec: FieldSpec, text: str) -> "Polynomial":
        """Parse "x^3 + 2*x + 1"; coefficients are element indices."""
        s = text.replace(" ", "").replace("-", "+-")
        if not s:
            raise ValueError("empty polynomial text")
        coeffs: dict[int, FqElement] = {}
        for term in s.split("+"):
            if not term:
                continue
            negate = term.startswith("-")
            if negate:
                term = term[1:]
            if "x" in term:
                head, _, tail = term.partition("x")
                coeff = spec.one if head in ("", "*") else spec.element(int(head.rstrip("*")))
                power = 1 if not tail else int(tail.lstrip("^"))
            else:
                coeff = spec.element(int(term))
                power = 0
            if negate:
                coeff = spec.neg(coeff)
            coeffs[power] = spec.add(coeffs.get(power, spec.zero), coeff)
        out = [spec.zero] * (max(coeffs) + 1)
        for pw, c in coeffs.items():
            out[pw] = c
        return cls(spec, out)

    @classmethod
    def from_json(cls, data: dict) -> "Polynomial":
        spec = FieldSpec(int(data["p"]), int(data.get("a", 1)))
        return cls(spec, [int(c) for c in data["coeffs"]])

    # -- structure -----------------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.spec.one

    @property
    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.spec.one

    def coefficient(self, j: int) -> FqElement:
        """Coefficient of x^j (zero beyond the degree)."""
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return self.spec.zero

    def index_coeffs(self) -> tuple[int, ...]:
        return tuple(c.index for c in self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.spec != other.spec:
            raise ValueError("polynomials over different fields")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        sp = self.spec
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(sp, [sp.add(self.coefficient(i), other.coefficient(i)) for i in range(n)])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        sp = self.spec
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(sp, [sp.sub(self.coefficient(i), other.coefficient(i)) for i in range(n)])

    def __neg__(self) -> "Polynomial":
        sp = self.spec
        return Polynomial(sp, [sp.neg(c) for c in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        sp = self.spec
        if self.is_zero or other.is_zero:
            return Polynomial(sp)
        out = [sp.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci.is_zero:
                continue
            for j, cj in enumerate(other.coeffs):
                out[i + j] = sp.add(out[i + j], sp.mul(ci, cj))
        return Polynomial(sp, out)

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        sp = self.spec
        dg = len(other.coeffs) - 1
        inv_lead = sp.inv(other.coeffs[-1])
        rem = list(self.coeffs)
        quot = [sp.zero] * max(len(rem) - dg, 0)
        for i in range(len(rem) - 1, dg - 1, -1):
            c = sp.mul(rem[i], inv_lead)
            if c.is_zero:
                continue
            quot[i - dg] = c
            for j in range(dg + 1):
                rem[i - dg + j] = sp.sub(rem[i - dg + j], sp.mul(c, other.coeffs[j]))
        return Polynomial(sp, quot), Polynomial(sp, rem[:dg])

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("the zero polynomial has no monic associate")
        sp = self.spec
        inv_lead = sp.inv(self.coeffs[-1])
        return Polynomial(sp, [sp.mul(c, inv_lead) for c in self.coeffs])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor."""
        self._check(other)
        f, g = self, other
        if f.is_zero and g.is_zero:
            raise ValueError("gcd(0, 0) is undefined")
        while not g.is_zero:
            f, g = g, f % g
        return f.monic()

    def __call__(self, alpha: FqElement) -> FqElement:
        sp = self.spec
        acc = sp.zero
        for c in reversed(self.coeffs):
            acc = sp.add(sp.mul(acc, alpha), c)
        return acc

    def reciprocal(self) -> "Polynomial":
        """x^deg(f) * f(1/x): the coefficient-reversed polynomial."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no reciprocal")
        return Polynomial(self.spec, tuple(reversed(self.coeffs)))

    # -- identity and formatting ----------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.coeffs))

    def to_text(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            v = self.coeffs[d].index
            if v == 0:
                continue
            if d == 0:
                terms.append(str(v))
            else:
                xpart = "x" if d == 1 else f"x^{d}"
                terms.append(xpart if v == 1 else f"{v}*{xpart}")
        return " + ".join(terms)

    def to_json(self) -> dict:
        return {"p": self.spec.p, "a": self.spec.a, "coeffs": list(self.index_coeffs())}

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r})"


# ---------------------------------------------------------------------------
# Enumeration and root counting
# ---------------------------------------------------------------------------

def enumerate_monic(spec: FieldSpec, d: int) -> Iterator[Polynomial]:
    """All q^d monic polynomials of degree d, lexicographic in
    (coeff of x^0, ..., coeff of x^(d-1)) under the element order."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    for low in itertools.product(spec.elements, repeat=d):
        yield Polynomial(spec, (*low, spec.one))


def enumerate_below_degree(spec: FieldSpec, k: int) -> Iterator[Polynomial]:
    """All q^k polynomials of degree < k (the zero polynomial included)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    for cs in itertools.product(spec.elements, repeat=k):
        yield Polynomial(spec, cs)


def distinct_roots_in(f: Polynomial, points: Iterable[FqElement]) -> int:
    """Number of alpha in `points` with f(alpha) = 0; multiplicity ignored."""
    if f.is_zero:
        raise ValueError("root counting requires a nonzero polynomial")
    zero = f.spec.zero
    return sum(1 for alpha in points if f(alpha) == zero)


def zeros_of(f: Polynomial) -> tuple[FqElement, ...]:
    """The roots of f in the base field, in element order."""
    if f.is_zero:
        return f.spec.elements
    zero = f.spec.zero
    return tuple(alpha for alpha in f.spec.elements if f(alpha) == zero)
