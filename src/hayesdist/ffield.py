"""Exact arithmetic in GF(p^a) and for dense polynomials over it.

Field elements are coordinate vectors in the power basis of a stored monic
irreducible modulus m(y), so GF(p^a) = GF(p)[y]/(m(y)).  Every element of a
field is interned: arithmetic returns the one canonical object per value,
which keeps equality, hashing and the enumeration loops cheap.  The dense
q x q add/sub/mul tables are built once, as q `bytes` rows each, by a digit
recurrence that `bytes.translate` runs at C speed: the add row of x is the
add row of x - p^j translated by z -> z + y^j (p^j the top digit weight of
x); the mul row of x grows over the digits of z, x (z' + c y^i) =
x z' + c (x y^i), one translate of the row so far per block, with x y^i
from a "times y" map that folds the top digit back in with the modulus; the
sub row of x is the add row of -x translated by the negation map.  Each
table is one `bytes` buffer, and scalar arithmetic indexes memoryview rows
of it.  `FieldSpec(p, a, modulus)` returns one shared field per argument
triple, so the tables are built once per process.

The same tables drive the package's one array polynomial kernel: blocks of
polynomials as uint8 rows of index coefficients, with `FieldSpec.monic_rows`
(enumeration), `mul_rows` (row-wise products), `mod_rows` (remainders) and
`eval_rows` (Horner evaluation at a vector of points).  Its enumeration
form, `monic_blocks`, forms no rows: it gives the zero counts at a vector
of points, the residues mod a monic modulus and the leading digits of all
monic polynomials of one degree, by prefix extension from a table of
their high parts, at O(n + deg mod + ell) lookups per polynomial.  The
kernel reads `add_table`, `sub_table` and `mul_table`: read-only numpy
views of the tables' buffers, made without a copy on first use.  Numpy is
imported only there, in the view properties and in the row kernel, so
scalar work (the tables, `Polynomial`, factoring Q and Phi_j(Q)) never
loads it.  `Polynomial` is the object-level form the kernel is tested
against.

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
search skips the candidates with a zero constant term, which x divides, and
stops at the first irreducible.  Irreducibility is trial division by the monic
irreducibles of degree at most a/2, in the same `Polynomial` arithmetic as
everything else (``(0, 1)`` when a = 1), and an explicit modulus must pass
that one test.

A modulus Q of a Hayes class group is factored one way: one distinct-degree
factorization pass per Q (`_ddf`), which keeps the product g_i of the
distinct factors of each degree i and lists no irreducible.  Phi_j(Q), the
number of monic degree-j polynomials coprime to Q (`phi`), reads only the
factor degrees; `distinct_irreducible_factors`, which the class group's unit
mask needs, splits each g_i that holds more than one factor.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

MAX_Q = 256  # lookup tables are dense q x q; full-enumeration work stays far below this


def _view(data: bytes, *shape: int) -> np.ndarray:
    """A read-only uint8 array over the bytes of `data`, without a copy."""
    import numpy as np

    return np.frombuffer(data, dtype=np.uint8).reshape(shape)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the first 12 primes as bases: deterministic, and exact
    for n < 3.18 * 10^23 (Jiang and Deng 2014), far above the 2^64 that
    `regimes` admits."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for a in bases:
        if n % a == 0:
            return n == a
    s, d = 0, n - 1
    while d % 2 == 0:
        s, d = s + 1, d // 2
    for a in bases:
        x = pow(a, d, n)
        if x not in (1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# Elements and the field
# ---------------------------------------------------------------------------

class FqElement:
    """A field element: coordinates in the power basis, plus its table index.

    Comparison (and the enumeration order) is lexicographic on `coeffs`, and
    the hash is that of ``(coeffs,)``; `index` is excluded from both but
    always consistent with them.  Elements are read-only.
    """

    __slots__ = ("coeffs", "index")

    def __init__(self, coeffs: tuple[int, ...], index: int):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "index", index)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def is_zero(self) -> bool:
        return self.index == 0

    def __eq__(self, other):
        return self.coeffs == other.coeffs if other.__class__ is FqElement else NotImplemented

    def __lt__(self, other):
        return self.coeffs < other.coeffs if other.__class__ is FqElement else NotImplemented

    def __le__(self, other):
        return self.coeffs <= other.coeffs if other.__class__ is FqElement else NotImplemented

    def __gt__(self, other):
        return self.coeffs > other.coeffs if other.__class__ is FqElement else NotImplemented

    def __ge__(self, other):
        return self.coeffs >= other.coeffs if other.__class__ is FqElement else NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

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
                # x divides every candidate with a zero constant term (a >= 2)
                first = next(
                    f for f in enumerate_monic(prime, a) if not f.coeffs[0].is_zero and prime.is_irreducible(f)
                )
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
        p, a, q = self.p, self.a, self.q
        weights = [p ** j for j in range(a)]
        pad = bytes(256 - q)  # a translate table maps all 256 byte values
        # step[j] maps z to z + y^j: digit j of the index up by one, mod p
        step = [bytes(z - (p - 1) * w if z // w % p == p - 1 else z + w for z in range(q)) + pad for w in weights]
        # add row x from add row x - p^j, p^j the top digit weight of x:
        # x + z = (x - y^j) + (z + y^j), one translate per row
        add = [bytes(range(q))]
        for j, w in enumerate(weights):
            for x in range(w, w * p):
                add.append(add[x - w].translate(step[j]))
        add_map = [row + pad for row in add]  # add_map[c] maps z to c + z
        neg = bytes(row.index(0) for row in add)
        neg_map = neg + pad
        sub = [add[n].translate(neg_map) for n in neg]  # x - z = -(-x + z)
        # times_y[z] = y z: the digits shifted up one place, with the top
        # digit c folded back in as c y^a = -c (m_0 + m_1 y + ... + m_{a-1} y^(a-1))
        top = weights[-1]
        fold = [sum((-c * m) % p * w for m, w in zip(self.modulus, weights)) for c in range(p)]
        times_y = [add[z % top * p][fold[z // top]] for z in range(q)]
        # row x by the digits of z: with z = z' + c y^i, z' < p^i,
        # x z = x z' + c (x y^i), one translate of the row so far per block
        mul = []
        for x in range(q):
            row, w = b"", x  # row holds x z for z < p^i; w = x y^i
            for _ in range(a):
                cw = [0]  # c w for c = 0..p-1
                for _ in range(p - 1):
                    cw.append(add[cw[-1]][w])
                # at i = 0 the row is x c = c w for the c < p themselves
                row = b"".join([row.translate(add_map[c]) for c in cw]) if row else bytes(cw)
                w = times_y[w]
            mul.append(row)
        self._inv_i = (None, *(row.index(1) for row in mul[1:]))
        self._neg_i = neg

        def rows(table):
            """One bytes buffer of the q rows, and its rows as memoryviews."""
            data = b"".join(table)
            view = memoryview(data)
            return data, tuple(view[x * q:(x + 1) * q] for x in range(q))

        self._add, self._add_i = rows(add)
        self._sub, self._sub_i = rows(sub)
        self._mul, self._mul_i = rows(mul)

        self._by_index = tuple(
            FqElement(c[::-1], i) for i, c in enumerate(itertools.product(range(p), repeat=a))
        )
        self.elements: tuple[FqElement, ...] = tuple(sorted(self._by_index, key=lambda e: e.coeffs))
        self._order = bytes(e.index for e in self.elements)
        self.zero = self._by_index[0]
        self.one = self._by_index[1]

    # -- numpy views, for the row kernel ---------------------------------------

    @functools.cached_property
    def add_table(self) -> np.ndarray:
        """q x q uint8 table of x + z: a read-only view of the add rows' buffer."""
        return _view(self._add, self.q, self.q)

    @functools.cached_property
    def sub_table(self) -> np.ndarray:
        """q x q uint8 table of x - z: a read-only view of the sub rows' buffer."""
        return _view(self._sub, self.q, self.q)

    @functools.cached_property
    def mul_table(self) -> np.ndarray:
        """q x q uint8 table of x * z: a read-only view of the mul rows' buffer."""
        return _view(self._mul, self.q, self.q)

    @functools.cached_property
    def _index_at(self) -> np.ndarray:
        """Index of the element at each position of the element order."""
        return _view(self._order, self.q)

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
        import numpy as np

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

    def monic_blocks(
        self, d: int, points, mod: tuple[int, ...], ell: int, max_rows: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The monic degree-d polynomials f in `enumerate_monic` order, in
        blocks of at most max_rows, each block as three arrays with one
        column per polynomial: how many of the elements with indices `points`
        are zeros of f (R), the coefficients of f modulo the monic `mod`
        (index coefficients; deg mod rows of R, uint8) and f's leading
        digits, the coefficients of x^(d-1), ..., x^(d-ell), zero below x^0
        (ell rows of R, uint8).  No row of coefficients is formed.

        Each f is low + x^s g with g monic of degree F, the largest F <= d
        with q^F <= max_rows, and deg low < s = d - F; a block holds the g's
        of max_rows // q^F consecutive lows (fewer in the last block), which
        `enumerate_monic` lists together.  A table of the
        g's (values at the points, residues, digits) is built degree by
        degree, g = c + x h from the table of the h's, and then multiplied by
        x^s once: values times alpha^s, residues times x mod `mod` s times.
        A block compares the table's values with -low(alpha) for each of its
        lows, adds each low's residue to the table's, and takes the digits of
        x^(F+1)..x^ell from the lows: O(n + deg mod + ell) operations per
        polynomial, in a bounded number of array operations per block."""
        import numpy as np

        q = self.q
        add, sub, mul = self.add_table, self.sub_table, self.mul_table
        order = self._index_at  # element indices in element order
        pts = np.asarray(points, dtype=np.intp)
        n, t = len(pts), len(mod) - 1
        mod_low = np.array(mod[:-1], dtype=np.intp)[:, None]  # m_0..m_{t-1}, one per residue digit

        def times_x(res: np.ndarray) -> np.ndarray:
            """x * res mod `mod`: the digits shifted up, the top one folded back."""
            if not t:
                return res
            out = np.zeros_like(res)
            out[1:] = res[:-1]
            return sub[out, mul[mod_low, res[-1]]]

        F = 0
        while F < d and q ** (F + 1) <= max_rows:
            F += 1
        vals = np.ones((n, 1), dtype=np.uint8)  # the polynomial 1
        res = np.zeros((t, 1), dtype=np.uint8)
        res[:1] = 1
        lead = np.zeros((ell, 1), dtype=np.uint8)
        for e in range(1, F + 1):
            # g = c + x h, c slowest in element order, h over the last table
            rows = vals.shape[1]
            const = np.repeat(order, rows)
            vals = add[order[:, None], mul[pts[:, None], vals][:, None, :]].reshape(n, q * rows)
            res = np.tile(times_x(res), q)
            res[:1] = add[const, res[:1]]
            lead = np.tile(lead, q)  # digit j of g is digit j of h for j < e
            if e <= ell:
                lead[e - 1] = const
        s = d - F
        if s:
            power = np.ones(n, dtype=np.uint8)  # alpha^s at each point
            for _ in range(s):
                power = mul[power, pts]
                res = times_x(res)
            vals = mul[power[:, None], vals]
        rows = vals.shape[1]
        prefixes = itertools.product(range(q), repeat=s)
        while chunk := list(itertools.islice(prefixes, max(1, max_rows // rows))):
            low = order[np.array(chunk, dtype=np.intp).reshape(len(chunk), s)]  # row i: coefficients of x^0..x^(s-1)
            m = len(low)
            at = np.zeros((m, n), dtype=np.uint8)
            for c in low.T[::-1]:
                at = add[mul[at, pts], c[:, None]]
            block_res = add[self.mod_rows(low, mod).T[:, :, None], res[:, None, :]].reshape(t, m * rows)
            block_lead = np.tile(lead, m)
            for j in range(F + 1, min(ell, d) + 1):
                block_lead[j - 1] = np.repeat(low[:, d - j], rows)
            # f(alpha) = 0 where (x^s g)(alpha) = -low(alpha)
            zeros = (vals[:, None, :] == sub[0, at].T[:, :, None]).sum(axis=0)
            yield zeros.reshape(m * rows), block_res, block_lead

    def mul_rows(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Row-wise products A_i * B_i of two arrays with the same number of rows."""
        import numpy as np

        width = B.shape[1]
        prod = np.zeros((len(A), A.shape[1] + width - 1), dtype=np.uint8)
        for j in range(A.shape[1]):
            prod[:, j:j + width] = self.add_table[prod[:, j:j + width], self.mul_table[A[:, j:j + 1], B]]
        return prod

    def mod_rows(self, rows: np.ndarray, mod: tuple[int, ...]) -> np.ndarray:
        """Rows reduced modulo the monic `mod` (index coefficients): deg(mod) columns."""
        import numpy as np

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
        import numpy as np

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


def distinct_roots_in(f: Polynomial, points: Iterable[FqElement]) -> int:
    """Number of alpha in `points` with f(alpha) = 0; multiplicity ignored."""
    if f.is_zero:
        raise ValueError("root counting requires a nonzero polynomial")
    zero = f.spec.zero
    return sum(1 for alpha in points if f(alpha) == zero)


# ---------------------------------------------------------------------------
# Factoring Q and Phi_j(Q)
# ---------------------------------------------------------------------------

@functools.cache
def _ddf(Q: Polynomial) -> tuple[tuple[int, Polynomial], ...]:
    """Distinct-degree factorization of Q, computed once per Q: pairs
    (i, g_i), i ascending, with g_i != 1 the product of the distinct monic
    irreducible factors of Q of degree i.

    With h = x^(q^i) mod rem, gcd(rem, h - x) is the product of the distinct
    factors of rem of degree dividing i; those of smaller degree are already
    stripped from rem, so it is g_i.  Each g_i is stripped from rem completely
    (repeated factors too), and h stays valid modulo the new rem, which
    divides the old one.  Once deg rem < 2(i+1), rem has no factor of degree
    <= i, so it is 1 or one irreducible, the last pair (deg rem, rem)."""
    spec = Q.spec
    x = Polynomial.x(spec)
    out = []
    rem = Q
    h = x
    i = 0
    while 2 * (i + 1) <= rem.degree:
        i += 1
        h = _power_mod(h, spec.q, rem)
        g = rem.gcd(h - x)
        if g.degree:
            out.append((i, g))
        while g.degree:
            rem = rem // g
            g = rem.gcd(g)
        h = h % rem
    if rem.degree >= 1:
        out.append((rem.degree, rem))
    return tuple(out)


def _factor_degrees(Q: Polynomial) -> tuple[int, ...]:
    """Degrees of the distinct monic irreducible factors of Q, ascending."""
    return tuple(i for i, g in _ddf(Q) for _ in range(g.degree // i))


def distinct_irreducible_factors(Q: Polynomial) -> tuple[Polynomial, ...]:
    """Distinct monic irreducible factors of Q, by degree, split from `_ddf`.

    A product g_i of degree i is one factor.  Otherwise every factor of g_i
    has degree i, so each monic degree-i divisor of g_i is one of them: they
    are listed in `enumerate_monic` order, by trial division of g_i that
    stops at the deg(g_i)/i-th, which arises only when 2i <= deg Q."""
    if not Q.is_monic:
        raise ValueError("Q must be monic")
    out = []
    for i, g in _ddf(Q):
        if g.degree == i:
            out.append(g)
        else:
            divisors = (f for f in enumerate_monic(Q.spec, i) if (g % f).is_zero)
            out += itertools.islice(divisors, g.degree // i)
    return tuple(out)


def _power_mod(h: Polynomial, e: int, m: Polynomial) -> Polynomial:
    """h^e mod m by repeated squaring."""
    out = Polynomial.one(h.spec) % m
    while e:
        if e & 1:
            out = out * h % m
        h = h * h % m
        e >>= 1
    return out


def phi(j: int, Q: Polynomial) -> int:
    """Number of monic degree-j polynomials coprime to Q: sum_i c_i q^(j-i),
    where sum_i c_i z^i is the product over the distinct irreducible factors
    P of Q of (1 - z^deg P), truncated at z^j (inclusion-exclusion, one
    factor at a time).  It needs only the degrees of the factors
    (`_factor_degrees`), never the factors themselves."""
    if j < 0:
        raise ValueError("degree must be >= 0")
    if not Q.is_monic:
        raise ValueError("Q must be monic")
    q = Q.spec.q
    c = [1] + [0] * j
    for deg in _factor_degrees(Q):
        for i in range(j, deg - 1, -1):
            c[i] -= c[i - deg]
    return sum(ci * q ** (j - i) for i, ci in enumerate(c))


def phi_relative_gap(j: int, Q: Polynomial) -> Fraction:
    """|Phi_j(Q)/q^j - 1| as an exact rational (bounded by sum over factors of q^-d_i)."""
    from fractions import Fraction

    q = Q.spec.q
    return abs(Fraction(phi(j, Q), q ** j) - 1)
