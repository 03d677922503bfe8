"""Exact zero-count distributions in Hayes classes, moment identities,
group-algebra series checks, and Reed-Solomon distance rows.

Sieve engine (the primary route).  Fix a class eps, the degree
d = k + t + ell and a point set D of size n; Y counts the zeros in D of a
monic degree-d member of eps, and W_j(eps) counts the pairs (f, S) of a
member f and a j-subset S of D on which f vanishes.  Inclusion-exclusion
over the factorial-moment counts W_j gives

    q^k P(Y = r) = sum_{j=r}^{min(n,d)} (-1)^(j-r) C(j, r) W_j(eps).

For j <= k the j vanishing conditions are independent linear conditions
on the q^k members, so W_j = C(n, j) q^(k-j) in every class.  For j > k
each such f is g * prod_{a in S} (x - a) with g monic of degree d - j, so

    W_j(eps) = sum_c S_j(c) N_(d-j)(eps c^-1),

where S_j(c) counts the j-subsets of D whose product of (x - a) lies in
class c, and N_e counts monic degree-e polynomials per class.  Here
e < t + ell, and a class holds at most one polynomial of such a degree, so
N_e has Phi_e(Q) nonzero entries.  S_j depends on neither d nor k, so
`moment_rows` forms the rows of every run (d, j_lo) of a command at once.
A row whose class counts are one constant c (Phi_(d-j)(Q) = 0, or
d - j >= t + ell in the series check) is the closed form C(n, j) c; one call
of one of two engines forms all the others (`_transformed_rows`, which both
cost formulas count):

* the DP ("sieve"): a dynamic programme that gathers the band of those
  rows, from their lowest j to their highest, at i <x - a>^-1 once per
  point (`ClassGroup.quotients`, its one group primitive, made for a block
  of points at once), at most n * (min(n, d) + 1) * |G| DP cells, then |G|
  per nonzero N_e entry for the group-algebra product of each row
  (`moment_work`); `group_convolve` gathers a block of quotients at once
  and sums them in int64 where no sum can reach 2^63;
* the transform ("transform", `hayesdist.transform`, imported only when it
  runs): one transform of the point classes gives the power sums of the
  point characters, Newton's identities (an order-N recurrence past the
  group exponent N) their elementary symmetric functions S^_j, once for
  every row at that j, and one inverse transform of S^_j N^_(d-j) per row
  gives W_j, modulo primes P = 1 (mod N) in (2^24, 2^25) joined by CRT;
  primes * |G| * (sum of axis sizes * transforms + j_hi min(N, j_hi))
  cells, j_hi the highest row (`transform_work`).

`moment_plan` is the one planner: over the runs of a command it counts both
engines' cells for the one run, picks the engine with fewer (the DP on a
tie), checks its cells against the budget under its own name before any row
is formed, and returns the artifact's `engine` and `work`.  `sieve_plan` is
its form for the `sieve_rows` runs at a list of k, so a command that runs
several k refuses on the cells it reports.  Both engines stay, since
neither serves the paper's regime t <= sqrt(q) alone (transform figures
with the exponent cap lifted): at q = 27, Q an irreducible cubic,
ell = k = 0, the transform counts 1.07e8 cells, over the default budget,
for a call the DP runs in 1.6e7; at q = 2, Q irreducible of degree 13 (a
prime axis of 8191), `exact-dist --ell 0 --k 0` takes 1.4-1.7 s and 33 MB on
the DP and 4.4 s and 2.1 GB on the transform; at q = 243, ell = 1, k = 2 the
transform counts 13122 cells where the DP counts 175932.

Either way the work is polynomial in q, where enumeration costs
|G| * q^k * n comparisons.  Counts are Python integers (numpy object
arrays).

Enumeration oracle.  The monic degree-d members of a class are exactly
base + h*Q where base is any one member and h runs over all q^k
polynomials of degree < k (adding h*Q changes neither the leading
coefficients nor the residue).  For alpha with Q(alpha) != 0,

    (base + h*Q)(alpha) = 0   iff   h(alpha) = -base(alpha) / Q(alpha),

so the zero count of a member over D equals the number of positions where
h's evaluation vector agrees with a fixed target vector.  The oracle
compares the evaluation vector of every one of the q^k polynomials h with
the target of every class, in one array pass over all classes: the
evaluation vectors of the low coefficients of h form one shared block,
each high-coefficient evaluation vector e shifts the targets instead
(low + e agrees with t exactly where low agrees with t - e), and the
agreement counts of a block of targets against the low block (a bounded
number of cells) are histogrammed by one `bincount`.  Its work is the
|G| * q^k * n comparisons of `enumeration_comparisons`, and its budget
counts them.  It uses neither the sieve nor group arithmetic, and it feeds
`moments-check` and the tests only.  Under the sieve the j <= k moment
identities hold by construction, so `moments-check` measures
q^k E[C(Y, j)] on the oracle and compares it with C(n, j) q^(k-j) for
j <= k and with the W_j rows of `sieve_rows` for j > k: the identity is
checked on the rows that the other commands print.  The series check's
moment slice compares its joint (class, zero count) table with W_j rows of
`moment_rows`, the function behind `sieve_rows`.  The remainder suites of
`bounds-check` read the sieve's rows too: their bounds come from Weil sums
and cycle averages, which the sieve does not use.  A plain object-level
brute force over all of M_d, a third independent route, lives in the
tests.

`factorization_counts` enumerates the pairs (g, S) behind W_j, a second
route to the sieve's rows that no command calls: the tests compare the
rows with it.  It and the oracle's target vectors run on the field's row
kernel (`FieldSpec.monic_rows` / `mul_rows` / `eval_rows`): every product
is formed, labelled with `ClassGroup.classes_of` and evaluated explicitly,
a block of at most _BLOCK_ROWS rows at a time.  The series check's joint
table reads the monic-enumeration kernel through
`ClassGroup.monic_class_blocks`: each monic f of degree d is low + x^s g,
the g's of degree F (q^F <= `MONIC_BLOCK_ROWS`) are tabulated once (values
at the points, residues mod Q, leading digits), and a block of
consecutive low prefixes (up to `MONIC_BLOCK_ROWS` polynomials) costs
O(n + t + ell) lookups per polynomial, with no row of coefficients formed.
None of these routes touches the group multiplication, `group_convolve`,
the transform or the sieve.  The census word list (at most _CENSUS_WORDS
words) is labelled on the row kernel too, by one `ClassGroup.classes_of`
call on `FieldSpec.monic_rows`.

`moment_rows` is the one place where W_j is formed, by either engine: the
only caller of `subset_product_table`, of `group_convolve` (the one
group-algebra product) and of the transform.  `sieve_rows` calls it once
for all of its k, each run at j_lo = k + 1 on the group's class counts; the
series check calls it once for all of its degrees, each at j_lo = 1 on the
class counts of its own joint tables, and its product and moment slices
compare those rows with enumeration, so the check exercises the code that
the other commands run, with the engine that the same sizes pick there.

Counts are arbitrary-precision integers; probabilities are exact rationals.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

import numpy as np

from ._record import Record
from .errors import ValidationError, check_budget
from .ffield import FieldSpec, FqElement, Polynomial
from .hayes import MONIC_BLOCK_ROWS, ClassGroup, HayesParams, _prime_powers, phi

if TYPE_CHECKING:
    from fractions import Fraction

_BLOCK_ROWS = 1 << 16  # factorization product blocks: at most this many rows at once
_AGREEMENT_CELLS = 1 << 14  # oracle blocks: low evaluation vectors, (target, low row) agreement counts
_HISTOGRAM_CELLS = 1 << 16  # oracle blocks: (target, count) cells per histogram
_GATHER_ROWS = 16  # DP and group convolution: classes c gathered at once ...
_GATHER_CELLS = 1 << 14  # ... and (c, class) cells
_CENSUS_WORDS = 1 << 12  # rs census: received words listed only while q^(k+ell) is at most this


# ---------------------------------------------------------------------------
# Point sets
# ---------------------------------------------------------------------------

def default_point_set(params: HayesParams) -> tuple[FqElement, ...]:
    """D = { alpha : Q(alpha) != 0 }, in element order."""
    Q = params.Q
    zero = params.spec.zero
    return tuple(a for a in params.spec.elements if Q(a) != zero)


def _validated_points(params: HayesParams, points) -> tuple[FqElement, ...]:
    if points is None:
        return default_point_set(params)
    pts = tuple(sorted(set(points)))
    Q = params.Q
    zero = params.spec.zero
    for a in pts:
        if Q(a) == zero:
            raise ValidationError(f"point set contains a zero of Q: {a!r}")
    return pts


# ---------------------------------------------------------------------------
# The vectorized agreement kernel
# ---------------------------------------------------------------------------

def _agreement_histograms(
    spec: FieldSpec, k: int, point_idx: tuple[int, ...], targets: np.ndarray
) -> np.ndarray:
    """For every target row, histogram over all q^k polynomials h of degree < k
    of #{positions where h(point) == target}.  Returns (len(targets), n+1).

    h splits into a low part (the first j_low coefficients, with q^j_low at
    most _AGREEMENT_CELLS) and a high part.  The evaluation vectors of all low
    parts form one block, built once, as an (n, q^j_low) array.  For each
    high part, with evaluation vector e, low + e agrees with a target t
    exactly where low agrees with t - e, so the targets shifted by
    `sub_table` are compared with the shared low block.  A block of targets
    at a time, n compare-adds fill one (targets x low rows) array of
    agreement counts, laid out with the longer axis contiguous, and one
    offset `bincount` histograms it per target.  The agreement array holds
    at most _AGREEMENT_CELLS cells and the block's histogram at most
    _HISTOGRAM_CELLS."""
    q = spec.q
    n = len(point_idx)
    m = targets.shape[0]
    hists = np.zeros((m, n + 1), dtype=np.int64)
    if n == 0:
        hists[:, 0] = q ** k
        return hists
    add = spec.add_table
    mul = spec.mul_table
    pts = np.array(point_idx, dtype=np.intp)

    # pw[i] = indices of point^i for i = 0..k-1
    pw = np.zeros((max(k, 1), n), dtype=np.intp)
    pw[0] = 1  # index of the multiplicative identity
    for i in range(1, k):
        pw[i] = mul[pw[i - 1], pts]

    j_low = 0
    while j_low < k and q ** (j_low + 1) <= _AGREEMENT_CELLS:
        j_low += 1

    # low[:, row]: evaluation vector of one of the q^j_low combinations of c_0..c_{j_low-1}
    low = np.zeros((n, 1), dtype=np.uint8)
    coeff_vals = np.arange(q, dtype=np.intp)
    for i in range(j_low):
        contrib = mul[pw[i][:, None], coeff_vals[None, :]]  # (n, q)
        low = add[low[:, :, None], contrib[:, None, :]].reshape(n, -1)
    rows = low.shape[1]

    width = n + 1
    per_block = max(1, min(_AGREEMENT_CELLS // rows, _HISTOGRAM_CELLS // width))  # targets per block
    tgt = targets.T  # (n, m)
    count_type = np.min_scalar_type(n)
    for high in itertools.product(range(q), repeat=k - j_low):
        e = np.zeros(n, dtype=np.uint8)
        for offset, c in enumerate(high):
            if c:
                e = add[e, mul[c, pw[j_low + offset]]]
        for lo in range(0, m, per_block):
            shifted = spec.sub_table[tgt[:, lo:lo + per_block], e[:, None]]  # (n, targets)
            mb = shifted.shape[1]
            offsets = np.arange(mb) * width
            if rows >= mb:
                a, b, offsets = shifted, low, offsets[:, None]
            else:
                a, b = low, shifted
            agree = np.zeros((a.shape[1], b.shape[1]), dtype=count_type)
            for i in range(n):
                agree += a[i][:, None] == b[i]
            counts = np.bincount((agree + offsets).ravel(), minlength=mb * width)
            hists[lo:lo + mb] += counts.reshape(mb, width)
    return hists


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

class ZeroDistribution(Record):
    """Exact histogram of the number of distinct zeros in D over one class."""

    __slots__ = ("params", "eps", "k", "points", "counts", "total")

    def __init__(
        self, params: HayesParams, eps: int, k: int, points: tuple[FqElement, ...], counts: dict[int, int], total: int
    ):
        self.params = params
        self.eps = eps
        self.k = k
        self.points = points
        self.counts = counts
        self.total = total

    def probability(self, r: int) -> Fraction:
        from fractions import Fraction

        return Fraction(self.counts.get(r, 0), self.total)

    def to_json(self) -> dict:
        spec = self.params.spec
        return {
            "p": spec.p,
            "a": spec.a,
            "q": spec.q,
            "k": self.k,
            "ell": self.params.ell,
            "Q": self.params.Q.to_text(),
            "eps": self.eps,
            "counts": {str(r): str(c) for r, c in sorted(self.counts.items())},
            "total": str(self.total),
        }


class ZeroDistributions(Sequence):
    """The zero-count distributions of every class, read from one count
    matrix: `rows[r][eps]` is q^k P(Y = r) in class eps, a Python integer.

    Indexing and iteration make each class's `ZeroDistribution` when it is
    read, so |G| of them are never held at once.  `points` and `total` are
    those of every class; `json_records` streams the classes' `to_json`."""

    __slots__ = ("params", "k", "points", "rows", "total")

    def __init__(
        self, params: HayesParams, k: int, points: tuple[FqElement, ...], rows: list[list[int]], total: int
    ):
        self.params = params
        self.k = k
        self.points = points
        self.rows = rows
        self.total = total

    def __len__(self) -> int:
        return len(self.rows[0])

    def __getitem__(self, eps):
        if isinstance(eps, slice):
            return [self[i] for i in range(len(self))[eps]]
        eps = range(len(self))[eps]  # negative indices; IndexError past the end
        return self._distribution(eps, [row[eps] for row in self.rows])

    def __iter__(self):
        for eps, column in enumerate(zip(*self.rows)):
            yield self._distribution(eps, column)

    def _distribution(self, eps: int, column) -> ZeroDistribution:
        counts = {r: c for r, c in enumerate(column) if c}
        return ZeroDistribution(self.params, eps, self.k, self.points, counts, self.total)

    def json_records(self):
        """`ZeroDistribution.to_json` of every class in turn, each made as it
        is read."""
        return (d.to_json() for d in self)


ENUMERATION_COMPARISONS = "enumeration comparisons |G| q^k n"
FACTORIZATION_PAIRS = "factorization enumeration"


def enumeration_comparisons(group: ClassGroup, k: int, n: int) -> int:
    """Byte comparisons the enumeration oracle makes for all classes on n points."""
    return group.order * group.params.spec.q ** k * n


def enumeration_distributions_all(
    group: ClassGroup, k: int, points=None, budget: int | None = None
) -> ZeroDistributions:
    """Enumeration oracle: the zero-count distribution of every class at
    degree k + t + ell, by enumerating the q^k members of each class, read
    from its histograms."""
    params = group.params
    spec = params.spec
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    pts = _validated_points(params, points)
    check_budget(ENUMERATION_COMPARISONS, enumeration_comparisons(group, k, len(pts)), budget)
    point_idx = tuple(a.index for a in pts)
    # target of class eps at a: -base(a) / Q(a) for its member base
    scale = np.array([spec.neg(spec.inv(params.Q(a))).index for a in pts], dtype=np.intp)
    base = group.member_base_rows(k + params.t + params.ell)
    targets = spec.mul_table[spec.eval_rows(base, point_idx), scale]
    hists = _agreement_histograms(spec, k, point_idx, targets)
    d = k + params.t + params.ell  # no member has more than d zeros
    return ZeroDistributions(params, k, pts, hists[:, :d + 1].T.tolist(), spec.q ** k)


# ---------------------------------------------------------------------------
# The subset-product sieve
# ---------------------------------------------------------------------------

def _point_classes(group: ClassGroup, pts: tuple[FqElement, ...]) -> list[int]:
    """Class of x - a for every point a (points are never zeros of Q)."""
    spec = group.params.spec
    return group.classes_of([(spec.neg(a).index, 1) for a in pts]).tolist()


def _live_rows(n: int, j_lo: int, j_hi: int) -> list[tuple[int, int]]:
    """For each of n points in turn, the rows lo..hi of the subset-product
    table that the DP updates: row j fills once j points are seen, and it is
    needed only while the points still to come can lift it to j_lo.  A pair
    with lo > hi updates nothing; no pairs at all when j_lo > j_hi."""
    if j_lo > j_hi:
        return []
    return [(max(1, j_lo - (n - 1 - i)), min(i + 1, j_hi)) for i in range(n)]


def subset_product_table(
    group: ClassGroup, points: tuple[FqElement, ...], j_lo: int, j_hi: int
) -> np.ndarray:
    """S[j, c] = number of j-subsets of the points whose product of (x - a)
    lies in class c, exact for j_lo <= j <= j_hi and j = 0 (rows strictly
    between hold partial sums).  An object array of Python integers."""
    S = np.zeros((j_hi + 1, group.order), dtype=object)
    S[0, group.identity] = 1
    cs = _point_classes(group, points)
    per_block = _gather_rows(group)
    for i, (lo, hi) in enumerate(_live_rows(len(points), j_lo, j_hi)):
        if i % per_block == 0:
            block = group.quotients(cs[i:i + per_block])
        if lo <= hi:
            # S_j(eps) += S_(j-1)(eps * c^-1): subsets that take this point
            S[lo:hi + 1] += S[lo - 1:hi][:, block[i % per_block]]
    return S


def _gather_rows(group: ClassGroup) -> int:
    """Classes whose quotient rows are made at once: at most _GATHER_ROWS,
    and at most _GATHER_CELLS cells unless one row alone is more."""
    return max(1, min(_GATHER_ROWS, _GATHER_CELLS // group.order))


def group_convolve(group: ClassGroup, u: list[int], v: np.ndarray) -> np.ndarray:
    """Group-algebra product of the class functions u and v (an object array),
    out[eps] = sum_c u[c] v[eps c^-1]: one |G|-gather of v per nonzero u[c],
    made for a block of at most _GATHER_ROWS classes c and _GATHER_CELLS
    cells at a time (`ClassGroup.quotients`) and summed by one vector-matrix
    product per block.  The products run in int64 when
    max |u| * sum |v| < 2^63, which bounds every partial sum, and on Python
    integers otherwise.  An object array of Python integers."""
    cs = [c for c, uc in enumerate(u) if uc]
    weights = [u[c] for c in cs]
    dtype = np.int64 if max(map(abs, weights), default=0) * sum(map(abs, v)) < 1 << 63 else object
    v = np.asarray(v).astype(dtype)
    out = np.zeros(group.order, dtype=dtype)
    per_block = _gather_rows(group)
    for lo in range(0, len(cs), per_block):
        out += np.array(weights[lo:lo + per_block], dtype=dtype) @ v[group.quotients(cs[lo:lo + per_block])]
    return out.astype(object)


SIEVE = "sieve"  # the engines of `moment_rows`: the subset-product DP ...
TRANSFORM = "transform"  # ... and the character-domain transform
SIEVE_CELLS = "sieve cells (DP + convolution)"  # the refusal `what` of each engine
TRANSFORM_CELLS = "sieve cells (character transform)"
_PRIME_BITS = 24  # the transform's primes lie in (2^24, 2^25) ...
_MAX_EXPONENT = 1 << 12  # ... each 1 mod the group exponent N, at most this


def _transformed_rows(group: ClassGroup, n: int, runs) -> list[tuple[int, int]]:
    """The rows (d, j), j_lo <= j <= min(n, d), of the runs (d, j_lo) that an
    engine of `moment_rows` forms: those whose class counts N_(d-j) are not
    constant, as counted from Phi.  Below t + ell each class holds 0 or 1
    polynomial of degree d - j, from there on every class q^(d-j-t-ell); the
    constant rows are closed forms."""
    params = group.params
    return [
        (d, j) for d, j_lo in runs for j in range(j_lo, min(n, d) + 1)
        if d - j < params.t + params.ell and 0 < phi(d - j, params.Q) < group.order
    ]


def moment_work(group: ClassGroup, n: int, runs) -> dict[str, int]:
    """Cells the DP engine of `moment_rows` touches for the runs on n points,
    for the rows of `_transformed_rows`: the DP cell updates of the one
    subset-product table, which runs from their lowest j to their highest,
    and one |G|-gather per nonzero class count N_(d-j) of each row, of which
    there are Phi_(d-j)(Q)."""
    rows = _transformed_rows(group, n, runs)
    js = [j for _, j in rows]
    live = _live_rows(n, min(js), max(js)) if rows else []
    dp_rows = sum(max(0, hi - lo + 1) for lo, hi in live)
    gathers = sum(phi(d - j, group.params.Q) for d, j in rows)
    return {"dp_cells": dp_rows * group.order, "convolution_cells": gathers * group.order}


def _prime_count(bound: int) -> int:
    """Primes above 2^_PRIME_BITS whose product exceeds bound >= 0."""
    return max(1, -(-bound.bit_length() // _PRIME_BITS))


def transform_work(group: ClassGroup, n: int, runs) -> int | None:
    """Cells the transform engine of `moment_rows` touches for the runs on n
    points, for the rows of `_transformed_rows`, or None where it cannot run
    (the group exponent N above _MAX_EXPONENT): primes * |G| * (sum of axis
    sizes * transforms + j_hi min(N, j_hi)), with j_hi the highest j, one
    forward transform of the point classes and a forward and an inverse one
    per row, and the primes those rows' bound W_j <= C(n, j) calls for
    (N_(d-j) is a 0/1 vector there).  0 when there is no such row.

    n <= MAX_Q = 256, so C(n, j) <= C(256, 128) needs at most 11 primes."""
    rows = _transformed_rows(group, n, runs)
    if not rows:
        return 0
    j_hi = max(j for _, j in rows)
    N = math.lcm(*group.orders)
    if N > _MAX_EXPONENT:
        return None
    primes = _prime_count(max(math.comb(n, j) for _, j in rows))
    axes = sum(p ** v for order in group.orders for p, v in _prime_powers(order))
    return primes * group.order * (axes * (1 + 2 * len(rows)) + j_hi * min(N, j_hi))


def moment_plan(group: ClassGroup, n: int, runs, budget: int | None = None) -> tuple[str, dict[str, int]]:
    """The engine that `moment_rows` runs for all of the runs (d, j_lo) on n
    points, and its cells: the transform where it counts fewer cells than
    the DP, the DP otherwise (with no cells when no row needs an engine).
    The cells are checked against the budget, under the engine's own name,
    before any row is formed.  Returns the artifact's `engine` and `work`."""
    dp = moment_work(group, n, runs)
    cells = transform_work(group, n, runs)
    if cells is not None and cells < sum(dp.values()):
        check_budget(TRANSFORM_CELLS, cells, budget)
        return TRANSFORM, {"transform_cells": cells}
    check_budget(SIEVE_CELLS, sum(dp.values()), budget)
    return SIEVE, dp


def _sieve_runs(group: ClassGroup, ks) -> list[tuple[int, int]]:
    """The `moment_rows` runs of `sieve_rows` at each k of ks: degree
    k + t + ell from j_lo = k + 1."""
    params = group.params
    for k in ks:
        if k < 0:
            raise ValidationError(f"k must be >= 0, got {k}")
    return [(k + params.t + params.ell, k + 1) for k in ks]


def sieve_plan(group: ClassGroup, ks, n: int, budget: int | None = None) -> tuple[str, dict[str, int]]:
    """`moment_plan` of the `sieve_rows` runs at each k of ks (each k >= 0)
    on n points."""
    return moment_plan(group, n, _sieve_runs(group, ks), budget)


def moment_rows(
    group: ClassGroup, pts: tuple[FqElement, ...], counts, runs, budget: int | None = None
) -> list[np.ndarray]:
    """For each run (d, j_lo), W_j(eps) = sum_c S_j(c) N_(d-j)(eps c^-1) at
    degree d for j_lo <= j <= d, with the class counts N_e = counts(e), as an
    object array of Python integers indexed [j - j_lo, eps].  Rows past
    n = len(pts) are 0: no j-subset of the points exists.  The one place
    where W_j is formed.  A row whose class counts are one constant c is the
    closed form C(n, j) c (S_j sums to C(n, j) over the classes); one call
    of the engine of `moment_plan`, whose cells are checked against the
    budget first, forms all the others, of every run."""
    n = len(pts)
    engine, _ = moment_plan(group, n, runs, budget)
    Ws = [np.zeros((d - j_lo + 1, group.order), dtype=object) for d, j_lo in runs]
    wanted, places = [], []  # the rows (j, N) that the engine forms, and where each goes
    for W, (d, j_lo) in zip(Ws, runs):
        for j in range(j_lo, min(n, d) + 1):
            N = counts(d - j)
            if len(set(N)) == 1:
                W[j - j_lo] = math.comb(n, j) * N[0]
            else:
                wanted.append((j, N))
                places.append((W, j - j_lo))
    if wanted:
        rows = moment_rows_dp if engine == SIEVE else moment_rows_transform
        for (W, i), row in zip(places, rows(group, pts, wanted)):
            W[i] = row
    return Ws


def moment_rows_dp(group: ClassGroup, pts: tuple[FqElement, ...], wanted: list[tuple[int, list[int]]]) -> list:
    """W_j = S_j * N for each row (j, N) of `wanted` (1 <= j <= len(pts)), in
    order, by one subset-product table from the lowest j to the highest and
    one group-algebra product per row."""
    js = [j for j, _ in wanted]
    S = subset_product_table(group, pts, min(js), max(js))
    return [group_convolve(group, N, S[j]) for j, N in wanted]


def moment_rows_transform(group: ClassGroup, pts: tuple[FqElement, ...], wanted: list[tuple[int, list[int]]]) -> list:
    """The rows of `moment_rows_dp` in the character domain
    (`hayesdist.transform`, imported only here), with the primes that
    W_j <= C(n, j) max N calls for."""
    from .transform import character_rows

    bound = max(math.comb(len(pts), j) * max(N) for j, N in wanted)
    return character_rows(group, _point_classes(group, pts), wanted, _prime_count(bound), _PRIME_BITS)


def sieve_rows(
    group: ClassGroup, ks, pts: tuple[FqElement, ...], budget: int | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The sieve runs at each k of ks, at degree d = k + t + ell on `pts` (no
    zero of Q among them), from one `moment_rows` call on the group's class
    counts: per k, the rows W_j for k < j <= d and the counts q^k P(Y = r)
    of every class for r <= d, as object arrays of Python integers indexed
    [j - k - 1, eps] and [r, eps].  Rows past n = len(pts) are 0: no
    j-subset of the points exists, and no member has r zeros among them."""
    params = group.params
    q = params.spec.q
    n = len(pts)
    Ws = moment_rows(group, pts, group.monic_class_counts, _sieve_runs(group, ks), budget)
    out = []
    for k, W in zip(ks, Ws):
        d = k + params.t + params.ell
        # q^k P(Y = r): the class-free j <= k terms (C(n, j) = 0 for j > n),
        # plus the j > k rows as one integer matrix product
        low = np.array(
            [
                sum((-1) ** (j - r) * math.comb(j, r) * math.comb(n, j) * q ** (k - j) for j in range(r, k + 1))
                for r in range(d + 1)
            ],
            dtype=object,
        )
        # (-1)^(j+r), not (-1)^(j-r): a negative power is a float, and one
        # float term (times C(j, r) = 0 for r > j) would round the whole count
        signs = np.array(
            [[(-1) ** (j + r) * math.comb(j, r) for j in range(k + 1, d + 1)] for r in range(d + 1)], dtype=object
        ).reshape(d + 1, len(W))
        out.append((W, signs @ W + low[:, None]))
    return out


def exact_distributions_all(
    group: ClassGroup, k: int, points=None, budget: int | None = None
) -> ZeroDistributions:
    """Zero-count distributions of every class at degree k + t + ell, read
    from the counts of one `sieve_rows` run."""
    params = group.params
    pts = _validated_points(params, points)
    [(_, counts)] = sieve_rows(group, [k], pts, budget)
    return ZeroDistributions(params, k, pts, counts.tolist(), params.spec.q ** k)


def exact_distribution(
    group: ClassGroup, eps: int, k: int, points=None, budget: int | None = None
) -> ZeroDistribution:
    """Zero-count distribution of class eps at degree k + t + ell (the sieve
    does the DP for all classes at once)."""
    return exact_distributions_all(group, k, points, budget)[eps]


def binomial_moments(dist: ZeroDistribution, j_max: int) -> list[int]:
    """sum_r C(r, j) counts[r] for j = 0..j_max, as exact integers: the pairs
    (f, S) of a member f and a j-subset S of D on which f vanishes, that is
    total * E[C(Y, j)]."""
    return [sum(math.comb(r, j) * c for r, c in dist.counts.items()) for j in range(j_max + 1)]


def factorial_moments(dist: ZeroDistribution, j_max: int) -> list[Fraction]:
    """E[C(Y, j)] for j = 0..j_max, exactly from the counts."""
    from fractions import Fraction

    return [Fraction(w, dist.total) for w in binomial_moments(dist, j_max)]


# ---------------------------------------------------------------------------
# Factorization counts (the high factorial moments)
# ---------------------------------------------------------------------------

def factorization_pairs(group: ClassGroup, j: int, k: int, n: int) -> int:
    """Pairs (g, S) that factorization_counts enumerates on n points:
    C(n, j) subsets S times q^(k+t+ell-j) monic cofactors g."""
    params = group.params
    return math.comb(n, j) * params.spec.q ** (k + params.t + params.ell - j)


def factorization_counts(
    group: ClassGroup, j: int, k: int, points=None, budget: int | None = None
) -> list[int]:
    """Per class: the number of pairs (g, S) with g monic of degree
    k+t+ell-j, S a j-subset of D, and <g * prod_{a in S} (x - a)> = class.

    These counts are q^k times the factorial moments E[C(Y, j)] for
    k+1 <= j <= k+t+ell, the W_j rows of `sieve_rows` found by
    enumeration.  No command calls this route: the tests compare the
    sieve's rows with it, and the benchmark's tracer (bench/shim.py) looks
    it up by name, so it keeps this name."""
    params = group.params
    spec = params.spec
    pts = _validated_points(params, points)
    deg_g = k + params.t + params.ell - j
    if not k + 1 <= j <= k + params.t + params.ell:
        raise ValueError("need k+1 <= j <= k+t+ell")
    check_budget(FACTORIZATION_PAIRS, factorization_pairs(group, j, k, len(pts)), budget)
    linear = np.array([(spec.neg(a).index, 1) for a in pts], dtype=np.uint8).reshape(-1, 2)
    W = np.zeros(group.order + 1, dtype=np.int64)  # slot 0: not coprime to Q
    subsets = itertools.combinations(range(len(pts)), j)
    per_block = max(1, _BLOCK_ROWS // spec.q ** deg_g)  # subsets per block of products
    while chunk := list(itertools.islice(subsets, per_block)):
        # rows of prod_{a in S} (x - a), one factor per subset position
        prods = np.ones((len(chunk), 1), dtype=np.uint8)
        for col in np.array(chunk, dtype=np.intp).T:
            prods = spec.mul_rows(prods, linear[col])
        for g in spec.monic_row_blocks(deg_g, _BLOCK_ROWS):
            rows = spec.mul_rows(np.repeat(prods, len(g), axis=0), np.tile(g, (len(prods), 1)))
            W += np.bincount(group.classes_of(rows) + 1, minlength=len(W))
    return W[1:].tolist()


def pmf_prediction(params: HayesParams, n: int, r: int, k: int) -> Fraction:
    """Class-free prediction of P(Y=r) at degree k+t+ell on n points:

    mu_(k-r)(r) C(n,r) q^-r
    + C(n,r) q^-(k+ell) sum_j (-1)^(j-r) C(n-r, j-r) Phi_(k+t+ell-j)/Phi_t

    with the sum over k+1 <= j <= k+t+ell.  It depends on the class group
    only through (q, t, ell, Q), so one value serves every class."""
    from fractions import Fraction

    from .comb import truncated_binomial_sum

    q = params.spec.q
    t, ell = params.t, params.ell
    if r > n:
        return Fraction(0)  # every term carries C(n, r) = 0
    mu_term = (
        truncated_binomial_sum(k - r, r, n, q) * Fraction(math.comb(n, r), q ** r)
        if k - r >= 0
        else Fraction(0)
    )
    corr = Fraction(0)
    for j in range(k + 1, k + t + ell + 1):
        if r <= j <= n:
            corr += (
                (-1) ** (j - r)
                * math.comb(n - r, j - r)
                * Fraction(phi(k + t + ell - j, params.Q), phi(t, params.Q))
            )
    corr *= math.comb(n, r) * Fraction(1, q ** (k + ell))
    return mu_term + corr


# ---------------------------------------------------------------------------
# Group-algebra series identities
# ---------------------------------------------------------------------------

def joint_zero_counts(group: ClassGroup, d: int, points=None) -> np.ndarray:
    """Per class and r, the number of monic degree-d polynomials of that class
    with exactly r distinct zeros in D: an (|G|, n+1) int64 array, by
    enumerating, labelling and evaluating every monic polynomial of degree d."""
    pts = _validated_points(group.params, points)
    width = len(pts) + 1
    joint = np.zeros((group.order + 1) * width, dtype=np.int64)  # class row 0: not coprime
    for classes, zeros in group.monic_class_blocks(d, [a.index for a in pts], MONIC_BLOCK_ROWS):
        joint += np.bincount((classes + 1) * width + zeros, minlength=len(joint))
    return joint.reshape(group.order + 1, width)[1:]


def verify_series_identities(
    group: ClassGroup, d_max: int, points=None, budget: int | None = None
) -> tuple[bool, Iterator[dict], dict]:
    """Check the group-algebra series identities slice by slice, exactly.

    * geometric tail: each class holds exactly q^(d-t-ell) monic polynomials
      of degree d for every d >= t+ell (the low-degree slices are the
      enumeration itself and feed the product check below);
    * product form: tagging monic polynomials by class and zero count agrees
      with the monic series multiplied by prod over alpha in D of
      (<1> + (u-1) z <x - alpha>), compared per degree and per power of (u-1);
      for j >= 1 the (u-1)^j slice of degree d is the row W_j of
      `moment_rows`, the sieve's own subset-product table and group-algebra
      product, so this checks both against enumeration; the (u-1)^0 factor
      is <1>, so that slice is the class counts N_d and is checked against
      q^(d-t-ell) per class at d >= t+ell, and below t+ell against a 0/1
      vector (a class holds at most one polynomial of such a degree) with
      total Phi_d(Q);
    * moment slice: for each k with k+t+ell <= d_max, the degree-(k+t+ell)
      slice matches C(n,j) q^(k-j) for j <= k and, for j > k, the same W_j
      rows; it reads the joint table, not the enumeration oracle.

    Each degree is enumerated once, into the joint (class, zero count)
    table: its row sums are the class counts N_d, and its binomial moments
    M_d[j][c] = sum_r C(r, j) joint_d[c][r] are the left side of the
    product and moment slices.  The right sides are one `moment_rows` call
    over every degree at j_lo = 1 on those class counts, which read the
    tables only through N_(d-j) with j >= 1, so no slice compares a table
    with itself.  Every degree's q^d (n+1) evaluation cells (n evaluations
    and one label per polynomial) are checked against the budget before the
    first one, and then the cells of that `moment_rows` call, by one
    `moment_plan` call.

    Returns the verdict, the check records ({"name", "pass", "detail"}
    dicts, each made as it is read) and the work counts.  Every table is
    built before this returns, so a budget refusal comes before any record,
    and the verdict compares the tables row by row, formatting no record.
    """
    params = group.params
    q = params.spec.q
    pts = _validated_points(params, points)
    n = len(pts)
    t, ell = params.t, params.ell
    if d_max < 0:
        raise ValidationError(f"d_max must be >= 0, got {d_max}")
    for d in range(d_max + 1):
        check_budget(f"evaluation cells q^{d} (n+1)", q ** d * (n + 1), budget)
    runs = [(d, 1) for d in range(d_max + 1)]
    _, cells = moment_plan(group, n, runs, budget)
    work = {"polynomials_checked": sum(q ** d for d in range(d_max + 1)), **cells}

    N: list[list[int]] = []  # N[d][class]
    M: list[list[list[int]]] = []  # M[d][j][class], exact Python integers
    zeros = [0] * group.order  # M[d][j] for j > n: no polynomial has more than n zeros in D
    for d in range(d_max + 1):
        j_hi = min(d, n)
        binomials = np.array([[math.comb(r, j) for j in range(j_hi + 1)] for r in range(n + 1)], dtype=object)
        moments = joint_zero_counts(group, d, pts).astype(object) @ binomials
        M.append(moments.T.tolist() + [zeros] * (d - j_hi))
        N.append(M[d][0])  # the (u-1)^0 moment: the row sums of the joint table
    W = [rows.tolist() for rows in moment_rows(group, pts, N.__getitem__, runs, budget)]  # W[d][j - 1][class]

    tails = range(t + ell, d_max + 1)
    products = [(d, j) for d in range(d_max + 1) for j in range(min(d, n) + 1)]
    ks = range(d_max - t - ell + 1)

    def tail_ok(d: int) -> bool:
        return N[d] == [q ** (d - t - ell)] * group.order

    def product_rhs(d: int, j: int) -> list[int] | None:
        """The right side of the (u-1)^j slice of degree d, or None below t + ell at j = 0."""
        if j:
            return W[d][j - 1]
        if d >= t + ell:  # (u-1)^0: the class counts, whose convolution with <1> is themselves
            return [q ** (d - t - ell)] * group.order
        return None  # below t + ell a class holds at most one polynomial of degree d

    def product_ok(d: int, j: int) -> bool:
        lhs, rhs = M[d][j], product_rhs(d, j)
        if rhs is None:
            return set(lhs) <= {0, 1} and sum(lhs) == phi(d, params.Q)
        return lhs == rhs

    def moment_slice(k: int) -> list[list[int]]:
        """The expected rows j = 0..d of the degree-d slice, d = k + t + ell:
        C(n, j) q^(k-j) per class for j <= k, the rows W_j above."""
        d = k + t + ell
        return [[math.comb(n, j) * q ** (k - j)] * group.order for j in range(k + 1)] + W[d][k:]

    passed = (
        all(tail_ok(d) for d in tails)
        and all(product_ok(d, j) for d, j in products)
        and all(M[k + t + ell] == moment_slice(k) for k in ks)
    )

    def records():
        """The check record of every slice, in order, each made as it is read."""
        for d in tails:
            detail = f"expected q^{d - t - ell} per class"
            yield {"name": f"geometric tail, degree {d}", "pass": tail_ok(d), "detail": detail}
        for d, j in products:
            ok, rhs = product_ok(d, j), product_rhs(d, j)
            if rhs is None:
                rhs = f"0 or 1 per class, phi_{d}(Q) = {phi(d, params.Q)} in all"
            detail = "" if ok else f"lhs={M[d][j]} rhs={rhs}"
            yield {"name": f"product slice z^{d} (u-1)^{j}", "pass": ok, "detail": detail}
        for k in ks:
            d = k + t + ell
            expected = moment_slice(k)
            for eps in range(group.order):
                for j in range(0, d + 1):
                    got, want = M[d][j][eps], expected[j][eps]
                    ok = got == want
                    detail = "" if ok else f"got={got} want={want}"
                    yield {"name": f"moment slice k={k} eps={eps} (u-1)^{j}", "pass": ok, "detail": detail}

    return passed, records(), work


# ---------------------------------------------------------------------------
# Reed-Solomon distance rows
# ---------------------------------------------------------------------------

class RSDistanceRow(Record):
    """N(f, r): how many of the q^k codewords agree with the received word f
    on exactly r evaluation points (distance q - r)."""

    __slots__ = ("word", "k", "ell", "counts", "total")

    def __init__(self, word: Polynomial, k: int, ell: int, counts: dict[int, int], total: int):
        self.word = word
        self.k = k
        self.ell = ell
        self.counts = counts
        self.total = total

    def count(self, r: int) -> int:
        return self.counts.get(r, 0)

    def to_json(self) -> dict:
        spec = self.word.spec
        return {
            "p": spec.p,
            "a": spec.a,
            "q": spec.q,
            "k": self.k,
            "ell": self.ell,
            "word": self.word.to_text(),
            "counts": {str(r): str(c) for r, c in sorted(self.counts.items())},
        }


def rs_group(spec: FieldSpec, ell: int, budget: int | None = None) -> ClassGroup:
    """The class group with Q = 1 used by the Reed-Solomon view."""
    return ClassGroup(HayesParams(ell, Polynomial.one(spec)), budget)


def rs_distance_row(
    f: Polynomial, k: int, ell: int, group: ClassGroup | None = None, budget: int | None = None
) -> RSDistanceRow:
    """Distance row of a received word f (monic, degree k + ell) against the
    dimension-k Reed-Solomon code evaluated on all of GF(q).

    A codeword g (deg g < k) agrees with f exactly where f - g vanishes, and
    f - g is a monic degree-(k+ell) member of <f>; so the row is q^k times
    the zero-count distribution of <f>."""
    spec = f.spec
    if not f.is_monic or f.degree != k + ell:
        raise ValidationError("received word must be monic of degree k + ell")
    if group is None:
        group = rs_group(spec, ell, budget)
    eps = group.class_of(f)
    dist = exact_distribution(group, eps, k, spec.elements, budget)
    return RSDistanceRow(f, k, ell, dict(dist.counts), dist.total)


DEEP_HOLE = "deep-hole"
ORDINARY = "ordinary"
NEITHER = "neither"


def classify_row(row: RSDistanceRow) -> str:
    """deep-hole: no codeword agrees on more than k points; ordinary: some
    codeword agrees on all k + ell possible points; neither can occur only
    for ell >= 2."""
    return _kind(row.counts, row.k, row.ell)


def _kind(counts: dict[int, int], k: int, ell: int) -> str:
    """`classify_row` of the row with these nonzero counts."""
    if all(counts.get(r, 0) == 0 for r in range(k + 1, k + ell + 1)):
        return DEEP_HOLE
    if counts.get(k + ell, 0) > 0:
        return ORDINARY
    return NEITHER


def classify_word(
    f: Polynomial, k: int, ell: int, group: ClassGroup | None = None, budget: int | None = None
) -> str:
    return classify_row(rs_distance_row(f, k, ell, group, budget))


def rs_census(
    spec: FieldSpec,
    k: int,
    ell: int,
    budget: int | None = None,
    group: ClassGroup | None = None,
) -> dict:
    """Classify every received word of degree k + ell, grouped by class.

    Words in the same class share a distance row, so rows come from one
    sieve run over all classes and the budget covers that run (and the
    group, when built here); explicit word lists are included while
    q^(k+ell) <= _CENSUS_WORDS.  The kinds and `word_totals` come from
    the distributions; `classes` and `words` are iterators whose records
    are made as they are read.
    """
    if group is None:
        group = rs_group(spec, ell, budget)
    dists = exact_distributions_all(group, k, spec.elements, budget)
    kinds = [_kind(d.counts, k, ell) for d in dists]
    tallies = {DEEP_HOLE: 0, ORDINARY: 0, NEITHER: 0}
    words_per_class = spec.q ** k
    for kind in kinds:
        tallies[kind] += words_per_class

    def classes():
        for d, kind in zip(dists, kinds):
            counts = {str(r): str(c) for r, c in d.counts.items()}
            yield {"eps": d.eps, "rep": group.rep(d.eps).to_text(), "kind": kind, "counts": counts}

    def words():
        rows = spec.monic_rows(k + ell)  # in `enumerate_monic` order
        for row, eps in zip(rows.tolist(), group.classes_of(rows).tolist()):
            yield {"word": Polynomial(spec, row).to_text(), "eps": eps, "kind": kinds[eps]}

    out = {"q": spec.q, "k": k, "ell": ell, "classes": classes(), "word_totals": tallies}
    if spec.q ** (k + ell) <= _CENSUS_WORDS:
        out["words"] = words()
    return out
