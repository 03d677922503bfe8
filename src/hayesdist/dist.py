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
class c -- a dynamic programme that translates every class by <x - a>
once per point -- and N_e counts monic degree-e polynomials per class.
Here e < t + ell, and a class holds at most one polynomial of such a
degree, so N_e has Phi_e(Q) nonzero entries.  The work is polynomial in q:
at most n * (min(n, d) + 1) * |G| DP cells plus |G| per nonzero N_e entry,
where enumeration costs |G| * q^k * n comparisons.  All arithmetic is on
Python integers (numpy object arrays).

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
|G| * q^k * n comparisons of `enumeration_comparisons`; its budget counts
q^k.  It uses neither the sieve nor group arithmetic, and it feeds the
verification suites (moment identity, remainder bounds): under the sieve
the j <= k moment identities hold by construction, so those checks never
run on sieve output alone; the series moment slice reads the series
check's joint table instead of the oracle.  A plain object-level brute
force over all of M_d is kept as a third, independent route.

The factorization counts, the series check's joint (class, zero count)
table and the oracle's target vectors run on the field's row kernel
(`FieldSpec.monic_rows` / `mul_rows` / `eval_rows`): every polynomial is
still formed, labelled with `ClassGroup.classes_of` and evaluated
explicitly, a block of at most _BLOCK_ROWS (factorization products) or
`MONIC_BLOCK_ROWS` (monic enumeration) rows at a time, and none of them
touches the group multiplication, `group_convolve` or the sieve.  The brute
force and the census word list stay object-level: they multiply and
evaluate `Polynomial` objects, labelled a block of _LABEL_ROWS per call.
`group_convolve` is the one group-algebra product: the sieve's W_j and the
series check's product slices both use it, so that check exercises it
against enumeration.

Counts are arbitrary-precision integers; probabilities are exact rationals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chars import CharacterTable
from .comb import truncated_binomial_sum
from .errors import ValidationError, check_budget
from .ffield import (
    FieldSpec,
    FqElement,
    Polynomial,
    distinct_roots_in,
    enumerate_monic,
)
from .hayes import MONIC_BLOCK_ROWS, ClassGroup, HayesParams, phi

_BLOCK_ROWS = 1 << 16  # factorization product blocks: at most this many rows at once
_AGREEMENT_CELLS = 1 << 14  # oracle blocks: low evaluation vectors, (target, low row) agreement counts
_HISTOGRAM_CELLS = 1 << 16  # oracle blocks: (target, count) cells per histogram
_LABEL_ROWS = 1 << 10  # polynomials labelled per ClassGroup.classes_of call


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

@dataclass
class ZeroDistribution:
    """Exact histogram of the number of distinct zeros in D over one class."""

    params: HayesParams
    eps: int
    k: int
    points: tuple[FqElement, ...]
    counts: dict[int, int]
    total: int

    def probability(self, r: int) -> Fraction:
        return Fraction(self.counts.get(r, 0), self.total)

    def probabilities(self) -> dict[int, Fraction]:
        return {r: Fraction(c, self.total) for r, c in sorted(self.counts.items())}

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


def enumeration_comparisons(group: ClassGroup, k: int, n: int) -> int:
    """Byte comparisons the enumeration oracle makes for all classes on n points."""
    return group.order * group.params.spec.q ** k * n


def enumeration_distributions_all(
    group: ClassGroup, k: int, points=None, budget: int | None = None
) -> list[ZeroDistribution]:
    """Enumeration oracle: the zero-count distribution of every class at
    degree k + t + ell, by enumerating the q^k members of each class."""
    params = group.params
    spec = params.spec
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    pts = _validated_points(params, points)
    check_budget("class member enumeration q^k", spec.q ** k, budget)
    point_idx = tuple(a.index for a in pts)
    # target of class eps at a: -base(a) / Q(a) for its member base
    scale = np.array([spec.neg(spec.inv(params.Q(a))).index for a in pts], dtype=np.intp)
    base = group.member_base_rows(k + params.t + params.ell)
    targets = spec.mul_table[spec.eval_rows(base, point_idx), scale]
    hists = _agreement_histograms(spec, k, point_idx, targets)
    counts: list[dict[int, int]] = [{} for _ in range(group.order)]
    eps_of, r_of = np.nonzero(hists)  # row-major, so each class's r ascend
    for eps, r, c in zip(eps_of.tolist(), r_of.tolist(), hists[eps_of, r_of].tolist()):
        counts[eps][r] = c
    total = spec.q ** k
    return [ZeroDistribution(params, eps, k, pts, c, total) for eps, c in enumerate(counts)]


# ---------------------------------------------------------------------------
# The subset-product sieve
# ---------------------------------------------------------------------------

def _point_classes(group: ClassGroup, pts: tuple[FqElement, ...]) -> list[int]:
    """Class of x - a for every point a (points are never zeros of Q)."""
    spec = group.params.spec
    return group.classes_of([(spec.neg(a).index, 1) for a in pts]).tolist()


def _labelled_blocks(group: ClassGroup, polys):
    """Blocks of at most _LABEL_ROWS of the monic polynomials `polys` (all of
    one degree), each with the array of their classes (-1 where gcd(f, Q) != 1)."""
    polys = iter(polys)
    while block := list(itertools.islice(polys, _LABEL_ROWS)):
        yield block, group.classes_of([f.index_coeffs() for f in block])


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
    for (lo, hi), c in zip(_live_rows(len(points), j_lo, j_hi), _point_classes(group, points)):
        if lo <= hi:
            # S_j(eps) += S_(j-1)(eps * c^-1): subsets that take this point
            S[lo:hi + 1] += S[lo - 1:hi][:, group.translation(group.inv(c))]
    return S


def sieve_work(group: ClassGroup, k: int, n: int) -> dict[str, int]:
    """Cells the sieve touches at degree k + t + ell on n points: DP cell
    updates, and one |G|-gather per nonzero entry of N_(d-j) for j > k."""
    params = group.params
    d = k + params.t + params.ell
    j_hi = min(n, d)
    rows = sum(max(0, hi - lo + 1) for lo, hi in _live_rows(n, k + 1, j_hi))
    gathers = sum(phi(d - j, params.Q) for j in range(k + 1, j_hi + 1))
    return {"dp_cells": rows * group.order, "convolution_cells": gathers * group.order}


def exact_distributions_all(
    group: ClassGroup, k: int, points=None, budget: int | None = None
) -> list[ZeroDistribution]:
    """Zero-count distributions of every class at degree k + t + ell, by the
    subset-product sieve (see the module docstring)."""
    params = group.params
    q = params.spec.q
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    pts = _validated_points(params, points)
    n = len(pts)
    d = k + params.t + params.ell
    j_hi = min(n, d)
    check_budget("sieve cells (DP + convolution)", sum(sieve_work(group, k, n).values()), budget)
    S = subset_product_table(group, pts, k + 1, j_hi)
    high = range(k + 1, j_hi + 1)
    W = np.zeros((len(high), group.order), dtype=object)
    for row, j in zip(W, high):
        row[:] = group_convolve(group, group.monic_class_counts(d - j), S[j])
    # q^k P(Y = r): the class-free j <= k terms, plus the j > k rows as one
    # integer matrix product
    low = np.array(
        [
            sum(
                (-1) ** (j - r) * math.comb(j, r) * math.comb(n, j) * q ** (k - j)
                for j in range(r, min(k, j_hi) + 1)
            )
            for r in range(j_hi + 1)
        ],
        dtype=object,
    )
    signs = np.array(
        [[(-1) ** (j - r) * math.comb(j, r) for j in high] for r in range(j_hi + 1)], dtype=object
    ).reshape(j_hi + 1, len(high))
    counts = signs @ W + low[:, None]
    total = q ** k
    return [
        ZeroDistribution(params, eps, k, pts, {r: int(c) for r, c in enumerate(counts[:, eps]) if c}, total)
        for eps in range(group.order)
    ]


def exact_distribution(
    group: ClassGroup, eps: int, k: int, points=None, budget: int | None = None
) -> ZeroDistribution:
    """Zero-count distribution of class eps at degree k + t + ell (the sieve
    does the DP for all classes at once)."""
    return exact_distributions_all(group, k, points, budget)[eps]


def exact_distribution_bruteforce(
    group: ClassGroup, eps: int, k: int, points=None, budget: int | None = None
) -> ZeroDistribution:
    """Independent oracle: filter all of M_(k+t+ell) by class, count roots."""
    params = group.params
    spec = params.spec
    pts = _validated_points(params, points)
    d = k + params.t + params.ell
    check_budget("monic enumeration q^d", spec.q ** d, budget)
    counts: dict[int, int] = {}
    for block, classes in _labelled_blocks(group, enumerate_monic(spec, d)):
        for f, cls in zip(block, classes.tolist()):
            if cls == eps:
                r = distinct_roots_in(f, pts)
                counts[r] = counts.get(r, 0) + 1
    return ZeroDistribution(params, eps, k, pts, counts, spec.q ** k)


def binomial_moments(dist: ZeroDistribution, j_max: int) -> list[int]:
    """sum_r C(r, j) counts[r] for j = 0..j_max, as exact integers: the pairs
    (f, S) of a member f and a j-subset S of D on which f vanishes, that is
    total * E[C(Y, j)]."""
    return [sum(math.comb(r, j) * c for r, c in dist.counts.items()) for j in range(j_max + 1)]


def factorial_moments(dist: ZeroDistribution, j_max: int) -> list[Fraction]:
    """E[C(Y, j)] for j = 0..j_max, exactly from the counts."""
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
    k+1 <= j <= k+t+ell."""
    params = group.params
    spec = params.spec
    pts = _validated_points(params, points)
    deg_g = k + params.t + params.ell - j
    if not k + 1 <= j <= k + params.t + params.ell:
        raise ValueError("need k+1 <= j <= k+t+ell")
    check_budget("factorization enumeration", factorization_pairs(group, j, k, len(pts)), budget)
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


def pmf_remainder_gap(dist: ZeroDistribution, r: int, prediction: Fraction) -> Fraction:
    """Exact left side of the pmf remainder inequality, |P(Y=r) - prediction|,
    with `prediction` = pmf_prediction(params, n, r, k) for the class's (n, r, k)."""
    return abs(dist.probability(r) - prediction)


@dataclass(frozen=True)
class FactorizationSplit:
    """Character-expansion evaluation of a factorization count: the exact main
    term Phi_(k+t+ell-j)(Q)/|E| * C(n, j) plus the character remainder."""

    value: complex
    main_term: Fraction
    remainder: float


def factorization_count_by_characters(
    group: ClassGroup,
    table: CharacterTable,
    j: int,
    eps: int,
    k: int,
    points=None,
    budget: int | None = None,
) -> FactorizationSplit:
    """Evaluate the factorization count by character orthogonality:

    W_j(eps) = Phi/|E| * C(n,j)
             + (1/|E|) sum over nontrivial chi of
               conj(chi(eps)) * (sum over monic g of chi(g)) * e_j(chi(x - a)).
    """
    params = group.params
    pts = _validated_points(params, points)
    deg_g = k + params.t + params.ell - j
    if not k + 1 <= j <= k + params.t + params.ell:
        raise ValueError("need k+1 <= j <= k+t+ell")
    n = len(pts)
    main = Fraction(phi(deg_g, params.Q) * math.comb(n, j), group.order)
    # e_0..e_j of the values chi(x - a) over the points, for all characters at once
    e = np.zeros((j + 1, table.order), dtype=np.complex128)
    e[0] = 1
    for vals in table.values_at(_point_classes(group, pts)).T:
        e[1:] += e[:-1] * vals
    terms = table.values_at([eps])[:, 0].conj() * table.sums(deg_g, budget) * e[j]
    value = complex(main) + complex(terms[1:].sum()) / group.order  # character 0 is trivial
    return FactorizationSplit(value, main, abs(value - complex(main)))


# ---------------------------------------------------------------------------
# Group-algebra series identities
# ---------------------------------------------------------------------------

def group_convolve(group: ClassGroup, u: list[int], v: np.ndarray) -> np.ndarray:
    """Group-algebra product of the class functions u and v (an object array),
    out[eps] = sum_c u[c] v[eps c^-1]: one |G|-gather of v per nonzero u[c].
    An object array of Python integers."""
    out = np.zeros(group.order, dtype=object)
    for c, uc in enumerate(u):
        if uc:
            out += uc * v[group.translation(group.inv(c))]
    return out


def joint_zero_counts(group: ClassGroup, d: int, points=None) -> np.ndarray:
    """Per class and r, the number of monic degree-d polynomials of that class
    with exactly r distinct zeros in D: an (|G|, n+1) int64 array, by
    enumerating, labelling and evaluating every monic polynomial of degree d."""
    spec = group.params.spec
    pts = _validated_points(group.params, points)
    point_idx = [a.index for a in pts]
    width = len(pts) + 1
    joint = np.zeros((group.order + 1) * width, dtype=np.int64)  # class row 0: not coprime
    for rows in spec.monic_row_blocks(d, MONIC_BLOCK_ROWS):
        zeros = (spec.eval_rows(rows, point_idx) == 0).sum(axis=1)
        joint += np.bincount((group.classes_of(rows) + 1) * width + zeros, minlength=len(joint))
    return joint.reshape(group.order + 1, width)[1:]


@dataclass
class CheckRecord:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class SeriesReport:
    checks: list[CheckRecord]
    work: dict  # polynomials enumerated, factorization pairs

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if not c.ok]


def verify_series_identities(
    group: ClassGroup, d_max: int, points=None, budget: int | None = None
) -> SeriesReport:
    """Check the group-algebra series identities slice by slice, exactly.

    * geometric tail: each class holds exactly q^(d-t-ell) monic polynomials
      of degree d for every d >= t+ell (the low-degree slices are the
      enumeration itself and feed the product check below);
    * product form: tagging monic polynomials by class and zero count agrees
      with the monic series multiplied by prod over alpha in D of
      (<1> + (u-1) z <x - alpha>), compared per degree and per power of (u-1);
      for j >= 1 the (u-1)^j factor is the sieve's subset-product table and
      the product is the sieve's `group_convolve`, so this checks both
      against enumeration; the (u-1)^0 factor is <1>, so that slice is the
      class counts N_d and is checked against q^(d-t-ell) per class at
      d >= t+ell, and below t+ell against a 0/1 vector (a class holds at
      most one polynomial of such a degree) with total Phi_d(Q);
    * moment slice: for each k with k+t+ell <= d_max, the degree-(k+t+ell)
      slice matches C(n,j) q^(k-j) for j <= k and the factorization counts
      for j > k; it reads the joint table, not the enumeration oracle.

    Each degree is enumerated once, into the joint (class, zero count)
    table: its row sums are the class counts N_d, and its binomial moments
    M_d[j][c] = sum_r C(r, j) joint_d[c][r] are the left side of the
    product and moment slices.  The right sides read the table only through
    N_(d-j) with j >= 1, so no slice compares the table with itself.
    """
    params = group.params
    spec = params.spec
    pts = _validated_points(params, points)
    n = len(pts)
    t, ell = params.t, params.ell
    if d_max < 0:
        raise ValidationError(f"d_max must be >= 0, got {d_max}")
    for d in range(d_max + 1):
        check_budget(f"monic enumeration q^{d}", spec.q ** d, budget)
    checks: list[CheckRecord] = []
    work = {"polynomials_checked": 0, "factorization_pairs": 0}

    N: list[list[int]] = []  # N[d][class]
    M: list[list[list[int]]] = []  # M[d][j][class], exact Python integers
    for d in range(d_max + 1):
        joint = joint_zero_counts(group, d, pts).tolist()
        work["polynomials_checked"] += spec.q ** d
        N.append([sum(row) for row in joint])
        M.append([[sum(math.comb(r, j) * c for r, c in enumerate(row)) for row in joint] for j in range(d + 1)])

    for d in range(t + ell, d_max + 1):
        want = spec.q ** (d - t - ell)
        ok = all(c == want for c in N[d])
        checks.append(CheckRecord(f"geometric tail, degree {d}", ok, f"expected q^{d - t - ell} per class"))

    sub = subset_product_table(group, pts, 0, n)

    for d in range(d_max + 1):
        for j in range(min(d, n) + 1):
            lhs = M[d][j]
            if j:
                rhs = group_convolve(group, N[d - j], sub[j]).tolist()
                ok = lhs == rhs
            elif d >= t + ell:  # (u-1)^0: the class counts, whose convolution with <1> is themselves
                rhs = [spec.q ** (d - t - ell)] * group.order
                ok = lhs == rhs
            else:  # below t + ell a class holds at most one polynomial of degree d
                rhs = f"0 or 1 per class, phi_{d}(Q) = {phi(d, params.Q)} in all"
                ok = set(lhs) <= {0, 1} and sum(lhs) == phi(d, params.Q)
            checks.append(
                CheckRecord(
                    f"product slice z^{d} (u-1)^{j}",
                    ok,
                    "" if ok else f"lhs={lhs} rhs={rhs}",
                )
            )

    for k in range(0, d_max - t - ell + 1):
        d = k + t + ell
        Ws = {j: factorization_counts(group, j, k, pts, budget) for j in range(k + 1, d + 1)}
        work["factorization_pairs"] += sum(factorization_pairs(group, j, k, n) for j in Ws)
        for eps in range(group.order):
            for j in range(0, d + 1):
                got = M[d][j][eps]
                want = math.comb(n, j) * spec.q ** (k - j) if j <= k else Ws[j][eps]
                checks.append(
                    CheckRecord(
                        f"moment slice k={k} eps={eps} (u-1)^{j}",
                        got == want,
                        "" if got == want else f"got={got} want={want}",
                    )
                )
    return SeriesReport(checks, work)


# ---------------------------------------------------------------------------
# Reed-Solomon distance rows
# ---------------------------------------------------------------------------

@dataclass
class RSDistanceRow:
    """N(f, r): how many of the q^k codewords agree with the received word f
    on exactly r evaluation points (distance q - r)."""

    word: Polynomial
    k: int
    ell: int
    counts: dict[int, int]
    total: int

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


def rs_group(spec: FieldSpec, ell: int) -> ClassGroup:
    """The class group with Q = 1 used by the Reed-Solomon view."""
    return ClassGroup(HayesParams(ell, Polynomial.one(spec)))


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
        group = rs_group(spec, ell)
    eps = group.class_of(f)
    dist = exact_distribution(group, eps, k, spec.elements, budget)
    return RSDistanceRow(f, k, ell, dict(dist.counts), dist.total)


def codeword_agreement_row(f: Polynomial, k: int, budget: int | None = None) -> dict[int, int]:
    """Independent oracle: enumerate all q^k codewords g (deg < k) and
    histogram #{x in GF(q) : g(x) = f(x)} directly."""
    spec = f.spec
    check_budget("codeword enumeration q^k", spec.q ** k, budget)
    f_vals = [f(a) for a in spec.elements]
    counts: dict[int, int] = {}
    for combo in itertools.product(spec.elements, repeat=k):
        g = Polynomial(spec, combo)
        agree = sum(1 for a, fv in zip(spec.elements, f_vals) if g(a) == fv)
        counts[agree] = counts.get(agree, 0) + 1
    return counts


DEEP_HOLE = "deep-hole"
ORDINARY = "ordinary"
NEITHER = "neither"


def classify_row(row: RSDistanceRow) -> str:
    """deep-hole: no codeword agrees on more than k points; ordinary: some
    codeword agrees on all k + ell possible points; neither can occur only
    for ell >= 2."""
    k, ell = row.k, row.ell
    if all(row.count(r) == 0 for r in range(k + 1, k + ell + 1)):
        return DEEP_HOLE
    if row.count(k + ell) > 0:
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
    list_words_up_to: int = 4096,
    group: ClassGroup | None = None,
) -> dict:
    """Classify every received word of degree k + ell, grouped by class.

    Words in the same class share a distance row, so rows come from one
    sieve run over all classes and the budget covers that run alone; explicit
    word lists are included while q^(k+ell) <= list_words_up_to.
    """
    if group is None:
        group = rs_group(spec, ell)
    dists = exact_distributions_all(group, k, spec.elements, budget)
    per_class = []
    tallies = {DEEP_HOLE: 0, ORDINARY: 0, NEITHER: 0}
    for eps in range(group.order):
        row = RSDistanceRow(group.reps[eps], k, ell, dict(dists[eps].counts), dists[eps].total)
        per_class.append(
            {
                "eps": eps,
                "rep": group.reps[eps].to_text(),
                "kind": classify_row(row),
                "counts": {str(r): str(c) for r, c in sorted(row.counts.items())},
            }
        )
    words_per_class = spec.q ** k
    for entry in per_class:
        tallies[entry["kind"]] += words_per_class
    out = {
        "q": spec.q,
        "k": k,
        "ell": ell,
        "classes": per_class,
        "word_totals": tallies,
    }
    if spec.q ** (k + ell) <= list_words_up_to:
        words = []
        for block, classes in _labelled_blocks(group, enumerate_monic(spec, k + ell)):
            for f, eps in zip(block, classes.tolist()):
                words.append({"word": f.to_text(), "eps": eps, "kind": per_class[eps]["kind"]})
        out["words"] = words
    return out
