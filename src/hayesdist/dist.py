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
enumerates all q^k coefficient vectors of h in vectorized blocks and
histograms the agreement counts.  It keeps its q^k budget and feeds the
verification suites (moment identity, remainder bounds, the series moment
slice): under the sieve the j <= k moment identities hold by construction,
so those checks never run on sieve output alone.  A plain object-level
brute force over all of M_d is kept as a third, independent route.

Counts are arbitrary-precision integers; probabilities are exact rationals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chars import CharacterTable, character_sum
from .comb import truncated_binomial_sum
from .errors import ValidationError, check_budget
from .ffield import (
    FieldSpec,
    FqElement,
    Polynomial,
    distinct_roots_in,
    enumerate_monic,
)
from .hayes import ClassGroup, HayesParams, phi

_BLOCK_ROWS = 1 << 16  # vectorized enumeration block: at most this many rows at once


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
    of #{positions where h(point) == target}.  Returns (len(targets), n+1)."""
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
    while j_low < k and q ** (j_low + 1) <= _BLOCK_ROWS:
        j_low += 1

    # low block: evaluation vectors of all q^j_low combinations of c_0..c_{j_low-1}
    block = np.zeros((1, n), dtype=np.uint8)
    coeff_vals = np.arange(q, dtype=np.intp)
    for i in range(j_low):
        contrib = mul[coeff_vals[:, None], pw[i][None, :]]  # (q, n)
        block = add[block[:, None, :], contrib[None, :, :]].reshape(-1, n)

    tgt = targets.astype(np.uint8)
    for high in itertools.product(range(q), repeat=k - j_low):
        e = np.zeros(n, dtype=np.uint8)
        for offset, c in enumerate(high):
            if c:
                e = add[e, mul[c, pw[j_low + offset]]]
        total = add[block, e[None, :]]
        for ti in range(m):
            agree = (total == tgt[ti][None, :]).sum(axis=1)
            hists[ti] += np.bincount(agree, minlength=n + 1)
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


def _target_vector(group: ClassGroup, eps: int, k: int, points: tuple[FqElement, ...]) -> list[int]:
    params = group.params
    spec = params.spec
    base = group.member_base(eps, k + params.t + params.ell)
    Q = params.Q
    out = []
    for a in points:
        v = spec.neg(spec.mul(base(a), spec.inv(Q(a))))
        out.append(v.index)
    return out


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
    pts = _validated_points(params, points)
    check_budget("class member enumeration q^k", spec.q ** k, budget)
    point_idx = tuple(a.index for a in pts)
    targets = np.array(
        [_target_vector(group, eps, k, pts) for eps in range(group.order)], dtype=np.intp
    ).reshape(group.order, len(pts))
    hists = _agreement_histograms(spec, k, point_idx, targets)
    total = spec.q ** k
    out = []
    for eps in range(group.order):
        counts = {r: int(c) for r, c in enumerate(hists[eps]) if c}
        out.append(ZeroDistribution(params, eps, k, pts, counts, total))
    return out


# ---------------------------------------------------------------------------
# The subset-product sieve
# ---------------------------------------------------------------------------

def _point_classes(group: ClassGroup, pts: tuple[FqElement, ...]) -> list[int]:
    """Class of x - a for every point a (points are never zeros of Q)."""
    spec = group.params.spec
    return [group.class_of(Polynomial(spec, (spec.neg(a), spec.one))) for a in pts]


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
    pts = _validated_points(params, points)
    n = len(pts)
    d = k + params.t + params.ell
    j_hi = min(n, d)
    check_budget("sieve cells (DP + convolution)", sum(sieve_work(group, k, n).values()), budget)
    S = subset_product_table(group, pts, k + 1, j_hi)
    high = range(k + 1, j_hi + 1)
    W = np.zeros((len(high), group.order), dtype=object)
    for row, j in zip(W, high):
        for c, count in enumerate(group.monic_class_counts(d - j)):
            if count:
                row += count * S[j][group.translation(group.inv(c))]
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
    for f in enumerate_monic(spec, d):
        if group.class_of(f) == eps:
            r = distinct_roots_in(f, pts)
            counts[r] = counts.get(r, 0) + 1
    return ZeroDistribution(params, eps, k, pts, counts, spec.q ** k)


def factorial_moments(dist: ZeroDistribution, j_max: int) -> list[Fraction]:
    """E[C(Y, j)] for j = 0..j_max, exactly from the counts."""
    return [
        Fraction(sum(math.comb(r, j) * c for r, c in dist.counts.items()), dist.total)
        for j in range(j_max + 1)
    ]


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
    W = [0] * group.order
    one = Polynomial.one(spec)
    for S in itertools.combinations(pts, j):
        prod = one
        for a in S:
            prod = prod * Polynomial(spec, (spec.neg(a), spec.one))
        for g in enumerate_monic(spec, deg_g):
            cls = group.class_of(g * prod)
            if cls is not None:
                W[cls] += 1
    return W


def _elementary_symmetric(values: list[complex], j: int) -> complex:
    e = [complex(1)] + [complex(0)] * j
    for v in values:
        for idx in range(min(j, len(e) - 1), 0, -1):
            e[idx] += e[idx - 1] * v
    return e[j]


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
    value = complex(main)
    point_classes = _point_classes(group, pts)
    for chi in table.nontrivial():
        sg = character_sum(table, chi, deg_g, group, budget)
        vals = [table.value(chi, cls) for cls in point_classes]
        ej = _elementary_symmetric(vals, j)
        value += table.value(chi, eps).conjugate() * sg * ej / group.order
    return FactorizationSplit(value, main, abs(value - complex(main)))


# ---------------------------------------------------------------------------
# Group-algebra series identities
# ---------------------------------------------------------------------------

@dataclass
class GroupAlgebraSeries:
    """Truncated series with group-algebra coefficients: slice[d][class] is the
    integer coefficient of z^d times that class."""

    truncation: int
    slices: list[list[int]]

    def slice(self, d: int) -> list[int]:
        return self.slices[d]


def monic_series(group: ClassGroup, d_max: int, budget: int | None = None) -> GroupAlgebraSeries:
    """The series sum over monic f of <f> z^deg(f), truncated at z^d_max
    (non-coprime polynomials carry class 0 and are dropped)."""
    slices = [group.monic_class_counts(d, budget) for d in range(d_max + 1)]
    return GroupAlgebraSeries(d_max, slices)


def _group_convolve(group: ClassGroup, u: list[int], v: list[int]) -> list[int]:
    out = [0] * group.order
    mul_table = group.mul_table
    for i, ui in enumerate(u):
        if ui:
            row = mul_table[i]
            for jj, vj in enumerate(v):
                if vj:
                    out[int(row[jj])] += ui * vj
    return out


@dataclass
class CheckRecord:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class SeriesReport:
    checks: list[CheckRecord]
    work: dict  # polynomials classified one at a time, and the oracle's comparisons

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
      the (u-1)^j factor is the sieve's subset-product table, so this checks
      it against enumeration;
    * moment slice: for each k with k+t+ell <= d_max, the degree-(k+t+ell)
      slice matches C(n,j) q^(k-j) for j <= k and the factorization counts
      for j > k, against the enumeration oracle's distributions.
    """
    params = group.params
    spec = params.spec
    pts = _validated_points(params, points)
    n = len(pts)
    t, ell = params.t, params.ell
    checks: list[CheckRecord] = []

    F = monic_series(group, d_max, budget)
    for d in range(t + ell, d_max + 1):
        want = spec.q ** (d - t - ell)
        ok = all(c == want for c in F.slice(d))
        checks.append(CheckRecord(f"geometric tail, degree {d}", ok, f"expected q^{d - t - ell} per class"))

    # joint enumeration: counts[d][class][r]
    joint = [
        [[0] * (n + 1) for _ in range(group.order)] for _ in range(d_max + 1)
    ]
    work = {"polynomials_checked": 0, "comparisons": 0}
    for d in range(d_max + 1):
        check_budget(f"monic enumeration q^{d}", spec.q ** d, budget)
        work["polynomials_checked"] += spec.q ** d
        for f in enumerate_monic(spec, d):
            cls = group.class_of(f)
            if cls is None:
                continue
            joint[d][cls][distinct_roots_in(f, pts)] += 1

    sub = subset_product_table(group, pts, 0, n)

    for d in range(d_max + 1):
        for j in range(min(d, n) + 1):
            rhs = _group_convolve(group, F.slice(d - j), sub[j].tolist())
            lhs = [
                sum(math.comb(r, j) * joint[d][cls][r] for r in range(n + 1))
                for cls in range(group.order)
            ]
            ok = lhs == rhs
            checks.append(
                CheckRecord(
                    f"product slice z^{d} (u-1)^{j}",
                    ok,
                    "" if ok else f"lhs={lhs} rhs={rhs}",
                )
            )

    for k in range(0, d_max - t - ell + 1):
        dists = enumeration_distributions_all(group, k, pts, budget)
        work["comparisons"] += enumeration_comparisons(group, k, n)
        Ws = {
            j: factorization_counts(group, j, k, pts, budget)
            for j in range(k + 1, k + t + ell + 1)
        }
        for eps in range(group.order):
            counts = dists[eps].counts
            for j in range(0, k + t + ell + 1):
                got = sum(math.comb(r, j) * c for r, c in counts.items())
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
    rows = []
    for eps in range(group.order):
        row = RSDistanceRow(group.reps[eps], k, ell, dict(dists[eps].counts), dists[eps].total)
        rows.append(row)
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
        for f in enumerate_monic(spec, k + ell):
            eps = group.class_of(f)
            words.append({"word": f.to_text(), "eps": eps, "kind": per_class[eps]["kind"]})
        out["words"] = words
    return out
