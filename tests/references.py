"""Object-level reference routes that only the tests use.

Each is an independent way to a quantity the library computes by another
route, or a formula the tests check the library's formulas against: a
brute force over all monic polynomials of one degree, the codeword
enumeration behind a Reed-Solomon distance row, the members of a Hayes
class listed one polynomial at a time, the roots of a polynomial by
evaluation, the cycle counts of a literal permutation, and the Reed-Solomon
specialization of the mu-corrected mass, the class-group decomposition
with its power ladders run to the end, the class at an exponent tuple,
products, inverses and quotients of classes as sums and differences of
exponent tuples, a degree-d member of a class as a `Polynomial`, character
values from exact phases, and the truncated-binomial verdicts of
`bounds-check` cell by cell.
"""

import itertools
import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from hayesdist.asym import mu_binomial_pmf
from hayesdist.dist import ZeroDistribution, default_point_set
from hayesdist.ffield import FqElement, Polynomial, distinct_roots_in, enumerate_monic
from hayesdist.hayes import _orders_mod, _prime_powers


def exact_distribution_bruteforce(group, eps: int, k: int, points=None) -> ZeroDistribution:
    """Filter all of M_(k+t+ell) by class and count the roots of each member of eps."""
    params = group.params
    spec = params.spec
    pts = default_point_set(params) if points is None else tuple(sorted(set(points)))
    polys = list(enumerate_monic(spec, k + params.t + params.ell))
    classes = group.classes_of([f.index_coeffs() for f in polys]).tolist()
    counts: dict[int, int] = {}
    for f, cls in zip(polys, classes):
        if cls == eps:
            r = distinct_roots_in(f, pts)
            counts[r] = counts.get(r, 0) + 1
    return ZeroDistribution(params, eps, k, pts, counts, spec.q ** k)


def enumerate_below_degree(spec, k: int) -> Iterator[Polynomial]:
    """All q^k polynomials of degree < k (the zero polynomial included)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    for cs in itertools.product(spec.elements, repeat=k):
        yield Polynomial(spec, cs)


def members(group, eps: int, d: int) -> Iterator[Polynomial]:
    """All q^(d - t - ell) monic degree-d members of class eps.

    The members are exactly base + h*Q over all h of degree < d - t - ell, with
    base = `member_base(group, eps, d)`: adding h*Q (degree <= d - ell - 1)
    touches neither the ell leading coefficients nor the residue mod Q.
    """
    base = member_base(group, eps, d)
    params = group.params
    for h in enumerate_below_degree(params.spec, d - params.t - params.ell):
        yield base + h * params.Q


def codeword_agreement_row(f: Polynomial, k: int) -> dict[int, int]:
    """Enumerate all q^k codewords g (deg < k) and histogram
    #{x in GF(q) : g(x) = f(x)} directly."""
    spec = f.spec
    f_vals = [f(a) for a in spec.elements]
    counts: dict[int, int] = {}
    for combo in itertools.product(spec.elements, repeat=k):
        g = Polynomial(spec, combo)
        agree = sum(1 for a, fv in zip(spec.elements, f_vals) if g(a) == fv)
        counts[agree] = counts.get(agree, 0) + 1
    return counts


def zeros_of(f: Polynomial) -> tuple[FqElement, ...]:
    """The roots of f in the base field, in element order."""
    if f.is_zero:
        return f.spec.elements
    zero = f.spec.zero
    return tuple(alpha for alpha in f.spec.elements if f(alpha) == zero)


class CycleStats(NamedTuple):
    """Cycle counts of a permutation: all cycles, and those whose length is
    not a multiple of the characteristic p.  Always 0 <= off_p <= total <= j."""

    total: int
    off_p: int


def cycle_stats(perm: Sequence[int], p: int) -> CycleStats:
    """CycleStats of a permutation given in one-line notation (perm[i] = image of i)."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            length += 1
            i = perm[i]
        if length:
            lengths.append(length)
    return CycleStats(len(lengths), sum(1 for n in lengths if n % p != 0))


def rs_count_asymptotic(r: int, q: int, k: int, ell: int) -> Fraction:
    """Asymptotic N(f, r) for Reed-Solomon rows: mu_(k+ell-r)(r) C(q, r) q^(k-r).

    This is the t = 0, n = q specialization of mu_binomial_pmf scaled by q^k;
    it is strictly positive at r = k + ell, which is what forces every
    received word to be ordinary once the asymptotics take hold."""
    if not 0 <= r <= k + ell:
        raise ValueError("need 0 <= r <= k+ell")
    return q ** k * mu_binomial_pmf(r, q, q, k, 0, ell)


def decompose_uncut(group):
    """`ClassGroup._decompose` with every ladder run to all of its v rungs
    x^(|G|/p^v), ..., x^(|G|/p), the rows of identities included: the
    (generators, orders, place -> class, exponents) it finds, from the group's
    batched products of representatives alone."""
    n = group.order
    everything = np.arange(n)
    ladders = []
    for p, v in _prime_powers(n):
        rung = group._power(everything, n // p ** v)
        ladder = [rung]
        for _ in range(v - 1):
            ladder.append(rung := group._power(rung, p))
        ladders.append((p, np.array(ladder)))
    member = everything == group.identity
    order = _orders_mod(ladders, member)
    elements = np.array([group.identity])
    generators, orders = [], []
    while len(elements) < n:
        quotient = _orders_mod(ladders, member)
        m = int(quotient.max())
        g = int(np.flatnonzero((quotient == m) & (order == m))[0])
        powers = np.array([group.identity, g])
        while len(powers) < m:  # g^0..g^(2L-1) from g^0..g^(L-1) and g^L
            powers = np.concatenate([powers, group._products(powers, group._products(powers[-1:], g))])
        elements = group._products(np.repeat(elements, m), np.tile(powers[:m], len(elements)))
        member[elements] = True
        generators.append(g)
        orders.append(m)
    strides = np.array([math.prod(orders[i + 1:]) for i in range(len(orders))], dtype=np.int64)
    exponents = np.empty((n, len(orders)), dtype=np.int64)
    exponents[elements] = everything[:, None] // strides % np.array(orders, dtype=np.int64)
    return tuple(generators), tuple(orders), elements, exponents


def class_at(group, exponents: np.ndarray) -> np.ndarray:
    """Classes with the exponent tuples in the last axis (taken mod the
    orders): the class at the place sum_i e_i * prod(orders after i) of the
    grid."""
    orders = group.orders
    strides = np.array([math.prod(orders[i + 1:]) for i in range(len(orders))], dtype=np.int64)
    return group._eps_of[exponents % np.array(orders, dtype=np.int64) @ strides]


def mul(group, i: int, j: int) -> int:
    """Class of the product of classes i and j: the sum of their exponent tuples."""
    return int(class_at(group, group.exponents(i) + group.exponents(j)))


def inv(group, i: int) -> int:
    """Class of the inverse of class i: its exponent tuple negated."""
    return int(class_at(group, -group.exponents(i)))


def quotient_rows(group, cs) -> np.ndarray:
    """Classes i * c^-1 for each class c in cs (rows) and every class i
    (columns): the classes at the differences of their exponent tuples,
    formed whole as a len(cs) x |G| x m array."""
    exponents = group.exponents(range(group.order))
    return class_at(group, exponents[None, :, :] - exponents[np.asarray(cs, dtype=np.intp)][:, None, :])


def member_base(group, eps: int, d: int) -> Polynomial:
    """A monic degree-d member of class eps, as a `Polynomial`: x^k * rep,
    k = d - t - ell, residue-corrected (the object form of
    `ClassGroup.member_base_rows`)."""
    params = group.params
    k = d - params.t - params.ell
    if k < 0:
        raise ValueError(f"degree must be >= t + ell = {params.t + params.ell}")
    rep = group.rep(eps)
    f0 = rep * Polynomial.monomial(params.spec, k)
    if params.t > 0:
        f0 = f0 + (rep % params.Q) - (f0 % params.Q)
    return f0


def character_values(table, classes) -> np.ndarray:
    """chi(c) for every character chi of a `CharacterTable` (rows) and each
    class c of `classes` (columns), from the exact phase
    sum_i e_i d_i N/n_i mod N."""
    N = math.lcm(*table.orders)
    weights = np.array([N // n for n in table.orders], dtype=np.int64)
    d = table._group.exponents(classes) * weights
    return np.exp(2j * np.pi * ((table.exponents @ d.T) % N / N))


def truncated_binomial_verdicts_per_cell():
    """The truncated-binomial floor and proximity verdicts of every cell
    (n, qq, r, m) with n <= 12, 2 <= qq <= 9, r <= n and m <= 12, one
    running numerator per (n, qq, r), yielded as (n, qq, r, m, floor, close):
    the per-cell loop that `commands.bounds_check.truncated_binomial_verdicts`
    folds to one cell per (n - r, qq, m)."""
    for n in range(13):
        for qq in range(2, 10):
            for r in range(n + 1):
                N = n - r
                full = (qq - 1) ** N
                num = 0
                for m in range(13):
                    num = num * qq + (-1) ** m * math.comb(N, m)
                    floor = num >= (qq - N) * qq ** (m - 1) if m >= 1 else None
                    close = abs(num * qq ** (N + 1) - full * qq ** (m + 1)) <= math.comb(N, m + 1) * qq ** N
                    yield n, qq, r, m, floor, close
