"""Exact combinatorial kernels.

Everything probability-bearing here is a `fractions.Fraction`; only the
Stirling-type binomial lower bound returns a float (it is an inequality
endpoint, not an identity).

The cycle-weighted permutation average

    A_j(a, b) = (1/j!) * sum over tau in S_j of a^l(tau) * b^l'(tau),

where l counts all cycles and l' the cycles whose length is not divisible
by the characteristic p, is computed by three independent routes: a
cycle-type sum over integer partitions, a power-series coefficient of
(1-z)^(-ab) * (1-z^p)^(-(a-ab)/p), and a closed double sum.  Agreement of
the three is part of the test surface, so none of them may be collapsed
into another.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import check_budget

RationalLike = Fraction | int


def binom_frac(x: RationalLike, m: int) -> Fraction:
    """Generalized binomial coefficient C(x, m) = x(x-1)...(x-m+1)/m! for rational x."""
    if m < 0:
        return Fraction(0)
    num = Fraction(1)
    for i in range(m):
        num *= Fraction(x) - i
    return num / math.factorial(m)


def truncated_binomial_numerators(N: int, q: int):
    """The running numerators num_m = num_(m-1) q + (-1)^m C(N, m), from
    num_(-1) = 0, for m = 0, 1, 2, ...: sum_{j=0}^{m} (-1)^j C(N, j) q^-j is
    num_m / q^m (Horner's rule)."""
    num = 0
    for m in itertools.count():
        num = num * q + (-1) ** m * math.comb(N, m)
        yield num


def truncated_binomial_sum(m: int, r: int, n: int, q: int) -> Fraction:
    """Partial alternating sum  sum_{j=0}^{m} (-1)^j C(n-r, j) q^-j.

    This is the order-m truncation of the binomial expansion of
    (1 - 1/q)^(n-r); it appears as the correction factor in the asymptotic
    zero-count formulas.  It is built as one integer numerator over q^m,
    the running numerator of `truncated_binomial_numerators` at
    min(m, n-r) times q^(m - min(m, n-r)).
    """
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    if q < 2:
        raise ValueError("need q >= 2")
    if m < 0:
        raise ValueError("need m >= 0")
    top = min(m, n - r)  # C(n-r, j) = 0 past j = n-r
    num = next(itertools.islice(truncated_binomial_numerators(n - r, q), top, None))
    return Fraction(num * q ** (m - top), q ** m)


def partitions(j: int):
    """Integer partitions of j as non-increasing part tuples."""
    if j == 0:
        yield ()
        return
    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))
    yield from rec(j, j, ())


def cycle_type_class_size(parts: Sequence[int], j: int) -> int:
    """Number of permutations in S_j with the given cycle type."""
    counts: dict[int, int] = {}
    for part in parts:
        counts[part] = counts.get(part, 0) + 1
    denom = 1
    for length, c in counts.items():
        denom *= length ** c * math.factorial(c)
    return math.factorial(j) // denom


def _check_cycle_args(j: int, p: int) -> None:
    """The degree j and the cycle-length modulus p of a cycle average."""
    if j < 0:
        raise ValueError("need j >= 0")
    if p < 1:
        raise ValueError(f"need p >= 1, got p={p}")


CYCLE_AVERAGE_WORDS = "cycle-average operand words"


def cycle_average_work(j: int, a: RationalLike, b: RationalLike, p: int) -> int:
    """The operand words (64 bits) that the series and closed routes of
    A_j(a, b) multiply: the work that `kernels cycle-average` budgets.

    Both routes build running products of rational factors such as
    (ab + m)/(m + 1), one per step; after m steps the product has at most
    m * h bits, with h the bits of a, b and p plus twice those of j + 1, and
    a step is counted as the size of its running operand.  The series route
    makes j steps for its first list and j // p for its second, then j + 1
    products of full-size (j h bits) coefficients; the closed route makes
    j - ip and i steps for each i <= I = j // p, then one full-size product."""
    _check_cycle_args(j, p)
    a, b = Fraction(a), Fraction(b)
    h = sum(x.bit_length() for x in (a.numerator, a.denominator, b.numerator, b.denominator, p))
    h += 2 * (j + 1).bit_length()
    big_i = j // p

    def steps(m: int) -> int:  # 1 + 2 + ... + m
        return m * (m + 1) // 2

    series = steps(j) + steps(big_i) + (j + 1) * j
    # sum_{i <= I} steps(j - ip) = (s2 + s1) / 2 with s_e = sum_{i <= I} (j - ip)^e
    s1 = (big_i + 1) * j - p * steps(big_i)
    s2 = (big_i + 1) * j * j - 2 * j * p * steps(big_i) + p * p * big_i * (big_i + 1) * (2 * big_i + 1) // 6
    closed = (s2 + s1) // 2 + big_i * (big_i + 1) * (big_i + 2) // 6 + (big_i + 1) * j
    return h * (series + closed) // 64


def cycle_average_bruteforce(j: int, a: RationalLike, b: RationalLike, p: int, budget: int = 9) -> Fraction:
    """A_j(a, b) summed over cycle types (partitions), weighted by class size."""
    _check_cycle_args(j, p)
    check_budget("cycle-type enumeration degree", j, budget)
    a = Fraction(a)
    b = Fraction(b)
    total = Fraction(0)
    for parts in partitions(j):
        l = len(parts)
        l_prime = sum(1 for part in parts if part % p != 0)
        total += cycle_type_class_size(parts, j) * a ** l * b ** l_prime
    return total / math.factorial(j)


def cycle_average_series(j: int, a: RationalLike, b: RationalLike, p: int) -> Fraction:
    """A_j(a, b) as [z^j] (1-z)^(-ab) (1-z^p)^(-(a-ab)/p), by series convolution."""
    _check_cycle_args(j, p)
    a = Fraction(a)
    b = Fraction(b)
    ab = a * b
    beta = (a - ab) / p
    # (1-z)^(-ab): coefficients via the recurrence c_{m+1} = c_m (ab+m)/(m+1)
    first = [Fraction(1)]
    for m in range(j):
        first.append(first[-1] * (ab + m) / (m + 1))
    # (1-z^p)^(-beta): supported on multiples of p
    second = [Fraction(0)] * (j + 1)
    c = Fraction(1)
    i = 0
    while i * p <= j:
        second[i * p] = c
        c = c * (beta + i) / (i + 1)
        i += 1
    return sum(first[m] * second[j - m] for m in range(j + 1))


def cycle_average_closed(j: int, a: RationalLike, b: RationalLike, p: int) -> Fraction:
    """A_j(a, b) by the closed double sum
    sum_{0 <= i <= j/p} C(ab+j-ip-1, j-ip) * C((a-ab)/p + i - 1, i)."""
    _check_cycle_args(j, p)
    a = Fraction(a)
    b = Fraction(b)
    ab = a * b
    beta = (a - ab) / p
    total = Fraction(0)
    for i in range(j // p + 1):
        total += binom_frac(ab + j - i * p - 1, j - i * p) * binom_frac(beta + i - 1, i)
    return total


def _cycles_of(perm: Sequence[int]) -> list[list[int]]:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = perm[i]
        cycles.append(cyc)
    return cycles


def coordinate_sieve_check(
    j: int,
    D: Sequence,
    h: Mapping[tuple, RationalLike] | Callable[[tuple], RationalLike],
    budget: int | None = None,
) -> tuple[Fraction, Fraction]:
    """Evaluate both sides of the coordinate sieve (Li-Wan) identity.

    Returns (direct, sieved) where direct sums h over j-tuples of *distinct*
    elements of D, and sieved is  sum over tau in S_j of (-1)^(j - l(tau))
    times the sum of h over tuples constant on each cycle of tau.  The two
    are equal; both are returned so callers can assert it.
    """
    check_budget("tuple enumeration |D|^j", len(D) ** j, budget)
    hf = h if callable(h) else h.__getitem__

    direct = Fraction(0)
    for xs in itertools.permutations(D, j):
        direct += Fraction(hf(xs))

    sieved = Fraction(0)
    for perm in itertools.permutations(range(j)):
        cycles = _cycles_of(perm)
        sign = (-1) ** (j - len(cycles))
        sub = Fraction(0)
        for values in itertools.product(D, repeat=len(cycles)):
            xs = [None] * j
            for cyc, v in zip(cycles, values):
                for i in cyc:
                    xs[i] = v
            sub += Fraction(hf(tuple(xs)))
        sieved += sign * sub
    return direct, sieved


def binomial_lower_bound(M: int, m: int) -> float:
    """Stirling-type lower bound for C(M, m), valid for 0 < m < M:

    sqrt(M / (2 pi m (M-m))) * (M/m)^m * (M/(M-m))^(M-m) * e^(-1/6).
    """
    if not 0 < m < M:
        raise ValueError("need 0 < m < M")
    return (
        math.sqrt(M / (2 * math.pi * m * (M - m)))
        * (M / m) ** m
        * (M / (M - m)) ** (M - m)
        * math.exp(-1 / 6)
    )
