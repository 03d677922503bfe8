"""The rows W_j of `dist.moment_rows` in the character domain, exactly, by
transforms modulo word-sized primes (Pollard, "The fast Fourier transform in
a finite field", Math. Comp. 1971).

A character chi of the class group G sends every class to an N-th root of
unity, N the exponent of G.  For the points a of D,

* H(c) = #{a : <x - a> = c} has the transform H^(chi) = sum_c H(c) chi(c),
  and the power sums of the point characters are its values at the powers
  of chi: p_i(chi) = sum_a chi(x - a)^i = H^(chi^i);
* S_j(c), the j-subsets of D with product class c, has the transform
  S^_j(chi) = e_j(chi(x - a) : a in D), and F(z) = prod_a (1 + chi(x - a) z)
  satisfies (1 - (-z)^N) F' = (sum_(i<N) (-1)^i p_(i+1) z^i) F, so

      j e_j = sum_(i=1)^(min(N, j)) (-1)^(i-1) p_i e_(j-i) + (-1)^N (j - N) e_(j-N),

  the last term only for j > N: Newton's identities while j <= N, an
  order-N recurrence after, O(j min(N, j)) per character;
* W_j = S_j * N_(d-j) (the group-algebra product) is the inverse transform
  of S^_j N^_(d-j).

All of it runs in F_P for primes P = 1 (mod N) in (2^bits, 2^(bits+1)), each
with a primitive N-th root of unity, and the rows are rebuilt from their
residues by Garner's CRT; the caller picks enough primes for the rows'
bound.  Each cyclic factor of G is split into prime-power axes by CRT
re-indexing (Z/n = prod Z/p^v), and a transform is one matrix product per
axis, so it costs |G| times the sum of the axis sizes, not |G| times the
factor orders.  Residues stay below 2^25 and a matrix has at most 2^12
columns, so every sum of products fits in int64.
"""

from __future__ import annotations

import math

import numpy as np

from .ffield import _is_prime
from .hayes import ClassGroup, _prime_powers


def _grid(group: ClassGroup) -> tuple[list[int], np.ndarray]:
    """The prime-power axes of the group (each cyclic factor split by CRT)
    and every class's place on their grid, first axis slowest, from the
    exponents of one factor at a time."""
    sizes = []
    place = np.zeros(group.order, dtype=np.int64)
    for column, order in zip(group._exponent_columns(np.arange(group.order)), group.orders):
        for p, v in _prime_powers(order):
            sizes.append(p ** v)
            place = place * p ** v + column % p ** v
    return sizes, place


def _power_places(sizes: list[int], i: int) -> np.ndarray:
    """The place of chi^i for the character chi at every place of the grid."""
    places = np.zeros(1, dtype=np.int64)
    for m in sizes:
        places = (places[:, None] * m + i * np.arange(m) % m).ravel()
    return places


def primes(N: int, count: int, bits: int) -> list[int]:
    """The `count` largest primes P = 1 (mod N) in (2^bits, 2^(bits+1)),
    3 <= bits <= 24."""
    out = []
    P = ((1 << bits + 1) - 2) // N * N + 1
    while len(out) < count and P > 1 << bits:
        if _is_prime(P):
            out.append(P)
        P -= N
    if len(out) < count:
        raise RuntimeError(f"fewer than {count} primes 1 mod {N} in (2^{bits}, 2^{bits + 1})")
    return out


def _root(P: int, m: int) -> int:
    """An element of order exactly m = p^v in F_P^* (m divides P - 1)."""
    p = _prime_powers(m)[0][0]
    x = 2
    while pow(x, (P - 1) // p, P) == 1:
        x += 1
    return pow(x, (P - 1) // m, P)


class _Transforms:
    """The forward and inverse transforms on the grid mod one prime P."""

    def __init__(self, P: int, sizes: list[int]):
        self.P = P
        self.sizes = sizes
        self.forward, self.inverse = {}, {}
        for m in set(sizes):
            w = _root(P, m)
            table = [1]
            for _ in range(m - 1):
                table.append(table[-1] * w % P)
            table = np.array(table, dtype=np.int64)
            exponents = np.outer(np.arange(m), np.arange(m))
            self.forward[m] = table[exponents % m]
            self.inverse[m] = table[-exponents % m]
        self.scale = pow(math.prod(sizes), -1, P)

    def _apply(self, x: np.ndarray, mats: dict) -> np.ndarray:
        shape = self.sizes
        for axis, m in enumerate(shape):
            x = mats[m] @ x.reshape(math.prod(shape[:axis]), m, -1) % self.P
        return x.reshape(-1)

    def forward_of(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x, self.forward)

    def inverse_of(self, x: np.ndarray) -> np.ndarray:
        return self._apply(x, self.inverse) * self.scale % self.P


def _crt(residues: np.ndarray, moduli: list[int]) -> np.ndarray:
    """The integers in [0, prod moduli) with these residues (one row per
    modulus), by Garner's mixed-radix digits: an object array of Python integers."""
    digits = []
    for k, P in enumerate(moduli):
        t = residues[k]
        for digit, Q in zip(digits, moduli):
            t = (t - digit) % P * pow(Q, -1, P) % P
        digits.append(t)
    x = digits[-1].astype(object)
    for digit, Q in zip(digits[-2::-1], moduli[-2::-1]):
        x = x * Q + digit.astype(object)
    return x


def character_rows(
    group: ClassGroup, classes: list[int], wanted: list[tuple[int, list[int]]], count: int, bits: int
) -> list[np.ndarray]:
    """W_j = S_j * N for each row (j, N) of `wanted` (j >= 1), in order, where
    S_j counts the j-subsets of the points of `classes` (the class of x - a
    for every point a) by the class of their product: object arrays of
    Python integers, exact when every W_j lies in [0, 2^(bits count)).  One
    recurrence up to the highest j gives S^_j to every row at that j."""
    sizes, place = _grid(group)
    N = math.lcm(*group.orders)
    moduli = primes(N, count, bits)
    P = np.array(moduli, dtype=np.int64)[:, None]
    transforms = [_Transforms(p, sizes) for p in moduli]

    def forward(grid: np.ndarray) -> np.ndarray:
        return np.stack([t.forward_of(grid % t.P) for t in transforms])

    at: dict[int, list[int]] = {}  # j -> the rows of `wanted` at j
    for i, (j, _) in enumerate(wanted):
        at.setdefault(j, []).append(i)
    j_hi = max(at)
    H = forward(np.bincount(place[classes], minlength=group.order))
    window = min(N, j_hi)
    # (-1)^(i-1) p_i for i = 1..window
    power_sums = [(-1) ** (i - 1) * H[:, _power_places(sizes, i)] % P for i in range(1, window + 1)]
    e = [np.ones_like(H)]  # e_(j-window)..e_(j-1), e_0 first
    rows = [None] * len(wanted)
    for j in range(1, j_hi + 1):
        acc = sum(power_sums[i - 1] * e[-i] for i in range(1, min(N, j) + 1))
        if j > N:
            acc = acc + (-1) ** N * (j - N) % P * e[-N]
        e.append(acc % P * np.array([pow(j, -1, p) for p in moduli], dtype=np.int64)[:, None] % P)
        del e[:-window]
        for i in at.get(j, ()):
            grid = np.empty(group.order, dtype=np.int64)
            grid[place] = wanted[i][1]
            spectrum = e[-1] * forward(grid) % P
            residues = np.stack([t.inverse_of(s) for t, s in zip(transforms, spectrum)])
            rows[i] = _crt(residues[:, place], moduli)
    return rows
