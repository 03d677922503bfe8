"""Asymptotic formulas, certified error envelopes, and regime predicates.

Identities and envelopes that are exactly rational (binomial pmf, the
mu-corrected pmf, the 2/(k-r)! envelope) are returned as Fractions so the
verification layer can compare them with zero tolerance.  Quantities that
are genuinely irrational (Poisson masses, the log bounds on the cycle
averages) are floats.

The certified upper bounds for the factorization-count remainder and the
pmf remainder round every non-exact ingredient upward: sqrt(q) is replaced
by a >= 60-bit rational upper bound, and the cycle average A_j(n, gamma) is
evaluated exactly at that upper gamma (it is nondecreasing in gamma >= 0).
A "bound dominates exact value" conclusion from these functions is
therefore machine-checked, not float-trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .comb import cycle_average_series, truncated_binomial_sum
from .errors import HypothesisError

SQRT_BITS = 60


def sqrt_upper(value: int, bits: int = SQRT_BITS) -> Fraction:
    """Rational upper bound on sqrt(value), exact for perfect squares."""
    if value < 0:
        raise ValueError("need value >= 0")
    s = math.isqrt(value)
    if s * s == value:
        return Fraction(s)
    scale = 1 << bits
    num = math.isqrt(value * scale * scale)
    while num * num < value * scale * scale:
        num += 1
    return Fraction(num, scale)


def characteristic_of(q: int) -> int:
    """The prime p with q = p^a; rejects non-prime-powers."""
    if q < 2:
        raise ValueError("need q >= 2")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    m = q
    while m % p == 0:
        m //= p
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p


# ---------------------------------------------------------------------------
# Limit shapes of the zero-count distribution
# ---------------------------------------------------------------------------

def binomial_pmf(r: int, n: int, q: int) -> Fraction:
    """C(n, r) q^-r (1 - 1/q)^(n-r), the binomial limit mass at r (exact)."""
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    return math.comb(n, r) * Fraction(1, q) ** r * Fraction(q - 1, q) ** (n - r)


def poisson_pmf(r: int, n: int, q: int) -> float:
    """e^(-n/q) (n/q)^r / r!, the Poisson limit mass at r (mean n/q)."""
    if r < 0:
        raise ValueError("need r >= 0")
    lam = n / q
    return math.exp(-lam) * lam ** r / math.factorial(r)


def binomial_envelope(r: int, n: int, q: int, k: int) -> Fraction:
    """2/(k-r)! * C(n, r) q^-r: a proven bound on the distance between the
    exact mass at r and binomial_pmf, valid for r < k."""
    if r >= k:
        raise ValueError("the envelope requires r < k")
    return Fraction(2, math.factorial(k - r)) * math.comb(n, r) * Fraction(1, q) ** r


def mu_binomial_pmf(r: int, n: int, q: int, k: int, t: int, ell: int) -> Fraction:
    """mu_(k+t+ell-r)(r) * C(n, r) q^-r: the uniform-in-r asymptotic mass."""
    if not 0 <= r <= k + t + ell:
        raise ValueError("need 0 <= r <= k+t+ell")
    if r > n:
        return Fraction(0)  # the C(n, r) factor vanishes
    return truncated_binomial_sum(k + t + ell - r, r, n, q) * Fraction(math.comb(n, r), q ** r)


def rs_count_asymptotic(r: int, q: int, k: int, ell: int) -> Fraction:
    """Asymptotic N(f, r) for Reed-Solomon rows: mu_(k+ell-r)(r) C(q, r) q^(k-r).

    This is the t = 0, n = q specialization of mu_binomial_pmf scaled by q^k;
    it is strictly positive at r = k + ell, which is what forces every
    received word to be ordinary once the asymptotics take hold."""
    if not 0 <= r <= k + ell:
        raise ValueError("need 0 <= r <= k+ell")
    return q ** k * mu_binomial_pmf(r, q, q, k, 0, ell)


# ---------------------------------------------------------------------------
# Certified remainder bounds
# ---------------------------------------------------------------------------

def _q_half_power_upper(q: int, e: int) -> Fraction:
    """Upper bound on q^(e/2), exact when e is even."""
    if e < 0:
        raise ValueError("need e >= 0")
    half, odd = divmod(e, 2)
    out = Fraction(q) ** half
    if odd:
        out *= sqrt_upper(q)
    return out


def gamma_upper(n: int, q: int, t: int, ell: int) -> Fraction:
    """Upper rational value of gamma = (t + ell - 1) sqrt(q) / n."""
    if n <= 0:
        raise ValueError("need n >= 1")
    return (t + ell - 1) * sqrt_upper(q) / n


def gamma_at_most_one(n: int, q: int, t: int, ell: int) -> bool:
    """Exact test of gamma <= 1 (no rounding: compares (t+ell-1)^2 q with n^2)."""
    return (t + ell - 1) ** 2 * q <= n * n


def w_remainder_bound(
    j: int, n: int, q: int, k: int, t: int, ell: int, group_order: int
) -> Fraction:
    """Certified upper bound on |W_j(eps) - main term|:

        (|E|-1)/|E| * C(t+ell-1, t+ell+k-j) * q^((t+ell+k-j)/2) * A_j(n, gamma),

    valid for ell >= 1 and gamma <= 1.  All roundings are upward."""
    if ell < 1:
        raise HypothesisError("the remainder bound requires ell >= 1")
    if not gamma_at_most_one(n, q, t, ell):
        raise HypothesisError("the remainder bound requires gamma <= 1")
    if not k + 1 <= j <= k + t + ell:
        raise ValueError("need k+1 <= j <= k+t+ell")
    p = characteristic_of(q)
    g_up = gamma_upper(n, q, t, ell)
    e = t + ell + k - j
    return (
        Fraction(group_order - 1, group_order)
        * math.comb(t + ell - 1, e)
        * _q_half_power_upper(q, e)
        * cycle_average_series(j, n, g_up, p)
    )


def pmf_remainder_bound(r: int, n: int, q: int, k: int, t: int, ell: int) -> Fraction:
    """Certified upper bound on the distance between the exact mass at r and

        mu_(k-r)(r) C(n,r) q^-r
        + C(n,r) q^-(k+ell) sum_j (-1)^(j-r) C(n-r, j-r) Phi_(k+t+ell-j)/Phi_t,

    namely q^-k sum_{j=k+1}^{k+t+ell} C(j,r) C(t+ell-1, k+t+ell-j)
    q^((k+t+ell-j)/2) A_j(n, gamma).  Upward-rounded like w_remainder_bound."""
    if ell < 1:
        raise HypothesisError("the remainder bound requires ell >= 1")
    p = characteristic_of(q)
    g_up = gamma_upper(n, q, t, ell)
    total = Fraction(0)
    for j in range(k + 1, k + t + ell + 1):
        e = k + t + ell - j
        total += (
            math.comb(j, r)
            * math.comb(t + ell - 1, e)
            * _q_half_power_upper(q, e)
            * cycle_average_series(j, n, g_up, p)
        )
    return total / Fraction(q) ** k


def log_cycle_average_bound(j: int, n: int, gamma, p: int, variant: str) -> float:
    """Upper bound on ln A_j(n, gamma).

    variant "a" (valid for 1 <= j <= n, 0 <= gamma <= 1):
        j/p ln((n+j)/j) + n(1-gamma)/p ln((n+j)/n) + n gamma ln(2p)
    variant "b" (valid for 1 <= j <= 2 p n gamma, 0 < gamma <= 1):
        j ln((n gamma + j)/j) + n gamma ln((n gamma + j)/(n gamma))
        + n(1-gamma)/p ln 3
    """
    g = float(gamma)
    if n < 1 or j < 1:
        raise HypothesisError("need n >= 1 and j >= 1")
    if variant == "a":
        if j > n or not 0 <= g <= 1:
            raise HypothesisError("variant a requires 1 <= j <= n and gamma in [0, 1]")
        return (
            j / p * math.log((n + j) / j)
            + n * (1 - g) / p * math.log((n + j) / n)
            + n * g * math.log(2 * p)
        )
    if variant == "b":
        if not 0 < g <= 1 or j > 2 * p * n * g:
            raise HypothesisError("variant b requires gamma in (0, 1] and j <= 2 p n gamma")
        ng = n * g
        return (
            j * math.log((ng + j) / j)
            + ng * math.log((ng + j) / ng)
            + n * (1 - g) / p * math.log(3)
        )
    raise ValueError("variant must be 'a' or 'b'")


# ---------------------------------------------------------------------------
# Regime predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Regime:
    """Finite parameters and the derived regime coordinates c and gamma."""

    q: int
    k: int
    t: int
    ell: int
    n: int
    delta0: float = 0.05

    def __post_init__(self):
        if self.delta0 <= 0:
            raise ValueError("delta0 must be positive")
        if not 0 < self.k < self.q:
            raise ValueError("regime evaluation needs 0 < c = k/q < 1")

    @property
    def p(self) -> int:
        return characteristic_of(self.q)

    @property
    def c(self) -> float:
        return self.k / self.q

    @property
    def gamma(self) -> float:
        return (self.t + self.ell - 1) * math.sqrt(self.q) / self.n


@dataclass(frozen=True)
class ConditionResult:
    """Truth value of a regime inequality plus its two sides and advisories."""

    holds: bool
    lhs: float
    rhs: float
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.holds


def condition_a(p: int, c: float, gamma: float, delta0: float) -> ConditionResult:
    """(p-1)/p c ln(1/c) + (1-c) ln(1/(1-c)) - (1+c)/p ln(1+c)
       >= gamma ln(2p) + delta0."""
    if not 0 < c < 1:
        raise ValueError("need 0 < c < 1")
    lhs = (
        (p - 1) / p * c * math.log(1 / c)
        + (1 - c) * math.log(1 / (1 - c))
        - (1 + c) / p * math.log(1 + c)
    )
    rhs = gamma * math.log(2 * p) + delta0
    return ConditionResult(lhs >= rhs, lhs, rhs)


def condition_b(p: int, c: float, gamma: float, delta0: float) -> ConditionResult:
    """gamma >= c/p  and  c ln(1/c) + (1-c) ln(1/(1-c))
       >= gamma + gamma ln((c+gamma)/gamma) + delta0.

    The inequality is evaluated verbatim at the given finite p; it is stated
    as a large-p regime, which is recorded as an advisory note rather than
    folded into the boolean."""
    if not 0 < c < 1:
        raise ValueError("need 0 < c < 1")
    notes = ("stated for p -> infinity; finite-p evaluation is advisory",)
    if gamma <= 0:
        return ConditionResult(
            False, float("nan"), float("nan"),
            notes + ("rejected: gamma = 0 leaves ln((c+gamma)/gamma) undefined",),
        )
    if gamma < c / p:
        return ConditionResult(
            False, float("nan"), float("nan"),
            notes + (f"hypothesis gamma >= c/p fails ({gamma} < {c / p})",),
        )
    lhs = c * math.log(1 / c) + (1 - c) * math.log(1 / (1 - c))
    rhs = gamma + gamma * math.log((c + gamma) / gamma) + delta0
    return ConditionResult(lhs >= rhs, lhs, rhs, notes)

