"""`bounds-check`: the inequality suites (coprime-count sandwich,
binomial and truncated-binomial bounds, cycle-average bounds, the seeded
coordinate sieve) and the remainder bounds on one group."""

from __future__ import annotations

import argparse
import itertools
import math
import random

from ..errors import ValidationError
from ..ffield import _factor_degrees, phi, phi_relative_gap
from . import _build_group, _emit, _field_args, _frac, _output_args


def arguments(s: argparse.ArgumentParser) -> None:
    _field_args(s)
    s.add_argument("--k", type=int, default=2, help="largest k for the remainder suites")
    _output_args(s)
    s.add_argument("--seed", type=int, default=0, help="seed for randomized suites")


def truncated_binomial_verdicts():
    """Exact verdicts of the truncated-binomial floor and proximity checks
    on the cells (n, qq, r, m) with n <= 12, 2 <= qq <= 9, r <= n and
    m <= 12.  Both verdicts depend on n and r only through N = n - r, so
    they are yielded once per (N, qq, m), as (N, qq, m, floor, close).

    mu_m(r) = num_m / qq^m for the running integer numerator
    num_m = num_(m-1) qq + (-1)^m C(N, m) of
    `comb.truncated_binomial_numerators`, the one that
    `truncated_binomial_sum` reads, run once per (N, qq), so both checks
    are integer ones:

      floor:  mu_m >= (qq - N)/qq            iff  num_m >= (qq - N) qq^(m-1)
      close:  |mu_m - (1-1/qq)^N| <= C(N, m+1) qq^-(m+1)
              iff  |num_m qq^(N+1) - (qq-1)^N qq^(m+1)| <= C(N, m+1) qq^N

    `floor` is None at m = 0 and is reported for every other cell, also
    where N > qq and the alternating floor need not hold."""
    from ..comb import truncated_binomial_numerators

    for N in range(13):
        for qq in range(2, 10):
            full = (qq - 1) ** N
            for m, num in zip(range(13), truncated_binomial_numerators(N, qq)):
                floor = num >= (qq - N) * qq ** (m - 1) if m >= 1 else None
                close = abs(num * qq ** (N + 1) - full * qq ** (m + 1)) <= math.comb(N, m + 1) * qq ** N
                yield N, qq, m, floor, close


def run(args) -> int:
    from fractions import Fraction

    from ..asym import cycle_average_bound_power, gamma_at_most_one, pmf_remainder_bound, w_remainder_bound
    from ..comb import binomial_lower_bound, coordinate_sieve_check, cycle_average_series
    from ..dist import default_point_set, pmf_prediction, sieve_plan, sieve_rows

    if args.k < 0:
        raise ValidationError(f"k must be >= 0, got {args.k}")
    spec, params, group = _build_group(args)
    q, t, ell = spec.q, params.t, params.ell
    p = spec.p
    rng = random.Random(args.seed)
    checks: list[dict] = []

    def record(name: str, ok: bool, lhs: str, rhs: str) -> None:
        checks.append({"name": name, "pass": bool(ok), "lhs": lhs, "rhs": rhs})

    # coprime-count sandwich and relative gap
    drop = sum(Fraction(1, q ** d) for d in _factor_degrees(params.Q))
    for j in range(0, 7):
        val = phi(j, params.Q)
        low = q ** j * (1 - drop)
        record(f"phi sandwich j={j}", low <= val <= q ** j, f"{float(low)} <= {val}", f"{q ** j}")
        gap = phi_relative_gap(j, params.Q)
        record(f"phi relative gap j={j}", gap <= drop, _frac(gap), _frac(Fraction(drop)))

    # binomial lower bound
    ok = all(
        binomial_lower_bound(M, m) <= math.comb(M, m)
        for M in range(2, 31)
        for m in range(1, M)
    )
    record("binomial lower bound M<=30", ok, "stirling-type bound", "C(M, m)")

    # truncated binomial sum: alternating floor (where the terms decrease)
    # and proximity to (1-1/q)^(n-r)
    mu_ok = True
    close_ok = True
    for N, qq, m, floor, close in truncated_binomial_verdicts():
        if m >= 1 and N <= qq:
            mu_ok &= floor
        close_ok &= close
    record("truncated binomial floor", mu_ok, "mu_m(r)", "(q-n+r)/q on n-r <= q")
    record("truncated binomial proximity", close_ok, "|mu_m - (1-1/q)^(n-r)|", "C(n-r, m+1) q^-(m+1)")

    # log bounds on the cycle average: ln A <= bound exactly when A^L <= R
    # for the integer-exponent form (L, R) of the bound
    lb_ok = True
    for n in (4, 8, 12):
        for j in range(1, 9):
            for g in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                exact = cycle_average_series(j, n, g, p)
                for variant, applies in (("a", j <= n), ("b", j <= 2 * p * n * g)):
                    if applies:
                        L, bound = cycle_average_bound_power(j, n, g, p, variant)
                        lb_ok &= exact ** L <= bound
    record("log cycle-average bounds", lb_ok, "ln A_j(n, gamma)", "variant a/b bounds")

    # coordinate sieve on seeded random tables
    sieve_ok = True
    for trial in range(10):
        nd = rng.randint(1, 4)
        j = rng.randint(1, 3)
        D = list(range(nd))
        table = {}
        for xs in itertools.product(D, repeat=j):
            table[xs] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        direct, sieved = coordinate_sieve_check(j, D, table)
        sieve_ok &= direct == sieved
    record("coordinate sieve (seeded)", sieve_ok, "direct sum", "signed cycle sum")

    # factorization-count remainder and pmf remainder on this group, from the
    # sieve run of every k: its W_j rows and its per-class counts.  The pmf
    # records are made from the count rows as they are written; the verdict
    # comes first from the integers, as |count/q^k - prediction_r| <= bound_r
    # holds exactly when count lies in [ceil(q^k (prediction_r - bound_r)),
    # floor(q^k (prediction_r + bound_r))]
    points = default_point_set(params)
    n = len(points)
    remainders = []  # per k: the factorization records, the count rows, the pmf predictions and bounds
    remainders_ok = True
    ks = range(args.k + 1) if ell >= 1 and gamma_at_most_one(n, q, t, ell) else range(0)
    # the sieve's cells for all of the k, checked before any row is formed
    engine, work = sieve_plan(group, ks, n, args.max_enum)
    if not ks:
        checks.append(
            {"name": "remainder bounds", "pass": True, "skipped": "hypotheses ell >= 1 and gamma <= 1 not met"}
        )
    for k, (W, counts) in zip(ks, sieve_rows(group, ks, points, budget=args.max_enum)):
        factorization = []
        for j, row in zip(range(k + 1, k + t + ell + 1), W.tolist()):
            main = Fraction(phi(k + t + ell - j, params.Q) * math.comb(n, j), group.order)
            bound = w_remainder_bound(j, n, q, k, t, ell, group.order)
            worst = max(abs(w - main) for w in row)
            factorization.append({
                "name": f"factorization remainder k={k} j={j}", "pass": bool(worst <= bound),
                "lhs": _frac(Fraction(worst)), "rhs": _frac(bound),
            })
        # the prediction and its bound depend on (k, r) alone, not on the class
        support = range(0, k + t + ell + 1)
        predictions = [pmf_prediction(params, n, r, k) for r in support]
        bounds = [pmf_remainder_bound(r, n, q, k, t, ell) for r in support]
        rows = counts.tolist()
        remainders.append((k, factorization, rows, predictions, bounds))
        for row, prediction, bound in zip(rows, predictions, bounds):
            low, high = math.ceil(q ** k * (prediction - bound)), math.floor(q ** k * (prediction + bound))
            remainders_ok &= all(low <= count <= high for count in row)
        remainders_ok &= all(c["pass"] for c in factorization)

    def remainder_checks():
        for k, factorization, rows, predictions, bounds in remainders:
            yield from factorization
            total = q ** k
            rhs = [_frac(bound) for bound in bounds]
            for eps, column in enumerate(zip(*rows)):
                for r, count in enumerate(column):
                    lhs = abs(Fraction(count, total) - predictions[r])
                    yield {
                        "name": f"pmf remainder k={k} eps={eps} r={r}", "pass": bool(lhs <= bounds[r]),
                        "lhs": _frac(lhs), "rhs": rhs[r],
                    }

    all_ok = remainders_ok and all(c["pass"] for c in checks)
    _emit(args, {
        "checks": itertools.chain(checks, remainder_checks()), "pass": all_ok, "engine": engine, "work": work,
    })
    return 0 if all_ok else 1
