"""Command-line front end.

Every subcommand writes a deterministic artifact (JSON, or CSV for the
tables of `approx` and `regimes`) that embeds the run configuration and the
library version; identical configuration and seed give byte-identical output.

Artifacts of the distribution commands, `weil` and `series-check` name the
engine that produced their numbers ("sieve" or "transform" for the rows W_j,
one engine for all of a command's rows; "enumeration" or "characters") and
its deterministic work counts.  Each distribution command takes its row
engine and cells from one `dist.sieve_plan` call (the planner
`dist.moment_plan`) and forms the rows of all its k by one `dist.sieve_rows`
call: `moments-check` and `bounds-check` check the oracle's comparisons,
summed over their k, and the engine's cells for the one row run, before any
k runs, so a refusal reports the totals that the artifact would.  Both row
engines stay; the `dist` docstring says why.

Exit codes: 0 when all asserted checks pass, 1 for validation or check
failures (usage errors on the command line included), arithmetic-check
failures and internal consistency errors (with a machine-readable failure
record on stdout/the artifact), 2 when a work budget is exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import itertools
import json
import math
import os
import random
import sys
from typing import TYPE_CHECKING

from . import __version__, _writer
from .errors import BudgetExceededError, ValidationError, check_budget
from .ffield import FieldSpec, Polynomial, _factor_degrees, _is_prime, phi, phi_relative_gap

if TYPE_CHECKING:
    from fractions import Fraction


def _defer(name: str) -> None:
    """Put hayesdist.<name> in sys.modules without running its code, which
    runs on the first attribute access.

    The layers that only some subcommands use (hayes, chars, dist, comb,
    asym) are imported inside those subcommands, so a job compiles and runs
    no more of the package than it calls, and the scalar subcommands
    (`kernels`, `regimes`, usage errors) never import numpy.  Tools that
    wrap the layers by module name right after `import hayesdist.cli` (the
    benchmark's tracer, bench/shim.py) still find every layer in
    sys.modules."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)


for _layer in ("hayes", "chars", "dist", "comb", "asym"):
    _defer(_layer)


def _field_args(sub: argparse.ArgumentParser, hayes: bool = True) -> None:
    sub.add_argument("--p", type=int, required=True, help="prime characteristic")
    sub.add_argument("--a", type=int, default=1, help="extension degree (default 1)")
    if hayes:
        sub.add_argument("--ell", type=int, default=1, help="number of prescribed leading coefficients")
        sub.add_argument("--Q", default="1", help='modulus polynomial, e.g. "x^2 + x + 1"')


class _Parser(argparse.ArgumentParser):
    """Usage errors end in the validation record and exit code 1, not in
    argparse's exit code 2, which here means budget-exceeded."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


class _SubParser(_Parser):
    """A subcommand's parser reports the arguments it does not know itself,
    under its own usage, where argparse would pass them up to the top level."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _output_args(sub: argparse.ArgumentParser, table: bool = False) -> None:
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    if table:
        sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument(
        "--max-enum", type=int, default=None,
        help="work budget (default 10^8) on each route's own count: group and sieve cells, "
             "oracle comparisons, series evaluation cells",
    )


def _build_group(args) -> tuple[FieldSpec, HayesParams, ClassGroup]:
    from .hayes import ClassGroup, HayesParams

    spec = FieldSpec(args.p, args.a)
    Q = Polynomial.from_text(spec, args.Q)
    params = HayesParams(args.ell, Q)
    return spec, params, ClassGroup(params, args.max_enum)


def _config_dict(args) -> dict:
    skip = {"func", "out"}  # the destination path is not semantic configuration
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit(args, payload: dict, columns: list[str] | None = None) -> None:
    """Write the artifact: JSON object, or the CSV rows of the payload's
    `table` with a comment line that carries everything else (version,
    config, engine, work).  A list in the payload may be an iterator, whose
    records are then made one at a time as they are written."""
    payload = {"version": __version__, "config": _config_dict(args), **payload}
    # written piece by piece, so the whole artifact text is never held in memory
    out = contextlib.nullcontext(sys.stdout)
    if args.out:
        try:
            out = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot write the artifact to --out {args.out}: {exc.strerror}") from None
    with out as fh:
        if columns is not None and args.format == "csv":  # only the subcommands with a table have --format
            import csv

            header = {key: value for key, value in payload.items() if key != "table"}
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
            writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
            writer.writeheader()
            writer.writerows(payload["table"])
        else:
            _writer.dump(payload, fh)  # the bytes of json.dumps(payload, sort_keys=True, indent=2)
            fh.write("\n")


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _ratio(num: int, den: int) -> str:
    """num/den in lowest terms, as `_frac` writes it."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _parse_points(spec: FieldSpec, text: str | None):
    """Point set from comma-separated element indices; None = all non-roots of Q."""
    if text is None:
        return None
    return tuple(spec.element(int(tok)) for tok in text.split(",") if tok.strip())


def cmd_exact_dist(args) -> int:
    from .dist import exact_distributions_all, sieve_plan

    spec, params, group = _build_group(args)
    points = _parse_points(spec, args.points)
    dists = exact_distributions_all(group, args.k, points, budget=args.max_enum)
    engine, work = sieve_plan(group, [args.k], len(dists.points))
    _emit(args, {
        "classes": group.export_classes(),
        "distributions": dists.json_records(),
        "engine": engine,
        "work": work,
    })
    return 0


def cmd_moments_check(args) -> int:
    from .dist import (
        ENUMERATION_COMPARISONS,
        binomial_moments,
        default_point_set,
        enumeration_comparisons,
        enumeration_distributions_all,
        sieve_plan,
        sieve_rows,
    )

    if args.k < 0:
        raise ValidationError(f"k must be >= 0, got {args.k}")
    if args.k_min < 0:
        raise ValidationError(f"k_min must be >= 0, got {args.k_min}")
    if args.k_min > args.k:
        raise ValidationError(f"k_min must be <= k, got k_min={args.k_min} > k={args.k}")
    spec, params, group = _build_group(args)
    t, ell = params.t, params.ell
    points = default_point_set(params)
    n = len(points)
    ks = range(args.k_min, args.k + 1)
    # the oracle's comparisons and then the sieve's cells, each summed over
    # the k of the run and checked before the first k runs
    comparisons = sum(enumeration_comparisons(group, k, n) for k in ks)
    check_budget(ENUMERATION_COMPARISONS, comparisons, args.max_enum)
    work = {"comparisons": comparisons, **sieve_plan(group, ks, n, args.max_enum)[1]}
    # per k, the oracle's q^k E[C(Y, j)] of every class (j <= k + t + ell)
    # and the sieve's W_j rows, as integers
    runs = []
    for k, (W, _) in zip(ks, sieve_rows(group, ks, points, budget=args.max_enum)):
        dists = enumeration_distributions_all(group, k, points, budget=args.max_enum)
        runs.append((k, [binomial_moments(dist, k + t + ell) for dist in dists], W.tolist()))

    def cells(k, moments, W):
        """(eps, j, measured, expected): C(n, j) q^(k-j) for j <= k, W_j(eps) for j > k."""
        closed = [math.comb(n, j) * spec.q ** (k - j) for j in range(k + 1)]
        for eps, row in enumerate(moments):
            for j, got in enumerate(row):
                yield eps, j, got, closed[j] if j <= k else W[j - k - 1][eps]

    def records(failures_only: bool):
        """The check records, each made as it is written."""
        for k, moments, W in runs:
            total = spec.q ** k
            for eps, j, got, want in cells(k, moments, W):
                if got != want or not failures_only:
                    yield {
                        "k": k, "eps": eps, "j": j,
                        "moment": _ratio(got, total), "expected": _ratio(want, total), "pass": got == want,
                    }

    passed = all(got == want for run in runs for _, _, got, want in cells(*run))
    _emit(args, {
        "checks": records(False), "failures": records(True), "pass": passed, "engine": "enumeration", "work": work,
    })
    return 0 if passed else 1


def cmd_weil(args) -> int:
    from .chars import CharacterTable, weil_bound

    spec, params, group = _build_group(args)
    table = CharacterTable(group)
    q, t, ell = spec.q, params.t, params.ell
    exponents = table.exponents.tolist()
    character_sums = 0
    if table.order > 1:
        L = table.l_polynomials(budget=args.max_enum)
        bounds = [weil_bound(j, t, ell, q) for j in range(L.coeffs.shape[1])]
        character_sums = (table.order - 1) * len(bounds)
        degrees = L.degrees.tolist()

    def characters():
        """The character records, each made as `_emit` writes it."""
        yield {"chi": 0, "exponents": exponents[0], "trivial": True}
        for chi in range(1, table.order):
            yield {
                "chi": chi, "exponents": exponents[chi],
                # abs of a Python complex: np.abs can differ in the last bit
                "coeffs": [
                    {"j": j, "re": c.real, "im": c.imag, "bound": bound, "slack": bound - abs(c)}
                    for j, (c, bound) in enumerate(zip(L.coeffs[chi].tolist(), bounds))
                ],
                "degree": degrees[chi],
                "degree_bound": L.degree_bound,
                "root_moduli": [abs(z) for z in L.roots[chi, :degrees[chi]].tolist()],
            }

    # a sum above its Weil bound has already raised ArithmeticError
    _emit(args, {
        "characters": characters(), "orders": list(table.orders), "pass": True,
        "engine": "characters",
        "work": {
            "classes": group.order,
            "monic_enumerated": group.monic_enumerated,
            "character_sums": character_sums,
        },
    })
    return 0


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
    from .comb import truncated_binomial_numerators

    for N in range(13):
        for qq in range(2, 10):
            full = (qq - 1) ** N
            for m, num in zip(range(13), truncated_binomial_numerators(N, qq)):
                floor = num >= (qq - N) * qq ** (m - 1) if m >= 1 else None
                close = abs(num * qq ** (N + 1) - full * qq ** (m + 1)) <= math.comb(N, m + 1) * qq ** N
                yield N, qq, m, floor, close


def cmd_bounds_check(args) -> int:
    from fractions import Fraction

    from .asym import cycle_average_bound_power, gamma_at_most_one, pmf_remainder_bound, w_remainder_bound
    from .comb import binomial_lower_bound, coordinate_sieve_check, cycle_average_series
    from .dist import default_point_set, pmf_prediction, sieve_plan, sieve_rows

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


def cmd_rs(args) -> int:
    from .dist import classify_row, rs_census, rs_distance_row, rs_group, sieve_plan

    if args.word is not None and args.census:
        raise ValidationError("--word and --census exclude each other: a census classifies every word")
    spec = FieldSpec(args.p, args.a)
    group = rs_group(spec, args.ell, args.max_enum)
    engine, work = sieve_plan(group, [args.k], spec.q)
    engine = {"engine": engine, "work": work}
    if args.word:
        f = Polynomial.from_text(spec, args.word)
        row = rs_distance_row(f, args.k, args.ell, group, budget=args.max_enum)
        _emit(args, {"row": row.to_json(), "kind": classify_row(row), **engine})
        return 0
    census = rs_census(spec, args.k, args.ell, budget=args.max_enum, group=group)
    _emit(args, {"census": census, **engine})
    return 0


def cmd_approx(args) -> int:
    from .asym import binomial_envelope, binomial_pmf, mu_binomial_pmf, poisson_pmf
    from .dist import default_point_set, exact_distributions_all, sieve_plan

    spec, params, group = _build_group(args)
    q, t, ell = spec.q, params.t, params.ell
    points = default_point_set(params)
    n = len(points)
    dists = exact_distributions_all(group, args.k, points, budget=args.max_enum)
    # the limit shapes depend on r alone: one exact mu mass and one set of
    # limit-shape columns per support value r <= n
    shapes = []
    for r in range(min(n, args.k + t + ell) + 1):
        mu_mass = mu_binomial_pmf(r, n, q, args.k, t, ell)
        shapes.append((mu_mass, {
            "binomial": float(binomial_pmf(r, n, q)),
            "poisson": poisson_pmf(r, n, q),
            "mu_mass": float(mu_mass),
            "envelope": float(binomial_envelope(r, n, q, args.k)) if r < args.k else "",
        }))

    def table():
        """A row per class and nonzero count, made as it is written."""
        for d in dists:
            for r in sorted(d.counts):
                exact = d.probability(r)
                mu_mass, shape = shapes[r]
                yield {
                    "eps": d.eps,
                    "r": r,
                    "count": str(d.counts[r]),
                    "exact": _frac(exact),
                    "exact_float": float(exact),
                    "ratio_to_mu": float(exact / mu_mass) if mu_mass else float("inf"),
                    **shape,
                }

    columns = [
        "eps", "r", "count", "exact", "exact_float", "binomial", "poisson",
        "mu_mass", "ratio_to_mu", "envelope",
    ]
    engine, work = sieve_plan(group, [args.k], n)
    _emit(args, {"table": table(), "engine": engine, "work": work}, columns=columns)
    return 0


def cmd_regimes(args) -> int:
    from .asym import Regime, condition_a, condition_b

    if args.p >= 1 << 64:
        raise ValidationError(f"characteristic {args.p} is not below 2^64")
    if not _is_prime(args.p):
        raise ValidationError(f"characteristic {args.p} is not prime")
    if args.a < 1:
        raise ValidationError(f"extension degree must be >= 1, got {args.a}")
    q = args.p ** args.a
    n = args.n if args.n is not None else q - args.t
    rows = []
    for k in args.k_list:
        regime = Regime(q=q, k=k, t=args.t, ell=args.ell, n=n, delta0=args.delta0)
        ca = condition_a(regime.p, regime.c, regime.gamma, args.delta0)
        cb = condition_b(regime.p, regime.c, regime.gamma, args.delta0)
        rows.append(
            {
                "q": q, "k": k, "t": args.t, "ell": args.ell, "n": n,
                "c": regime.c, "gamma": regime.gamma,
                "condition_a": bool(ca), "condition_a_lhs": ca.lhs, "condition_a_rhs": ca.rhs,
                "condition_b": bool(cb), "condition_b_notes": "; ".join(cb.notes),
            }
        )
    columns = [
        "q", "k", "t", "ell", "n", "c", "gamma",
        "condition_a", "condition_a_lhs", "condition_a_rhs",
        "condition_b", "condition_b_notes",
    ]
    _emit(args, {"table": rows}, columns=columns)
    return 0


def cmd_kernels(args) -> int:
    if args.kernel == "truncated-binomial":
        from .comb import truncated_binomial_sum

        value = truncated_binomial_sum(args.m, args.r, args.n, args.q)
        _emit(args, {"kernel": args.kernel, "value": _frac(value)})
    elif args.kernel == "cycle-average":
        from fractions import Fraction

        from .comb import (
            CYCLE_AVERAGE_WORDS,
            cycle_average_bruteforce,
            cycle_average_closed,
            cycle_average_series,
            cycle_average_work,
        )

        try:
            a, b = Fraction(args.a_val), Fraction(args.b_val)
        except ZeroDivisionError:
            raise ValidationError(f"zero denominator in --a-val {args.a_val} or --b-val {args.b_val}") from None
        check_budget(CYCLE_AVERAGE_WORDS, cycle_average_work(args.j, a, b, args.p_char), args.max_enum)
        series = cycle_average_series(args.j, a, b, args.p_char)
        routes = {
            "series": _frac(series),
            "closed": _frac(cycle_average_closed(args.j, a, b, args.p_char)),
        }
        if args.j <= 9:
            routes["cycle_types"] = _frac(cycle_average_bruteforce(args.j, a, b, args.p_char))
        _emit(args, {"kernel": args.kernel, "value": _frac(series), "routes": routes})
    elif args.kernel == "phi":
        spec = FieldSpec(args.p, args.a)
        Q = Polynomial.from_text(spec, args.Q)
        _emit(args, {"kernel": args.kernel, "value": str(phi(args.j, Q))})
    else:
        raise ValidationError(f"unknown kernel {args.kernel}")
    return 0


def cmd_series_check(args) -> int:
    from .dist import verify_series_identities

    spec, params, group = _build_group(args)
    passed, checks, work = verify_series_identities(group, args.d_max, budget=args.max_enum)
    _emit(args, {"pass": passed, "checks": checks, "engine": "enumeration", "work": {"classes": group.order, **work}})
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _exact_dist_args(s: argparse.ArgumentParser) -> None:
    _field_args(s)
    s.add_argument("--k", type=int, required=True)
    s.add_argument(
        "--points", default=None,
        help="evaluation set D as comma-separated element indices (default: all non-roots of Q)",
    )
    _output_args(s)


def _moments_check_args(s: argparse.ArgumentParser) -> None:
    _field_args(s)
    s.add_argument("--k", type=int, required=True, help="largest k to verify")
    s.add_argument("--k-min", type=int, default=0)
    _output_args(s)


def _weil_args(s: argparse.ArgumentParser) -> None:
    _field_args(s)
    _output_args(s)


def _bounds_check_args(s: argparse.ArgumentParser) -> None:
    _field_args(s)
    s.add_argument("--k", type=int, default=2, help="largest k for the remainder suites")
    _output_args(s)
    s.add_argument("--seed", type=int, default=0, help="seed for randomized suites")


def _rs_args(s: argparse.ArgumentParser) -> None:
    _field_args(s, hayes=False)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--ell", type=int, required=True)
    s.add_argument("--word", default=None, help="received word; omit for a census")
    s.add_argument("--census", action="store_true", help="classify every received word (default)")
    _output_args(s)


def _approx_args(s: argparse.ArgumentParser) -> None:
    _field_args(s)
    s.add_argument("--k", type=int, required=True)
    _output_args(s, table=True)


def _regimes_args(s: argparse.ArgumentParser) -> None:
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--a", type=int, default=1)
    s.add_argument("--ell", type=int, default=1)
    s.add_argument("--t", type=int, default=0)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--k-list", type=lambda s: [int(x) for x in s.split(",")], required=True)
    _output_args(s, table=True)
    s.add_argument("--delta0", type=float, default=0.05)


def _series_check_args(s: argparse.ArgumentParser) -> None:
    _field_args(s)
    s.add_argument("--d-max", type=int, required=True)
    _output_args(s)


def _kernels_args(s: argparse.ArgumentParser) -> None:
    s.add_argument("kernel", choices=("truncated-binomial", "cycle-average", "phi"))
    s.add_argument("--m", type=int, default=0)
    s.add_argument("--r", type=int, default=0)
    s.add_argument("--n", type=int, default=0)
    s.add_argument("--q", type=int, default=2)
    s.add_argument("--j", type=int, default=0)
    s.add_argument("--a-val", default="1", help="cycle-average weight a (rational)")
    s.add_argument("--b-val", default="1", help="cycle-average weight b (rational)")
    s.add_argument("--p-char", type=int, default=2, help="characteristic for cycle lengths")
    s.add_argument("--p", type=int, default=2)
    s.add_argument("--a", type=int, default=1)
    s.add_argument("--Q", default="1")
    _output_args(s)


# (name, help, arguments, command), in the order of the top-level help
_SUBCOMMANDS = (
    ("exact-dist", "per-class zero-count distributions", _exact_dist_args, cmd_exact_dist),
    ("moments-check", "verify the factorial-moment identity", _moments_check_args, cmd_moments_check),
    ("weil", "character and L-polynomial diagnostics", _weil_args, cmd_weil),
    ("bounds-check", "inequality suites (sandwich, envelopes, remainders)", _bounds_check_args, cmd_bounds_check),
    ("rs", "Reed-Solomon distance rows and deep-hole census", _rs_args, cmd_rs),
    ("approx", "exact vs limit-shape comparison table", _approx_args, cmd_approx),
    ("regimes", "regime predicate table", _regimes_args, cmd_regimes),
    ("series-check", "group-algebra series identity checks", _series_check_args, cmd_series_check),
    ("kernels", "ad-hoc kernel evaluation", _kernels_args, cmd_kernels),
)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser, with every subcommand and its help.  Only the arguments
    of the subcommand that `argv` invokes are filled in, which is all that
    parsing `argv` reads; all of them when `argv` names none."""
    parser = _Parser(
        prog="hayesdist",
        description="Exact zero-count distributions over Hayes classes, with verification suites.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True, parser_class=_SubParser)
    # the top level has no option that takes a value: the first word is the subcommand
    invoked = next((word for word in argv or () if not word.startswith("-")), None)
    names = [name for name, *_ in _SUBCOMMANDS]
    for name, help_text, arguments, command in _SUBCOMMANDS:
        s = subs.add_parser(name, help=help_text)
        if invoked not in names or invoked == name:
            arguments(s)
        s.set_defaults(func=command)
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
        if (args.max_enum or 0) < 0:
            raise ValidationError(f"--max-enum must be >= 0, got {args.max_enum}")
        return args.func(args)
    except BudgetExceededError as exc:
        record = {"error": "budget-exceeded", "what": exc.what, "value": exc.value, "budget": exc.budget}
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
        return 2
    except (ValidationError, ValueError) as exc:
        record = {"error": "validation", "message": str(exc)}
    except ArithmeticError as exc:
        # a verified inequality failed (e.g. a character sum above its Weil bound)
        record = {"error": "arithmetic-check", "type": type(exc).__name__, "message": str(exc)}
    except RuntimeError as exc:
        # an internal consistency check failed (class count, decomposition)
        record = {"error": "internal", "type": type(exc).__name__, "message": str(exc)}
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`): point the real stdout at
        # devnull so that the interpreter's last flush cannot fail again
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(json.dumps({"error": "broken-pipe"}) + "\n")
        return 1
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    return 1


def main() -> None:
    # No BLAS call here is threaded (the one LAPACK call is `eigvals` on
    # companion matrices of size at most t + ell - 1), so numpy's OpenBLAS,
    # which loads after this, starts no worker thread unless asked to
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = run()
    # The artifact is closed and what is still alive dies with the process:
    # frozen, it is skipped by the interpreter's exit-time collections, while
    # stdout and stderr are still flushed and atexit handlers still run.  The
    # young generations go first (well under a millisecond), so that the
    # teardown reuses the memory of their cyclic garbage instead of growing
    # the heap (about 0.1 MB of peak RSS on a small job).
    gc.collect(1)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
