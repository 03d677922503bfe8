"""Command-line front end.

Every subcommand writes a deterministic artifact (JSON, or CSV for the
tables of `approx` and `regimes`) that embeds the run configuration and the
library version; identical configuration and seed give byte-identical output.

Artifacts of the distribution commands, `weil` and `series-check` name the
engine that produced their numbers ("sieve", "enumeration" or "characters")
and its deterministic work counts.

Exit codes: 0 when all asserted checks pass, 1 for validation or check
failures (usage errors on the command line included), arithmetic-check
failures and internal consistency errors (with a machine-readable failure
record on stdout/the artifact), 2 when a work budget is exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import __version__, _writer
from .asym import (
    Regime,
    binomial_envelope,
    binomial_pmf,
    condition_a,
    condition_b,
    gamma_at_most_one,
    log_cycle_average_bound,
    mu_binomial_pmf,
    pmf_remainder_bound,
    poisson_pmf,
    w_remainder_bound,
)
from .chars import CharacterTable, l_polynomial, weil_bound
from .comb import (
    binomial_lower_bound,
    coordinate_sieve_check,
    cycle_average_bruteforce,
    cycle_average_closed,
    cycle_average_series,
    truncated_binomial_sum,
)
from .dist import (
    binomial_moments,
    classify_row,
    default_point_set,
    enumeration_distributions_all,
    enumeration_comparisons,
    exact_distributions_all,
    factorization_counts,
    factorization_pairs,
    pmf_prediction,
    pmf_remainder_gap,
    rs_census,
    rs_distance_row,
    rs_group,
    sieve_work,
    verify_series_identities,
)
from .errors import BudgetExceededError, ValidationError
from .ffield import FieldSpec, Polynomial
from .hayes import ClassGroup, HayesParams, distinct_irreducible_factors, phi, phi_relative_gap


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


def _output_args(sub: argparse.ArgumentParser, table: bool = False) -> None:
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("json", "csv") if table else ("json",), default="json")
    sub.add_argument(
        "--max-enum", type=int, default=None,
        help="work budget override (q^k for enumeration, DP plus convolution cells for the sieve)",
    )
    sub.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    sub.add_argument("--delta0", type=float, default=0.05)


def _build_group(args) -> tuple[FieldSpec, HayesParams, ClassGroup]:
    spec = FieldSpec(args.p, args.a)
    Q = Polynomial.from_text(spec, args.Q)
    params = HayesParams(args.ell, Q)
    return spec, params, ClassGroup(params)


def _config_dict(args) -> dict:
    skip = {"func", "out"}  # the destination path is not semantic configuration
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit(args, payload: dict, rows: list[dict] | None = None, columns: list[str] | None = None) -> None:
    """Write the artifact: JSON object, or CSV rows with a comment line that
    carries everything but the table (version, config, engine, work)."""
    payload = {"version": __version__, "config": _config_dict(args), **payload}
    # written piece by piece, so the whole artifact text is never held in memory
    out = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    with out as fh:
        if args.format == "csv":
            header = {key: value for key, value in payload.items() if key != "table"}
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
            writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
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
    spec, params, group = _build_group(args)
    points = _parse_points(spec, args.points)
    dists = exact_distributions_all(group, args.k, points, budget=args.max_enum)
    payload = {
        "classes": group.export_classes(),
        "distributions": [d.to_json() for d in dists],
        "engine": "sieve",
        "work": sieve_work(group, args.k, len(dists[0].points)),
    }
    _emit(args, payload)
    return 0


def cmd_moments_check(args) -> int:
    if args.k_min < 0:
        raise ValidationError(f"k_min must be >= 0, got {args.k_min}")
    if args.k_min > args.k:
        raise ValidationError(f"k_min must be <= k, got k_min={args.k_min} > k={args.k}")
    spec, params, group = _build_group(args)
    t, ell = params.t, params.ell
    points = default_point_set(params)
    n = len(points)
    failures = []
    records = []
    comparisons = 0
    pairs = 0
    for k in range(args.k_min, args.k + 1):
        dists = enumeration_distributions_all(group, k, points, budget=args.max_enum)
        comparisons += enumeration_comparisons(group, k, n)
        Ws = {
            j: factorization_counts(group, j, k, points, budget=args.max_enum)
            for j in range(k + 1, k + t + ell + 1)
        }
        pairs += sum(factorization_pairs(group, j, k, n) for j in Ws)
        # q^k E[C(Y, j)] against C(n, j) q^(k-j) (j <= k) or W_j (j > k), as integers
        total = spec.q ** k
        for eps in range(group.order):
            for j, got in enumerate(binomial_moments(dists[eps], k + t + ell)):
                want = math.comb(n, j) * spec.q ** (k - j) if j <= k else Ws[j][eps]
                ok = got == want
                records.append({
                    "k": k, "eps": eps, "j": j,
                    "moment": _ratio(got, total), "expected": _ratio(want, total), "pass": ok,
                })
                if not ok:
                    failures.append(records[-1])
    _emit(args, {
        "checks": records, "failures": failures, "pass": not failures,
        "engine": "enumeration", "work": {"comparisons": comparisons, "factorization_pairs": pairs},
    })
    return 0 if not failures else 1


def cmd_weil(args) -> int:
    spec, params, group = _build_group(args)
    table = CharacterTable(group)
    q, t, ell = spec.q, params.t, params.ell
    out = []
    character_sums = 0
    for chi, exponents in enumerate(table.exponents.tolist()):
        entry: dict = {"chi": chi, "exponents": exponents}
        if chi == 0:
            entry["trivial"] = True
        else:
            L = l_polynomial(table, chi, budget=args.max_enum)
            character_sums += len(L.coeffs)
            coeffs = []
            for j, c in enumerate(L.coeffs):
                bound = weil_bound(j, t, ell, q)
                coeffs.append({"j": j, "re": c.real, "im": c.imag, "bound": bound, "slack": bound - abs(c)})
            entry["coeffs"] = coeffs
            entry["degree"] = L.degree
            entry["degree_bound"] = L.degree_bound
            entry["root_moduli"] = list(L.root_moduli())
        out.append(entry)
    # a sum above its Weil bound has already raised ArithmeticError
    _emit(args, {
        "characters": out, "orders": list(table.orders), "pass": True,
        "engine": "characters",
        "work": {
            "classes": group.order,
            "monic_enumerated": group.monic_enumerated,
            "character_sums": character_sums,
        },
    })
    return 0


def truncated_binomial_verdicts():
    """Exact verdicts of the truncated-binomial floor and proximity checks,
    one per cell (n, qq, r, m) with n <= 12, 2 <= qq <= 9, r <= n and
    m <= 12, yielded as (n, qq, r, m, floor, close).

    With N = n - r, mu_m(r) = num_m / qq^m for the running integer numerator
    num_m = num_(m-1) qq + (-1)^m C(N, m), so both checks are integer ones:

      floor:  mu_m >= (qq - N)/qq            iff  num_m >= (qq - N) qq^(m-1)
      close:  |mu_m - (1-1/qq)^N| <= C(N, m+1) qq^-(m+1)
              iff  |num_m qq^(N+1) - (qq-1)^N qq^(m+1)| <= C(N, m+1) qq^N

    `floor` is None at m = 0 and is reported for every other cell, also
    where N > qq and the alternating floor need not hold."""
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


def cmd_bounds_check(args) -> int:
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
    factors = distinct_irreducible_factors(params.Q)
    drop = sum(Fraction(1, q ** P.degree) for P in factors)
    for j in range(0, 7):
        val = phi(j, params.Q)
        low = q ** j * (1 - drop)
        record(f"phi sandwich j={j}", low <= val <= q ** j, f"{float(low)} <= {val}", f"{q ** j}")
        record(f"phi relative gap j={j}", phi_relative_gap(j, params.Q) <= drop, _frac(phi_relative_gap(j, params.Q)), _frac(Fraction(drop)))

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
    for n, qq, r, m, floor, close in truncated_binomial_verdicts():
        if m >= 1 and n - r <= qq:
            mu_ok &= floor
        close_ok &= close
    record("truncated binomial floor", mu_ok, "mu_m(r)", "(q-n+r)/q on n-r <= q")
    record("truncated binomial proximity", close_ok, "|mu_m - (1-1/q)^(n-r)|", "C(n-r, m+1) q^-(m+1)")

    # log bounds on the cycle average
    lb_ok = True
    for n in (4, 8, 12):
        for j in range(1, 9):
            for g in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                exact = math.log(cycle_average_series(j, n, g, p))
                if j <= n and exact > log_cycle_average_bound(j, n, g, p, "a"):
                    lb_ok = False
                if j <= 2 * p * n * g and exact > log_cycle_average_bound(j, n, g, p, "b"):
                    lb_ok = False
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

    # factorization-count remainder and pmf remainder on this group
    points = default_point_set(params)
    n = len(points)
    comparisons = 0
    pairs = 0
    if ell >= 1 and gamma_at_most_one(n, q, t, ell):
        for k in range(0, args.k + 1):
            dists = enumeration_distributions_all(group, k, points, budget=args.max_enum)
            comparisons += enumeration_comparisons(group, k, n)
            for j in range(k + 1, k + t + ell + 1):
                W = factorization_counts(group, j, k, points, budget=args.max_enum)
                pairs += factorization_pairs(group, j, k, n)
                main = Fraction(phi(k + t + ell - j, params.Q) * math.comb(n, j), group.order)
                bound = w_remainder_bound(j, n, q, k, t, ell, group.order)
                worst = max(abs(w - main) for w in W)
                record(
                    f"factorization remainder k={k} j={j}",
                    worst <= bound,
                    _frac(Fraction(worst)),
                    _frac(bound),
                )
            # the prediction and its bound depend on (k, r) alone, not on the class
            support = range(0, k + t + ell + 1)
            predictions = [pmf_prediction(params, n, r, k) for r in support]
            bounds = [pmf_remainder_bound(r, n, q, k, t, ell) for r in support]
            for eps in range(group.order):
                for r in support:
                    lhs = pmf_remainder_gap(dists[eps], r, predictions[r])
                    record(
                        f"pmf remainder k={k} eps={eps} r={r}", lhs <= bounds[r], _frac(lhs), _frac(bounds[r])
                    )
    else:
        checks.append(
            {
                "name": "remainder bounds",
                "pass": True,
                "skipped": "hypotheses ell >= 1 and gamma <= 1 not met",
            }
        )

    all_ok = all(c["pass"] for c in checks)
    _emit(args, {
        "checks": checks, "pass": all_ok,
        "engine": "enumeration", "work": {"comparisons": comparisons, "factorization_pairs": pairs},
    })
    return 0 if all_ok else 1


def cmd_rs(args) -> int:
    spec = FieldSpec(args.p, args.a)
    group = rs_group(spec, args.ell)
    engine = {"engine": "sieve", "work": sieve_work(group, args.k, spec.q)}
    if args.word:
        f = Polynomial.from_text(spec, args.word)
        row = rs_distance_row(f, args.k, args.ell, group, budget=args.max_enum)
        _emit(args, {"row": row.to_json(), "kind": classify_row(row), **engine})
        return 0
    census = rs_census(spec, args.k, args.ell, budget=args.max_enum, group=group)
    _emit(args, {"census": census, **engine})
    return 0


def cmd_approx(args) -> int:
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
    rows = []
    for eps in range(group.order):
        for r in sorted(dists[eps].counts):
            exact = dists[eps].probability(r)
            mu_mass, shape = shapes[r]
            rows.append({
                "eps": eps,
                "r": r,
                "count": str(dists[eps].counts[r]),
                "exact": _frac(exact),
                "exact_float": float(exact),
                "ratio_to_mu": float(exact / mu_mass) if mu_mass else float("inf"),
                **shape,
            })
    columns = [
        "eps", "r", "count", "exact", "exact_float", "binomial", "poisson",
        "mu_mass", "ratio_to_mu", "envelope",
    ]
    payload = {"table": rows, "engine": "sieve", "work": sieve_work(group, args.k, n)}
    _emit(args, payload, rows=rows, columns=columns)
    return 0


def cmd_regimes(args) -> int:
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
    _emit(args, {"table": rows}, rows=rows, columns=columns)
    return 0


def cmd_kernels(args) -> int:
    if args.kernel == "truncated-binomial":
        value = truncated_binomial_sum(args.m, args.r, args.n, args.q)
        _emit(args, {"kernel": args.kernel, "value": _frac(value)})
    elif args.kernel == "cycle-average":
        try:
            a, b = Fraction(args.a_val), Fraction(args.b_val)
        except ZeroDivisionError:
            raise ValidationError(f"zero denominator in --a-val {args.a_val} or --b-val {args.b_val}") from None
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
    spec, params, group = _build_group(args)
    report = verify_series_identities(group, args.d_max, budget=args.max_enum)
    payload = {
        "pass": report.all_ok,
        "checks": [{"name": c.name, "pass": c.ok, "detail": c.detail} for c in report.checks],
        "engine": "enumeration",
        "work": {"classes": group.order, **report.work},
    }
    _emit(args, payload)
    return 0 if report.all_ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hayesdist",
        description="Exact zero-count distributions over Hayes classes, with verification suites.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    s = subs.add_parser("exact-dist", help="per-class zero-count distributions")
    _field_args(s)
    s.add_argument("--k", type=int, required=True)
    s.add_argument(
        "--points", default=None,
        help="evaluation set D as comma-separated element indices (default: all non-roots of Q)",
    )
    _output_args(s)
    s.set_defaults(func=cmd_exact_dist)

    s = subs.add_parser("moments-check", help="verify the factorial-moment identity")
    _field_args(s)
    s.add_argument("--k", type=int, required=True, help="largest k to verify")
    s.add_argument("--k-min", type=int, default=0)
    _output_args(s)
    s.set_defaults(func=cmd_moments_check)

    s = subs.add_parser("weil", help="character and L-polynomial diagnostics")
    _field_args(s)
    _output_args(s)
    s.set_defaults(func=cmd_weil)

    s = subs.add_parser("bounds-check", help="inequality suites (sandwich, envelopes, remainders)")
    _field_args(s)
    s.add_argument("--k", type=int, default=2, help="largest k for the remainder suites")
    _output_args(s)
    s.set_defaults(func=cmd_bounds_check)

    s = subs.add_parser("rs", help="Reed-Solomon distance rows and deep-hole census")
    _field_args(s, hayes=False)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--ell", type=int, required=True)
    s.add_argument("--word", default=None, help="received word; omit for a census")
    s.add_argument("--census", action="store_true", help="classify every received word (default)")
    _output_args(s)
    s.set_defaults(func=cmd_rs)

    s = subs.add_parser("approx", help="exact vs limit-shape comparison table")
    _field_args(s)
    s.add_argument("--k", type=int, required=True)
    _output_args(s, table=True)
    s.set_defaults(func=cmd_approx)

    s = subs.add_parser("regimes", help="regime predicate table")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--a", type=int, default=1)
    s.add_argument("--ell", type=int, default=1)
    s.add_argument("--t", type=int, default=0)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--k-list", type=lambda s: [int(x) for x in s.split(",")], required=True)
    _output_args(s, table=True)
    s.set_defaults(func=cmd_regimes)

    s = subs.add_parser("series-check", help="group-algebra series identity checks")
    _field_args(s)
    s.add_argument("--d-max", type=int, required=True)
    _output_args(s)
    s.set_defaults(func=cmd_series_check)

    s = subs.add_parser("kernels", help="ad-hoc kernel evaluation")
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
    s.set_defaults(func=cmd_kernels)

    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
