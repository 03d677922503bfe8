"""`moments-check`: the factorial-moment identity, the enumeration oracle
against the closed form and the sieve's rows, for every k of the run."""

from __future__ import annotations

import argparse
import math

from ..errors import ValidationError, check_budget
from . import _build_group, _emit, _field_args, _output_args, _ratio


def arguments(s: argparse.ArgumentParser) -> None:
    _field_args(s)
    s.add_argument("--k", type=int, required=True, help="largest k to verify")
    s.add_argument("--k-min", type=int, default=0)
    _output_args(s)


def run(args) -> int:
    from ..dist import (
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
