"""`approx`: the exact per-class probabilities against the binomial,
Poisson and mu limit shapes, as a table."""

from __future__ import annotations

import argparse

from . import _build_group, _emit, _field_args, _frac, _output_args


def arguments(s: argparse.ArgumentParser) -> None:
    _field_args(s)
    s.add_argument("--k", type=int, required=True)
    _output_args(s, table=True)


def run(args) -> int:
    from ..asym import binomial_envelope, binomial_pmf, mu_binomial_pmf, poisson_pmf
    from ..dist import default_point_set, exact_distributions_all, sieve_plan

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
