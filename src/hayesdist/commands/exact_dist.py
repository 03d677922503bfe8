"""`exact-dist`: the per-class zero-count distributions of degree-k words."""

from __future__ import annotations

import argparse

from . import _build_group, _emit, _field_args, _output_args, _parse_points


def arguments(s: argparse.ArgumentParser) -> None:
    _field_args(s)
    s.add_argument("--k", type=int, required=True)
    s.add_argument(
        "--points", default=None,
        help="evaluation set D as comma-separated element indices (default: all non-roots of Q)",
    )
    _output_args(s)


def run(args) -> int:
    from ..dist import exact_distributions_all, sieve_plan

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
