"""`series-check`: the group-algebra series identities, degree by degree."""

from __future__ import annotations

import argparse

from . import _build_group, _emit, _field_args, _output_args


def arguments(s: argparse.ArgumentParser) -> None:
    _field_args(s)
    s.add_argument("--d-max", type=int, required=True)
    _output_args(s)


def run(args) -> int:
    from ..dist import verify_series_identities

    spec, params, group = _build_group(args)
    passed, checks, work = verify_series_identities(group, args.d_max, budget=args.max_enum)
    _emit(args, {"pass": passed, "checks": checks, "engine": "enumeration", "work": {"classes": group.order, **work}})
    return 0 if passed else 1
