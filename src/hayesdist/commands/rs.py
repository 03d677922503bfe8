"""`rs`: the distance row of a received word of a Reed-Solomon code, or the
census of every word's row (deep holes among them)."""

from __future__ import annotations

import argparse

from ..errors import ValidationError
from ..ffield import FieldSpec, Polynomial
from . import _emit, _field_args, _output_args


def arguments(s: argparse.ArgumentParser) -> None:
    _field_args(s, hayes=False)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--ell", type=int, required=True)
    s.add_argument("--word", default=None, help="received word; omit for a census")
    s.add_argument("--census", action="store_true", help="classify every received word (default)")
    _output_args(s)


def run(args) -> int:
    from ..dist import classify_row, rs_census, rs_distance_row, rs_group, sieve_plan

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
