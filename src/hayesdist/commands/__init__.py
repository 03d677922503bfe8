"""The subcommands of the `hayesdist` command, one module each.

A subcommand's module gives `arguments(parser)`, which fills in its
subparser, and `run(args)`, which does the job and returns the exit code;
`hayesdist.cli` imports only the module of the subcommand it runs.  The
helpers that several subcommands share live here and not in `cli`: under
``python -m hayesdist.cli`` the dispatcher runs as ``__main__``, and a
command module that imported `hayesdist.cli` would compile and run it a
second time.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import TYPE_CHECKING

from .. import __version__, _writer
from ..errors import ValidationError
from ..ffield import FieldSpec, Polynomial

if TYPE_CHECKING:
    from fractions import Fraction

    from ..hayes import ClassGroup, HayesParams


def _field_args(sub: argparse.ArgumentParser, hayes: bool = True) -> None:
    sub.add_argument("--p", type=int, required=True, help="prime characteristic")
    sub.add_argument("--a", type=int, default=1, help="extension degree (default 1)")
    if hayes:
        sub.add_argument("--ell", type=int, default=1, help="number of prescribed leading coefficients")
        sub.add_argument("--Q", default="1", help='modulus polynomial, e.g. "x^2 + x + 1"')


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
    from ..hayes import ClassGroup, HayesParams

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
            import json

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


def _parse_points(spec: FieldSpec, text: str | None):
    """Point set from comma-separated element indices; None = all non-roots of Q."""
    if text is None:
        return None
    return tuple(spec.element(int(tok)) for tok in text.split(",") if tok.strip())
