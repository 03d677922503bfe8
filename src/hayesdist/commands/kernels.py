"""`kernels`: one scalar kernel (truncated binomial sum, cycle average,
coprime count phi) at the given arguments."""

from __future__ import annotations

import argparse

from ..errors import ValidationError, check_budget
from ..ffield import FieldSpec, Polynomial, phi
from . import _emit, _frac, _output_args


def arguments(s: argparse.ArgumentParser) -> None:
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


def run(args) -> int:
    if args.kernel == "truncated-binomial":
        from ..comb import truncated_binomial_sum

        value = truncated_binomial_sum(args.m, args.r, args.n, args.q)
        _emit(args, {"kernel": args.kernel, "value": _frac(value)})
    elif args.kernel == "cycle-average":
        from fractions import Fraction

        from ..comb import (
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
