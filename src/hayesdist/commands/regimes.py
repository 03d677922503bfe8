"""`regimes`: the regime predicates (conditions a and b) for a list of k,
as a table."""

from __future__ import annotations

import argparse

from ..errors import ValidationError
from ..ffield import _is_prime
from . import _emit, _output_args


def arguments(s: argparse.ArgumentParser) -> None:
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--a", type=int, default=1)
    s.add_argument("--ell", type=int, default=1)
    s.add_argument("--t", type=int, default=0)
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--k-list", type=lambda s: [int(x) for x in s.split(",")], required=True)
    _output_args(s, table=True)
    s.add_argument("--delta0", type=float, default=0.05)


def run(args) -> int:
    from ..asym import Regime, condition_a, condition_b

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
