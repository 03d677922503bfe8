"""`weil`: the characters of the class group, their L-polynomials and the
Weil bounds on their coefficients."""

from __future__ import annotations

import argparse

from . import _build_group, _emit, _field_args, _output_args


def arguments(s: argparse.ArgumentParser) -> None:
    _field_args(s)
    _output_args(s)


def run(args) -> int:
    from ..chars import CharacterTable, weil_bound

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
