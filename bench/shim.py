"""Traced child: run one hayesdist CLI job with spans around each layer.

Usage::

    PYTHONPATH=src python3 bench/shim.py TRACE_OUT -- SUBCOMMAND [ARGS...]

Before calling ``hayesdist.cli.run`` the shim replaces the public entry
points of every layer (ffield, hayes, chars, dist, comb, asym, cli) with
wrappers, both where each is defined and wherever another hayesdist module
bound the name by import.  A wrapper records a span (name, start, end,
parent span) and adds counters computed from the call's arguments, so the
counts repeat exactly from run to run.  Spans stay in memory and are written
to TRACE_OUT as JSON when the job ends; nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import resource
import sys
import time


def _comparisons(a, result):
    dists = result if isinstance(result, list) else [result]
    return {"dist.comparisons": sum(d.total * len(d.points) for d in dists)}


def _factorization_pairs(a, result):
    from hayesdist.dist import default_point_set

    params = a["group"].params
    points = a["points"]
    n = len(default_point_set(params)) if points is None else len(set(points))
    deg_g = a["k"] + params.t + params.ell - a["j"]
    return {"dist.factorization_pairs": math.comb(n, a["j"]) * params.spec.q ** deg_g}


def _group_size(a, result):
    order = a["self"].order
    return {"hayes.classes": order, "hayes.table_cells": order * order}


def _artifact_bytes(a, result):
    out = a["args"].out
    return {"cli.artifact_bytes": os.path.getsize(out) if out and os.path.exists(out) else 0}


_COMB = (
    "truncated_binomial_sum", "cycle_average_series", "cycle_average_closed",
    "cycle_average_bruteforce", "coordinate_sieve_check", "binomial_lower_bound",
)
_ASYM = (
    "binomial_pmf", "poisson_pmf", "binomial_envelope", "mu_binomial_pmf",
    "w_remainder_bound", "pmf_remainder_bound", "log_cycle_average_bound",
    "gamma_at_most_one", "condition_a", "condition_b",
)

# (module, attribute, span name or None for counters only, counters).
# Counters are either fixed increments or a function of the bound call
# arguments and the result.
ENTRY_POINTS = [
    ("ffield", "FieldSpec.__init__", "ffield.setup", {"ffield.setups": 1}),
    ("ffield", "enumerate_monic", None,
     lambda a, r: {"ffield.monic_enumerated": a["spec"].q ** a["d"]}),
    ("hayes", "ClassGroup.__init__", "hayes.group", _group_size),
    ("hayes", "ClassGroup.monic_class_counts", "hayes.class_counts", {}),
    ("hayes", "ClassGroup.class_of", None, {"hayes.class_of_calls": 1}),
    ("chars", "decompose", "chars.decompose", {}),
    ("chars", "CharacterTable.__init__", "chars.table",
     lambda a, r: {"chars.table_bytes": 16 * a["self"].order ** 2}),
    ("chars", "l_polynomial", "chars.lpoly", {}),
    ("chars", "character_sum", None, {"chars.character_sums": 1}),
    ("dist", "exact_distributions_all", "dist.enum", _comparisons),
    ("dist", "exact_distribution", "dist.enum", _comparisons),
    ("dist", "factorization_counts", "dist.factorization", _factorization_pairs),
    ("dist", "verify_series_identities", "dist.series", {}),
    ("dist", "rs_census", "dist.census", {}),
    *[("comb", name, "comb", {"comb.calls": 1}) for name in _COMB],
    *[("asym", name, "asym", {"asym.calls": 1}) for name in _ASYM],
    ("cli", "_emit", "cli.emit", _artifact_bytes),
]


class Tracer:
    """Spans and counters of one job, kept in memory until ``write``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def count(self, increments: dict) -> None:
        for key, value in increments.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, fn, span: str | None, counters):
        signature = inspect.signature(fn) if callable(counters) else None
        track_rss = span == "hayes.group"  # growth of peak RSS across ClassGroup(...)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                idx = len(self.spans)
                self.spans.append([span, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
                self.stack.append(idx)
                rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if track_rss else 0
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.spans[idx][2] = time.perf_counter()
                    self.stack.pop()
                if track_rss:
                    self.count({"hayes.rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0})
            if signature is None:
                self.count(counters)
            else:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.count(counters(bound.arguments, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point where defined and where imported by name."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "hayesdist" and m]
        for module_name, attr, span, counters in ENTRY_POINTS:
            home = sys.modules[f"hayesdist.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, method, self.wrap(getattr(cls, method), span, counters))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(original, span, counters)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def main() -> int:
    trace_out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: shim.py TRACE_OUT -- SUBCOMMAND [ARGS...]")
    import hayesdist.cli

    tracer = Tracer()
    tracer.install()
    try:
        return hayesdist.cli.run(argv)
    finally:
        tracer.write(trace_out)


if __name__ == "__main__":
    sys.exit(main())
