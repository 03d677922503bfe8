"""Command-line front end: the dispatcher of the `hayesdist` command.

Each subcommand lives in its own module, `hayesdist.commands.<name>` (the
subcommand's name with "_" for "-"), which fills in its subparser and runs
the job; this module holds the parser and imports only the module of the
subcommand that the command line names, so a job compiles one subcommand's
code.  The helpers that the subcommands share are in `hayesdist.commands`.

Every subcommand writes a deterministic artifact (JSON, or CSV for the
tables of `approx` and `regimes`) that embeds the run configuration and the
library version; identical configuration and seed give byte-identical output.

Artifacts of the distribution commands, `weil` and `series-check` name the
engine that produced their numbers ("sieve" or "transform" for the rows W_j,
one engine for all of a command's rows; "enumeration" or "characters") and
its deterministic work counts.  Each distribution command takes its row
engine and cells from one `dist.sieve_plan` call (the planner
`dist.moment_plan`) and forms the rows of all its k by one `dist.sieve_rows`
call: `moments-check` and `bounds-check` check the oracle's comparisons,
summed over their k, and the engine's cells for the one row run, before any
k runs, so a refusal reports the totals that the artifact would.  Both row
engines stay; the `dist` docstring says why.

Exit codes: 0 when all asserted checks pass, 1 for validation or check
failures (usage errors on the command line included), arithmetic-check
failures and internal consistency errors (with a machine-readable failure
record on stdout/the artifact), 2 when a work budget is exceeded.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import sys

from .commands import _emit  # re-exported: bench/shim.py wraps cli._emit by name
from .errors import BudgetExceededError, ValidationError


def _defer(name: str) -> None:
    """Put hayesdist.<name> in sys.modules without running its code, which
    runs on the first attribute access.

    The layers that only some subcommands use (hayes, chars, dist, comb,
    asym) are imported inside those subcommands, so a job compiles and runs
    no more of the package than it calls, and the scalar subcommands
    (`kernels`, `regimes`, usage errors) never import numpy.  Tools that
    wrap the layers by module name right after `import hayesdist.cli` (the
    benchmark's tracer, bench/shim.py) still find every layer in
    sys.modules."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)


for _layer in ("hayes", "chars", "dist", "comb", "asym"):
    _defer(_layer)


class _Parser(argparse.ArgumentParser):
    """Usage errors end in the validation record and exit code 1, not in
    argparse's exit code 2, which here means budget-exceeded."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


class _SubParser(_Parser):
    """A subcommand's parser reports the arguments it does not know itself,
    under its own usage, where argparse would pass them up to the top level."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


# name -> (help, module under hayesdist.commands), in the order of the top-level help
_SUBCOMMANDS = {
    "exact-dist": ("per-class zero-count distributions", "exact_dist"),
    "moments-check": ("verify the factorial-moment identity", "moments_check"),
    "weil": ("character and L-polynomial diagnostics", "weil"),
    "bounds-check": ("inequality suites (sandwich, envelopes, remainders)", "bounds_check"),
    "rs": ("Reed-Solomon distance rows and deep-hole census", "rs"),
    "approx": ("exact vs limit-shape comparison table", "approx"),
    "regimes": ("regime predicate table", "regimes"),
    "series-check": ("group-algebra series identity checks", "series_check"),
    "kernels": ("ad-hoc kernel evaluation", "kernels"),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser, with every subcommand and its help.  Only the subcommand
    that `argv` invokes is imported and has its arguments filled in, which
    is all that parsing `argv` reads; all of them when `argv` names none."""
    parser = _Parser(
        prog="hayesdist",
        description="Exact zero-count distributions over Hayes classes, with verification suites.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True, parser_class=_SubParser)
    # the top level has no option that takes a value: the first word is the subcommand
    invoked = next((word for word in argv or () if not word.startswith("-")), None)
    for name, (help_text, module) in _SUBCOMMANDS.items():
        s = subs.add_parser(name, help=help_text)
        if invoked not in _SUBCOMMANDS or invoked == name:
            command = importlib.import_module(f"{__package__}.commands.{module}")
            command.arguments(s)
            s.set_defaults(func=command.run)
    return parser


def run(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    code = 1
    try:
        args = build_parser(argv).parse_args(argv)
        if (args.max_enum or 0) < 0:
            raise ValidationError(f"--max-enum must be >= 0, got {args.max_enum}")
        return args.func(args)
    except BudgetExceededError as exc:
        record = {"error": "budget-exceeded", "what": exc.what, "value": exc.value, "budget": exc.budget}
        code = 2
    except (ValidationError, ValueError) as exc:
        record = {"error": "validation", "message": str(exc)}
    except ArithmeticError as exc:
        # a verified inequality failed (e.g. a character sum above its Weil bound)
        record = {"error": "arithmetic-check", "type": type(exc).__name__, "message": str(exc)}
    except RuntimeError as exc:
        # an internal consistency check failed (class count, decomposition)
        record = {"error": "internal", "type": type(exc).__name__, "message": str(exc)}
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`): point the real stdout at
        # devnull so that the interpreter's last flush cannot fail again
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write('{"error": "broken-pipe"}\n')
        return 1
    import json  # only a failed job writes a record

    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    return code


def main() -> None:
    # No BLAS call here is threaded (the one LAPACK call is `eigvals` on
    # companion matrices of size at most t + ell - 1), so numpy's OpenBLAS,
    # which loads after this, starts no worker thread unless asked to
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = run()
    # The artifact is closed and what is still alive dies with the process:
    # frozen, it is skipped by the interpreter's exit-time collections, while
    # stdout and stderr are still flushed and atexit handlers still run.  The
    # young generations go first (well under a millisecond), so that the
    # teardown reuses the memory of their cyclic garbage instead of growing
    # the heap (about 0.1 MB of peak RSS on a small job).
    gc.collect(1)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
