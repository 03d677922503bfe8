"""hayesdist benchmark: seeded CLI workloads, timed end to end and by layer.

Run from the root of a checkout::

    python3 bench/run.py --workload enum_verify --seed 1 --seconds 60 --trace 0

One client runs one job at a time (a closed loop); each job is a fresh
``python -m hayesdist.cli`` process, so interpreter start, imports and set-up
are paid per job as CLI users pay them.  A run first samples ``setup_s``
(a fresh interpreter importing ``hayesdist.cli``), then repeats the
workload's job list in passes while another pass still fits in
``--seconds``.  Every job's artifact is checked (see ``verify.py``); a job
that fails is counted and the run goes on.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics:
the wall time of the whole job list, the summed wall time per subcommand,
the highest child peak RSS and the set-up time.  With ``--trace 1`` untraced
and traced passes alternate; traced jobs run under ``shim.py``, which
records spans and counters per layer, and the last line carries the
per-layer metrics plus the tracing overhead.  The spans of a traced run are
written to ``.bench_work/trace-<workload>-<seed>.json``.

Machine speed.  On a shared host the speed of a core drifts by tens of
percent within minutes, and a single job varies by 10-20% from one pass to
the next.  Job times are therefore means over a run's passes, and each is
multiplied by ``sqrt(REFERENCE_PROBE_S / speed probe)``.  The speed probe
is a fixed pure-Python loop that runs nothing from the repository, timed
before each set-up sample and each job and taken as the 20% trimmed mean
over the run.
The square root is measured, not assumed: when the host slowed the probe by
about 70%, the jobs slowed by 23-30%, and over 45 runs of both workloads the
square root gave the narrowest run-to-run spreads on average (see the
README).  The factor is the same for every job of a run, so a change to the
program moves these times as it moves wall time.

``setup_s`` is measured against another interpreter start instead: each
sample times ``import hayesdist.cli`` right after ``import numpy``, each in
a fresh interpreter, and ``setup_s`` is ``REFERENCE_NUMPY_START_S`` times
the median of the ratios.  Host drift slows both imports alike, while a
change to what hayesdist imports or does at import moves the ratio.  The
summary line before the result gives the uncorrected times and the probe.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import verify
from workloads import SUBCOMMANDS, WORKLOADS, jobs

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
HARD_LIMIT_S = 165  # stop starting jobs here, so a run always exits within 180 s
PROBE_LOOPS = 100_000
REFERENCE_PROBE_S = 0.01  # a fixed scale: times are reported as if the probe read this
REFERENCE_NUMPY_START_S = 0.2  # likewise for setup_s and `python -c "import numpy"`

END_TO_END = {
    "wall_s": "s",
    **{f"{sub.replace('-', '_')}_s": "s" for sub in SUBCOMMANDS},
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# span name (see shim.py) -> per-layer self-time metric
SPAN_METRICS = {
    "ffield.setup": "ffield.setup_s",
    "hayes.group": "hayes.group_s",
    "hayes.class_counts": "hayes.class_counts_s",
    "chars.decompose": "chars.decompose_s",
    "chars.table": "chars.table_s",
    "chars.lpoly": "chars.lpoly_s",
    "dist.enum": "dist.enum_s",
    "dist.factorization": "dist.factorization_s",
    "dist.series": "dist.series_s",
    "dist.census": "dist.census_s",
    "comb": "comb.s",
    "asym": "asym.s",
    "cli.emit": "cli.emit_s",
}
COUNTERS = {
    "ffield.monic_enumerated": "count",
    "hayes.classes": "count",
    "hayes.table_cells": "count",
    "hayes.class_of_calls": "count",
    "chars.character_sums": "count",
    "chars.table_bytes": "B",
    "dist.comparisons": "count",
    "dist.factorization_pairs": "count",
    "comb.calls": "count",
    "asym.calls": "count",
    "cli.artifact_bytes": "B",
}
PER_LAYER = {
    **{metric: "s" for metric in SPAN_METRICS.values()},
    "cli.other_s": "s",
    "ffield.setups": "1/job",
    **COUNTERS,
    "hayes.rss_mb": "MB",
    "trace.overhead": "1",
}


@dataclass
class Outcome:
    """One job of one pass."""

    wall: float
    rss_kb: int
    problems: list[str]
    trace: dict = field(default_factory=dict)


@dataclass
class Pass:
    traced: bool
    outcomes: list[Outcome]
    complete: bool

    @property
    def wall(self) -> float:
        """Sum of the jobs' spawn-to-exit times; probes and checks are left out."""
        return sum(o.wall for o in self.outcomes)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    return env


def spawn(cmd: list[str], stdout: Path, stderr: Path, timeout: float) -> tuple[float, int, int]:
    """Run one child to exit; (wall seconds from spawn to exit, peak RSS kB, exit code)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=_child_env())
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace") if path.exists() else ""


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _trimmed_mean(values, cut: float = 0.2) -> float:
    """Mean without the lowest and highest `cut` share: probes have outliers."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return _mean(ordered[k:len(ordered) - k])


class Runner:
    """The job list of one (workload, seed), its passes and its probes."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.jobs = jobs(workload, seed)
        self.work = work
        self.deadline = deadline
        self.speed: list[float] = []
        self.setup: list[tuple[float, float]] = []
        record = json.loads((BENCH / "expected.json").read_text())
        self.record = record.get(workload, {}).get(str(seed))

    def start(self, module: str) -> float:
        """Seconds a fresh interpreter takes to import `module`."""
        wall, _, status = spawn([sys.executable, "-c", f"import {module}"], self.work / "setup.out",
                                self.work / "setup.err", 60)
        if status != 0:
            raise RuntimeError(f"import {module} failed: {_read(self.work / 'setup.err')}")
        return wall

    def sample_setup(self) -> None:
        """Pairs (import hayesdist.cli, import numpy just before), as every CLI call imports first."""
        self.start("hayesdist.cli")  # untimed: fills the bytecode cache
        for _ in range(SETUP_SAMPLES):
            self.speed.append(speed_probe())
            numpy_start = self.start("numpy")
            self.setup.append((self.start("hayesdist.cli"), numpy_start))

    def run_pass(self, traced: bool) -> Pass:
        """One closed-loop pass over the job list; the checks run after it."""
        raw = []
        for i, job in enumerate(self.jobs):
            left = self.deadline - time.perf_counter()
            if left <= 0:
                break
            artifact = self.work / f"job{i}.json"
            trace = self.work / f"job{i}.trace.json"
            for stale in (artifact, trace):
                stale.unlink(missing_ok=True)
            if traced:
                cmd = [sys.executable, str(BENCH / "shim.py"), str(trace), "--"]
            else:
                cmd = [sys.executable, "-m", "hayesdist.cli"]
            cmd += [*job.argv, "--out", str(artifact)]
            self.speed.append(speed_probe())
            raw.append(spawn(cmd, self.work / f"job{i}.out", self.work / f"job{i}.err", left))
        outcomes = [self.check(i, traced, *r) for i, r in enumerate(raw)]
        return Pass(traced, outcomes, len(raw) == len(self.jobs))

    def check(self, i: int, traced: bool, wall: float, rss_kb: int, code: int) -> Outcome:
        job = self.jobs[i]
        artifact = _read(self.work / f"job{i}.json")
        problems = verify.problems(job, code, _read(self.work / f"job{i}.err"), artifact)
        if not problems and self.record is not None:
            if len(self.record) != len(self.jobs):
                problems.append("recorded job list has another length")
            elif verify.digest(job, artifact) != self.record[i]:
                problems.append("content differs from the record")
        if problems:
            print(f"FAILED {self.workload} seed {self.seed} job {i} ({' '.join(job.argv)}): "
                  + "; ".join(problems[:3]), file=sys.stderr)
        trace = json.loads(_read(self.work / f"job{i}.trace.json") or "{}") if traced else {}
        return Outcome(wall, rss_kb, problems, trace)

    def scale(self) -> float:
        """The machine-speed factor for every time of the run (see the module docstring)."""
        return math.sqrt(REFERENCE_PROBE_S / _trimmed_mean(self.speed))


def end_to_end(runner: Runner, passes: list[Pass]) -> tuple[dict, dict]:
    """(metrics corrected for machine speed, the same metrics as measured)."""
    plain = [p for p in passes if not p.traced]
    per_job = [_mean([p.outcomes[i].wall for p in plain if i < len(p.outcomes)])
               for i in range(len(runner.jobs))]
    raw = {"wall_s": sum(per_job)}
    for sub in SUBCOMMANDS:
        raw[f"{sub.replace('-', '_')}_s"] = sum(t for job, t in zip(runner.jobs, per_job) if job.subcommand == sub)
    raw["setup_s"] = statistics.median(h for h, _ in runner.setup)
    metrics = {name: value * runner.scale() for name, value in raw.items()}
    metrics["setup_s"] = REFERENCE_NUMPY_START_S * statistics.median(h / n for h, n in runner.setup)
    raw["peak_rss_mb"] = metrics["peak_rss_mb"] = max(o.rss_kb for p in plain for o in p.outcomes) / 1024
    return metrics, raw


def _layer_pass(runner: Runner, p: Pass) -> dict:
    """Per-layer self times (corrected for machine speed) and counters of one traced pass."""
    out = {metric: 0.0 for metric in SPAN_METRICS.values()}
    out.update({name: 0 for name in COUNTERS})
    other = 0.0
    setups = 0
    rss_kb = 0
    for o in p.outcomes:
        spans = o.trace.get("spans", [])
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        for idx, (name, start, end, parent) in enumerate(spans):
            out[SPAN_METRICS[name]] += (end - start - children[idx]) * runner.scale()
        other += o.wall - sum(end - start for _, start, end, parent in spans if parent < 0)
        counters = o.trace.get("counters", {})
        for name in COUNTERS:
            out[name] += counters.get(name, 0)
        setups += counters.get("ffield.setups", 0)
        rss_kb = max(rss_kb, counters.get("hayes.rss_kb", 0))
    out["cli.other_s"] = other * runner.scale()
    out["ffield.setups"] = setups / len(runner.jobs)
    out["hayes.rss_mb"] = rss_kb / 1024
    return out


def per_layer(runner: Runner, passes: list[Pass]) -> dict:
    traced = [p for p in passes if p.traced and p.complete]
    layers = [_layer_pass(runner, p) for p in traced]
    metrics = {name: _mean([layer[name] for layer in layers]) for name in PER_LAYER if name != "trace.overhead"}
    plain_wall = _mean([p.wall for p in passes if not p.traced and p.complete])
    traced_wall = _mean([p.wall for p in traced])
    metrics["trace.overhead"] = traced_wall / plain_wall - 1 if plain_wall and traced_wall else 0.0
    return metrics


def environment() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg": os.getloadavg(),
    }


def write_trace(path: Path, runner: Runner, passes: list[Pass]) -> None:
    """All spans of the run, one entry per traced job, with the job id."""
    entries = []
    for number, p in enumerate(passes):
        for i, o in enumerate(p.outcomes if p.traced else []):
            entries.append({"pass": number, "job": i, "argv": list(runner.jobs[i].argv),
                            "wall": o.wall, **o.trace})
    path.write_text(json.dumps({"workload": runner.workload, "seed": runner.seed, "jobs": entries}))


def measure(args, work: Path) -> dict:
    t0 = time.perf_counter()
    runner = Runner(args.workload, args.seed, work, t0 + HARD_LIMIT_S)
    print(json.dumps({"environment": environment()}), flush=True)
    runner.sample_setup()
    passes: list[Pass] = []
    min_passes = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(runner.run_pass(traced))
        now = time.perf_counter()
        fits = now - t0 + max(p.wall for p in passes) <= args.seconds
        if (len(passes) >= min_passes and not fits) or now >= runner.deadline:
            break
    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(1 for o in outcomes if o.problems)
    if args.trace:
        write_trace(work.parent / f"trace-{args.workload}-{args.seed}.json", runner, passes)
        metrics, raw, units = per_layer(runner, passes), None, PER_LAYER
    else:
        (metrics, raw), units = end_to_end(runner, passes), END_TO_END
    print(json.dumps({"summary": {
        "workload": args.workload, "seed": args.seed, "passes": len(passes),
        "jobs_per_pass": len(runner.jobs), "setup_samples": len(runner.setup),
        "fail_ratio": failed / max(len(outcomes), 1),
        "speed_probe_s": _trimmed_mean(runner.speed),
        "measured": raw,
    }}), flush=True)
    return {
        "correct": failed == 0 and bool(outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "hayesdist" / "cli.py").is_file():
        print("bench/run.py: run it from the root of a hayesdist checkout "
              "(src/hayesdist/cli.py not found)", file=sys.stderr)
        return 2
    work = Path.cwd() / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
