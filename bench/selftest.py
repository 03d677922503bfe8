"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest -q bench/selftest.py

The file is not named ``test_*.py``, so the repository's own test run does
not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import verify
from workloads import WORKLOADS, Job, jobs

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _artifact(tmp_path: Path, argv: tuple[str, ...]) -> str:
    out = tmp_path / "artifact.json"
    cmd = [sys.executable, "-m", "hayesdist.cli", *argv, "--out", str(out)]
    _, _, code = run.spawn(cmd, tmp_path / "out.txt", tmp_path / "err.txt", 120)
    assert code == 0, (tmp_path / "err.txt").read_text()
    return out.read_text()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_jobs(workload):
    first, second = jobs(workload, 7), jobs(workload, 7)
    assert [(j.argv, j.expect) for j in first] == [(j.argv, j.expect) for j in second]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seeds_change_inputs_but_not_work(workload, tmp_path):
    a, b = jobs(workload, 1), jobs(workload, 2)
    assert [j.argv for j in a] != [j.argv for j in b]
    totals = []
    for seed in (1, 2):
        work = tmp_path / str(seed)
        work.mkdir()
        runner = run.Runner(workload, seed, work, time.perf_counter() + 150)
        traced = runner.run_pass(traced=True)
        assert traced.complete and not any(o.problems for o in traced.outcomes)
        counters = [o.trace["counters"] for o in traced.outcomes]
        totals.append({name: sum(c.get(name, 0) for c in counters)
                       for name in ("hayes.classes", "dist.comparisons")})
    assert totals[0] == totals[1]
    assert totals[0]["hayes.classes"] > 0 and totals[0]["dist.comparisons"] > 0


def test_verifier_flags_a_tampered_count(tmp_path):
    job = Job(("exact-dist", "--p", "3", "--ell", "1", "--Q", "x + 1", "--k", "2"),
              {"q": 3, "k": 2, "n": 2, "classes": 6})
    text = _artifact(tmp_path, job.argv)
    assert verify.problems(job, 0, "", text) == []
    data = json.loads(text)
    counts = data["distributions"][0]["counts"]
    r = next(iter(counts))
    counts[r] = str(int(counts[r]) + 1)
    tampered = json.dumps(data)
    assert verify.problems(job, 0, "", tampered)
    assert verify.digest(job, tampered) != verify.digest(job, text)


def test_verifier_flags_a_flipped_verdict(tmp_path):
    job = Job(("series-check", "--p", "2", "--ell", "1", "--Q", "x", "--d-max", "4"), {})
    text = _artifact(tmp_path, job.argv)
    assert verify.problems(job, 0, "", text) == []
    data = json.loads(text)
    data["pass"] = False
    assert verify.problems(job, 0, "", json.dumps(data))


def test_verifier_flags_exit_codes_and_tracebacks():
    job = Job(("kernels", "phi", "--p", "2", "--Q", "x", "--j", "2"), {"value": 2})
    assert verify.problems(job, 0, "", '{"value": "2"}') == []
    assert verify.problems(job, 2, "", '{"value": "2"}')
    assert verify.problems(job, 0, "Traceback (most recent call last):", '{"value": "2"}')
    assert verify.problems(job, 0, "", "not json")


def test_declared_metrics_are_the_emitted_ones():
    declared_e2e = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    assert {w["name"] for w in DECLARED["workloads"]} == set(WORKLOADS)
    for trace, declared in ((0, declared_e2e), (1, declared_layer)):
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "enum_verify", "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "enum_verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
