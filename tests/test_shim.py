"""The benchmark's tracer (bench/shim.py) runs unchanged on the CLI: it looks
every layer up in sys.modules right after `import hayesdist.cli` and wraps
their entry points, so a lazy layer or a moved name breaks it here first."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(cmd, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path])}
    return subprocess.run(cmd, capture_output=True, env=env, cwd=tmp_path, timeout=120)


@pytest.mark.parametrize(
    "argv, spans",
    [
        (["kernels", "phi", "--p", "2", "--a", "4", "--Q", "x^2 + x + 1", "--j", "3"],
         {"ffield.setup", "cli.emit"}),
        (["weil", "--p", "3", "--ell", "1", "--Q", "x"],
         {"ffield.setup", "hayes.group", "hayes.class_counts", "chars.table", "cli.emit"}),
        (["exact-dist", "--p", "3", "--ell", "1", "--Q", "x", "--k", "2"],
         {"ffield.setup", "hayes.group", "dist.enum", "cli.emit"}),
    ],
)
def test_traced_job_matches_the_untraced_one(tmp_path, argv, spans):
    traced = _run(
        [sys.executable, str(ROOT / "bench" / "shim.py"), "trace.json", "--", *argv, "--out", "traced.out"], tmp_path
    )
    plain = _run([sys.executable, "-m", "hayesdist.cli", *argv, "--out", "plain.out"], tmp_path)
    assert traced.returncode == plain.returncode == 0, traced.stderr.decode()
    assert (tmp_path / "traced.out").read_bytes() == (tmp_path / "plain.out").read_bytes()
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert {span[0] for span in trace["spans"]} == spans
    assert trace["counters"]["ffield.setups"] >= 1
