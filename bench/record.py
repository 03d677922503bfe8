"""Record the parsed content of every job's artifact for seeds 0-15.

Run from the root of a checkout whose artifacts are known to be right::

    python3 bench/record.py

It writes ``bench/expected.json``: per workload and seed, one digest per job
of the artifact's counts, class representatives and verdicts (see
``verify.digest``).  ``run.py`` compares every job of a recorded seed with
it.  A job that fails its checks stops the recording.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import verify
from run import BENCH, spawn
from workloads import WORKLOADS, jobs

SEEDS = range(16)


def record(workload: str, seed: int, work: Path) -> list[str]:
    digests = []
    for i, job in enumerate(jobs(workload, seed)):
        artifact, err = work / "artifact.json", work / "stderr.txt"
        artifact.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "hayesdist.cli", *job.argv, "--out", str(artifact)]
        _, _, code = spawn(cmd, work / "stdout.txt", err, 170)
        text = artifact.read_text() if artifact.exists() else ""
        problems = verify.problems(job, code, err.read_text(), text)
        if problems:
            raise SystemExit(f"{workload} seed {seed} job {i} ({' '.join(job.argv)}): {problems}")
        digests.append(verify.digest(job, text))
    return digests


def main() -> None:
    out = {}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for workload in WORKLOADS:
            out[workload] = {str(seed): record(workload, seed, Path(tmp)) for seed in SEEDS}
            print(f"{workload}: seeds {SEEDS.start}-{SEEDS.stop - 1} recorded", flush=True)
    (BENCH / "expected.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
