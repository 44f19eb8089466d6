"""Record the exact-output references: exit code and stdout sha256 per job.

Usage (from the repository root): python3 bench/record_references.py

Every job of every workload in workloads.json runs once as a plain, uncached
``python -m mazurtate.cli`` process.  The cache-warm jobs are recorded
without ``--cache``, so a cache that serves a wrong result fails the gate.
Re-record only when a change is meant to alter the CLI's output.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from run import BENCH, JOB_CAP_S, SPEC, spawn_and_wait


def main() -> int:
    jobs = sorted({job for w in SPEC["workloads"].values() for job in w["jobs"]})
    refs = {}
    work = BENCH.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        stdout_path = Path(tmp) / "stdout"
        for job in jobs:
            seconds, code, *_, finished = spawn_and_wait(
                [sys.executable, "-m", "mazurtate.cli", *job.split()], stdout_path, JOB_CAP_S)
            if not finished:
                sys.exit(f"did not finish within {JOB_CAP_S} s: {job}")
            refs[job] = {"exit_code": code, "stdout_sha256": hashlib.sha256(stdout_path.read_bytes()).hexdigest()}
            print(f"{seconds:7.2f} s  exit {code}  {job}")
    (BENCH / "references.json").write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
