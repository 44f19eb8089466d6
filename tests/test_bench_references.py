"""The cheap benchmark jobs, run in-process, against bench/references.json.

Each job's exit code and stdout sha256 must equal the recorded reference, as
in the benchmark's own output gate.  The file is only read.
"""
import hashlib
import json
from pathlib import Path

import pytest

from mazurtate import cache
from mazurtate.cli import main

REFERENCES = json.loads((Path(__file__).resolve().parents[1] / "bench" / "references.json").read_text())

JOBS = [
    "eigensymbol --coeffs 0,0,1,-1,0 --conductor 37 --label 37a1 --format json",
    "eigensymbol --coeffs 0,1,1,-2,0 --conductor 389 --label 389a1 --format json",
    "boundary --curve 174b1 --p 7 --format json",
    "analyze --curve 11a --p 5 --n-max 1 --format json",
    "analyze --curve 26b1 --p 7 --n-max 3 --format json",
    "invariants --curve 26b1 --p 7 --n-max 3 --format json",
    "eigensymbol --coeffs 0,-1,1,-929,-10595 --conductor 571 --label 571a1 --format json",
    "eigensymbol --coeffs 1,1,0,-1154,-15345 --conductor 681 --label 681b1 --format json",
    "boundary --coeffs 1,1,0,-1154,-15345 --conductor 681 --label 681b1 --p 3 --format json",
    "boundary --coeffs 0,1,1,-2,0 --conductor 389 --label 389a1 --p 3 --format json",
]


@pytest.mark.parametrize("job", JOBS)
def test_job_matches_reference(job, capsys, monkeypatch):
    monkeypatch.delenv(cache.ENV_CACHE_DIR, raising=False)  # the jobs run uncached
    code = main(job.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    ref = REFERENCES[job]
    assert (code, digest) == (ref["exit_code"], ref["stdout_sha256"])
