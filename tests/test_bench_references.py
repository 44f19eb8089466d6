"""The benchmark jobs, run in-process, against bench/references.json.

Each job's exit code and stdout sha256 must equal the recorded reference, as
in the benchmark's own output gate.  The benchmark's files are only read.
"""
import hashlib
import json
import types
from pathlib import Path

import pytest

from mazurtate import cache, hecke
from mazurtate.cli import main
from mazurtate.modsym import build_space

BENCH = Path(__file__).resolve().parents[1] / "bench"
REFERENCES = json.loads((BENCH / "references.json").read_text())

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
    "analyze --curve 11a --p 5 --n-max 5 --format json",
    "analyze --curve 11a --p 3 --n-max 7 --format json",
    "analyze --curve 174b1 --p 5 --n-max 4 --format json",
    "invariants --curve 11a --p 5 --n-max 4 --format json",
    "analyze --curve 174b1 --p 7 --n-max 3 --format json",
    "invariants --curve 174b1 --p 5 --n-max 3 --format json",
]


CACHE_JOBS = json.loads((BENCH / "workloads.json").read_text())["workloads"]["cache-warm"]["jobs"]


def run_job(job, capsys, monkeypatch, cache_dir=None):
    monkeypatch.delenv(cache.ENV_CACHE_DIR, raising=False)  # a job uses a cache only with --cache
    code = main(job.split() + (["--cache", str(cache_dir)] if cache_dir else []))
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    ref = REFERENCES[job]
    return (code, digest) == (ref["exit_code"], ref["stdout_sha256"])


@pytest.mark.parametrize("job", JOBS)
def test_job_matches_reference(job, capsys, monkeypatch):
    assert run_job(job, capsys, monkeypatch)


@pytest.mark.parametrize("job", [job for job in JOBS if job.startswith(("eigensymbol", "boundary"))
                                 and any(label in job for label in ("37a1", "389a1", "571a1", "174b1"))])
def test_job_matches_reference_with_a_tiny_modulus(job, capsys, monkeypatch):
    # mod 3 the eigenline mostly fails to certify, so the exact elimination
    # over Q runs instead; the output must not change either way
    monkeypatch.setattr(hecke, "MODULUS", 3)
    assert run_job(job, capsys, monkeypatch)


@pytest.mark.parametrize("job", [job for job in JOBS if job.startswith("eigensymbol")
                                 and any(label in job for label in ("389a1", "571a1", "681b1"))])
def test_eigensymbol_jobs_never_take_the_exact_elimination(job, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the exact elimination was called")

    monkeypatch.setattr(hecke, "echelon", refuse)
    assert run_job(job, capsys, monkeypatch)


def test_cache_jobs_match_reference_cold_and_warm(tmp_path, capsys, monkeypatch):
    # the cached outputs must equal the uncached references, both when the
    # jobs fill the cache and when they read it back without rebuilding what it holds
    assert len(CACHE_JOBS) == 6
    assert [job for job in CACHE_JOBS if not run_job(job, capsys, monkeypatch, tmp_path)] == []
    # four eigensymbols and nothing else: no relation quotient is stored
    names = sorted(path.name for path in tmp_path.iterdir())
    assert [name.split("_")[0] for name in names] == ["eigsym"] * 4

    def refuse(*args, **kwargs):
        raise AssertionError("a cached object was rebuilt")

    def build_plus_only(N, plus=True):  # the plus quotient is built on every run
        return build_space(N) if plus else refuse()

    monkeypatch.setattr(cache, "build_space", build_plus_only)
    monkeypatch.setattr(cache, "eigensymbol", refuse)
    assert [job for job in CACHE_JOBS if not run_job(job, capsys, monkeypatch, tmp_path)] == []


def test_traced_names_exist():
    # Tracer.install looks up every (owner, attribute) of TRACED, so a renamed
    # or deleted function would break the traced benchmark run.  The source is
    # compiled in memory, so no bytecode is written beside it.
    path = BENCH / "traced_cli.py"
    module = types.ModuleType("traced_cli")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    assert module.TRACED
    missing = [name for owner, attr, name in module.TRACED if not hasattr(owner, attr)]
    assert missing == []
