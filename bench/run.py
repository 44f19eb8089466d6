"""Job-level benchmark of the ``mazurtate`` CLI.

Usage (from the repository root):

    python3 bench/run.py --workload tower-deep --seed 1 --seconds 30 --trace 0

Each job is one ``python -m mazurtate.cli ...`` process; one client runs the
jobs one at a time in a closed loop.  A pass runs a workload's job list once,
in an order shuffled by the seed (outputs never depend on the seed).  Jobs,
the time cap and the layer-to-end-to-end mapping are in ``workloads.json``;
the reason for each workload is in ``BENCHMARK.json``.

Every job's exit code and stdout sha256 must equal the uncached reference in
``references.json``; a mismatch, a crash or a job killed at the time cap is a
failed job.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics: ``wall_s`` (median pass time),
``setup_s`` and ``peak_rss_mib``.  The runner and its jobs share one CPU,
and a fixed calibration slice runs before, during (with the job stopped)
and after each job; ``wall_s`` and ``setup_s`` are scaled by the slices to
the speed of the baseline host, so that the drift of a shared host's speed
cancels out.  ``--trace 1`` runs each job once plainly and once through ``traced_cli.py`` and reports the per-layer metrics: job
times and CPU time from the plain runs, spans and counters from the traced
ones.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((BENCH / "workloads.json").read_text())
JOB_CAP_S = SPEC["job_cap_s"]
RUN_BUDGET_S = 170  # a run must end within 180 s, even when jobs hang
IMPORT_REPS = 15
LEVELS = (11, 26, 37, 174, 389, 571, 681)  # every level a workload builds; 0 where one does not
# Seconds of one calibration slice on the reference host (about the median
# on the 2-core x86_64 host of baseline.json); end-to-end times are scaled
# to read as they would on a host where a slice takes this long.
CALIBRATION_REF_S = 0.058
SAMPLE_EVERY_S = 0.5  # job seconds between two calibration slices taken while it is stopped


def job_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("MT_CACHE_DIR", None)  # a job uses a cache only when it says --cache
    return env


@dataclass
class JobResult:
    seconds: float
    peak_rss_kib: int
    cpu_s: float
    host_factor: float  # reference over measured host speed around the job

    @property
    def scaled_s(self) -> float:
        """``seconds`` scaled to the speed of the host the baseline was taken on."""
        return self.seconds * self.host_factor


def spawn_and_wait(argv: list, stdout_path: Path, cap: float, slices: list | None = None) -> tuple:
    """Run argv with stdout to a file; kill it at ``cap`` seconds.

    Returns (seconds, exit_code, peak_rss_kib, cpu_s, finished).  The child
    is reaped only after the wait on its pidfd, so a kill never reaches a
    reused pid.

    With a ``slices`` list, a calibration slice runs right before the spawn,
    every ``SAMPLE_EVERY_S`` seconds of the job while the job is stopped
    (SIGSTOP/SIGCONT), and right after its exit; each slice's seconds are
    appended to ``slices`` and the stopped time is left out of ``seconds``.
    """
    if slices is not None:
        slices.append(calibration_slice())
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        paused = 0.0
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, cwd=ROOT, env=job_env())
        pidfd = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            while True:
                left = start + paused + cap - time.perf_counter()
                wait = left if slices is None else min(left, SAMPLE_EVERY_S)
                finished = bool(poller.poll(max(wait, 0) * 1000))
                if finished or wait >= left:
                    break
                paused += stopped_slice(proc.pid, slices)
            if not finished:
                proc.kill()
        except BaseException:
            proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            os.close(pidfd)
        seconds = time.perf_counter() - start - paused
    if slices is not None:
        slices.append(calibration_slice())
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss, usage.ru_utime + usage.ru_stime, finished


def stopped_slice(pid: int, slices: list) -> float:
    """Stop the child, run a calibration slice, continue it; return the stopped seconds.

    The child stays unreaped: ``WNOWAIT`` only looks at an exit, and a stop
    is consumed only once it is seen.
    """
    start = time.perf_counter()
    os.kill(pid, signal.SIGSTOP)
    if os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT).si_code == os.CLD_STOPPED:
        os.waitid(os.P_PID, pid, os.WSTOPPED)
        try:
            slices.append(calibration_slice())
        finally:
            os.kill(pid, signal.SIGCONT)
    return time.perf_counter() - start


def calibration_slice() -> float:
    """Seconds of a fixed piece of pure-Python work, independent of mazurtate.

    It uses what the jobs use (Fraction elimination, modular integer
    arithmetic, dicts keyed by tuples), so its time follows the host's
    speed for the jobs while it drifts on a shared machine.
    """
    start = time.perf_counter()
    n = 16
    m = [[Fraction((7 * i + 3 * j) % 11 - 5, (i + 2 * j) % 7 + 1) for j in range(n + 1)] for i in range(n)]
    for c in range(n):  # Gauss-Jordan elimination over Q
        r = next(r for r in range(c, n) if m[r][c])
        m[c], m[r] = m[r], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    table = {}
    for k in range(40000):
        key = (k % 389, (k * k) % 571)
        table[key] = (table.get(key, 0) + pow(k, 3, 681)) % 10007
    return time.perf_counter() - start


class Runner:
    def __init__(self, workdir: Path, deadline: float, references: dict):
        self.workdir = workdir
        self.deadline = deadline
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.calibration = []  # seconds of every calibration slice, in order

    def timed(self, argv: list, stdout_path: Path, cap: float) -> tuple:
        """``spawn_and_wait`` with calibration slices around and during the job.

        Returns its result and the factor that scales the job's seconds to
        the baseline host's speed: the reference over the slices' mean.
        """
        slices = []
        result = spawn_and_wait(argv, stdout_path, cap, slices)
        self.calibration += slices
        return result, CALIBRATION_REF_S * len(slices) / sum(slices)

    def job(self, job: str, cache_dir: Path | None = None, span_file: Path | None = None) -> JobResult:
        argv = job.split() + (["--cache", str(cache_dir)] if cache_dir else [])
        if span_file is None:
            argv = [sys.executable, "-m", "mazurtate.cli", *argv]
        else:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(span_file), *argv]
        cap = min(JOB_CAP_S, self.deadline - time.perf_counter())
        stdout_path = self.workdir / "stdout"
        if cap > 0:
            if span_file is None:
                (seconds, code, rss, cpu, finished), factor = self.timed(argv, stdout_path, cap)
            else:  # no stops, which would add to the spans
                (seconds, code, rss, cpu, finished), factor = spawn_and_wait(argv, stdout_path, cap), 1.0
            digest = hashlib.sha256(stdout_path.read_bytes()).hexdigest()
        else:  # out of run budget: the job does not finish, and is counted
            seconds, code, rss, cpu, finished, digest, factor = 0.0, None, 0, 0.0, False, "", 1.0
        ref = self.references[job]
        self.attempted += 1
        if not finished or code != ref["exit_code"] or digest != ref["stdout_sha256"]:
            self.failed += 1
            status = "did not finish" if not finished else f"exit {code}, stdout sha256 {digest[:12]}"
            print(f"FAILED {job}: {status}", file=sys.stderr)
        return JobResult(seconds, rss, cpu, factor)

    def run_pass(self, jobs: list, order: list, cache_dir: Path | None = None):
        """Run ``jobs[i]`` for i in order, one at a time.

        Returns (results indexed like ``jobs``, raw wall seconds, scaled
        wall seconds).  The wall time is the sum of the jobs' spawn-to-exit
        times, so it leaves out the calibration slices run between jobs.
        """
        results = [None] * len(jobs)
        for i in order:
            results[i] = self.job(jobs[i], cache_dir)
        return results, sum(r.seconds for r in results), sum(r.scaled_s for r in results)

    def import_seconds(self) -> tuple:
        """Raw and scaled spawn-to-exit seconds of a fresh ``import mazurtate.cli``."""
        argv = [sys.executable, "-c", "import mazurtate.cli"]
        (seconds, code, *_), factor = self.timed(argv, Path(os.devnull), JOB_CAP_S)
        if code != 0:
            sys.exit("bench: `import mazurtate.cli` failed")
        return seconds, seconds * factor


# ---- traced-run aggregation -------------------------------------------------


def span_stats(span_file: Path):
    """Per-name self seconds, inclusive seconds and call counts of one job."""
    data = json.loads(span_file.read_text())
    spans = data["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, incl_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for (name, start, end, parent), covered in zip(spans, child):
        self_s[name] += end - start - covered
        calls[name] += 1
        if parent < 0 or spans[parent][0] != name:
            incl_s[name] += end - start
    return self_s, incl_s, calls, data


def layer_metrics(jobs: list, untraced: list, traced: list, trace_dir: Path):
    """Per-layer metrics and the stage table.

    Times of whole jobs come from the ``untraced`` pass, so they hold no
    tracer cost; spans, counters and self times come from the ``traced`` one.
    """
    self_s, calls, counters = defaultdict(float), defaultdict(int), defaultdict(int)
    p1_size, dimension, stages = {}, {}, []
    for i, (job, res) in enumerate(zip(jobs, untraced)):
        span_file = trace_dir / f"spans{i}.json"
        if not span_file.is_file():  # the job crashed or was killed; it is already counted failed
            continue
        s, incl, c, data = span_stats(span_file)
        for k, v in s.items():
            self_s[k] += v
        for k, v in c.items():
            calls[k] += v
        for k, v in data["counters"].items():
            counters[k] += v
        p1_size.update({int(n): v for n, v in data["p1_size"].items()})
        dimension.update({int(n): v for n, v in data["dimension"].items()})
        level = max((int(n) for n in data["dimension"]), default=None)
        stages.append({
            "job": i, "cmd": job, "level": level,
            "p1_size": data["p1_size"].get(str(level)), "dimension": data["dimension"].get(str(level)),
            "hecke_primes": c["hecke.hecke_matrix"], "job_s": res.seconds,
            "P1List_s": incl["modsym.P1List"], "build_space_s": incl["modsym.build_space"],
            "eigensymbol_s": incl["hecke.eigensymbol"], "boundary_s": incl["boundary.boundary_congruence"],
        })

    m = {}

    def s(name):
        m[name + ".s"] = (self_s[name], "s")

    def n(key, value, unit="count"):
        m[key] = (value, unit)

    s("modsym.P1List")
    s("modsym.build_space")
    n("modsym.build_space.calls", calls["modsym.build_space"])
    for level in LEVELS:
        n(f"modsym.p1_size.N{level}", p1_size.get(level, 0))
        n(f"modsym.dimension.N{level}", dimension.get(level, 0))
    s("modsym.generator_values")
    vim_calls = calls["modsym.value_infinity_minus"]
    vim_distinct = counters["modsym.value_infinity_minus.distinct"]
    n("modsym.value_infinity_minus.calls", vim_calls)
    n("modsym.value_infinity_minus.distinct", vim_distinct)
    s("modsym.value_infinity_minus")
    n("modsym.eval_reuse", vim_distinct / vim_calls if vim_calls else 1.0, "ratio")
    for name in ("hecke.eigensymbol", "hecke.hecke_matrix", "hecke.normalize"):
        s(name)
    n("hecke.hecke_matrix.calls", calls["hecke.hecke_matrix"])
    s("linalg.nullspace")
    n("linalg.nullspace.calls", calls["linalg.nullspace"])
    for name in ("linalg.mat_mul", "linalg.rref_mod_p", "linalg.solve_mod_p"):
        s(name)
    n("curves.a_ell.calls", calls["curves.a_ell"])
    s("curves.a_ell")
    for name in ("elements.mazur_tate", "elements.stabilized_mazur_tate",
                 "elements.check_norm_relation", "elements.check_theta0_identity",
                 "groupring.t_coefficients", "groupring.iwasawa_invariants", "groupring.taylor_shift"):
        s(name)
    n("groupring.taylor_shift.ops", counters["groupring.taylor_shift.ops"], "computed-ops")
    n("padics.unit_root.calls", calls["padics.unit_root"])
    s("padics.unit_root")
    s("cusps.boundary_space_matrix")
    s("boundary.boundary_congruence")
    for name in ("cache.load_space", "cache.load_eigensymbol"):
        s(name)
        n(name + ".hits", counters[name + ".hits"])
        n(name + ".misses", counters[name + ".misses"])
    n("cache.bytes_read", counters["cache.bytes_read"], "bytes")
    s("classify.classify")
    s("cli.main")
    n("cli.cpu_s", sum(r.cpu_s for r in untraced), "s")
    for i, res in enumerate(untraced):
        n(f"job.{i}.s", res.seconds, "s")
    n("trace.overhead_s", sum(r.cpu_s for r in traced) - sum(r.cpu_s for r in untraced), "s")
    return m, stages


# ---- driver -------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the running job is killed and reaped
    if not (ROOT / "src" / "mazurtate" / "cli.py").is_file():
        print(f"bench: no mazurtate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The runner and, by inheritance, every job use one CPU, so the
    # calibration slices measure the speed of the CPU the jobs run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = SPEC["workloads"][args.workload]
    jobs = workload["jobs"]
    references = json.loads((BENCH / "references.json").read_text())
    rng = random.Random(args.seed)
    start = time.perf_counter()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workdir, start + RUN_BUDGET_S, references)
        runner.import_seconds()  # byte-compiles the package once, outside every timing
        cache_dir = None
        if workload.get("cache"):
            cache_dir = workdir / "cache"
            _, setup_raw, setup_s = runner.run_pass(jobs, range(len(jobs)), cache_dir)
        else:
            imports = [runner.import_seconds() for _ in range(IMPORT_REPS)]
            setup_raw = statistics.median(raw for raw, _ in imports)
            setup_s = statistics.median(scaled for _, scaled in imports)

        def shuffled():
            order = list(range(len(jobs)))
            rng.shuffle(order)
            return order

        if args.trace:
            # Each job runs untraced, then traced, so the two runs whose CPU
            # times trace.overhead_s compares are seconds apart, not a pass.
            trace_dir = workdir / "trace"
            trace_dir.mkdir()
            untraced, traced = [None] * len(jobs), [None] * len(jobs)
            for i in shuffled():
                untraced[i] = runner.job(jobs[i], cache_dir)
                traced[i] = runner.job(jobs[i], cache_dir, trace_dir / f"spans{i}.json")
            metrics, stages = layer_metrics(jobs, untraced, traced, trace_dir)
            print(json.dumps({"stages": stages}))
        else:
            raw_walls, walls, peak_kib = [], [], 0
            measure_start = time.perf_counter()
            while True:
                results, raw, wall = runner.run_pass(jobs, shuffled(), cache_dir)
                raw_walls.append(raw)
                walls.append(wall)
                peak_kib = max([peak_kib] + [r.peak_rss_kib for r in results])
                # Start another pass only if it should end within --seconds.
                if time.perf_counter() - measure_start + raw > args.seconds \
                        or time.perf_counter() + raw > start + RUN_BUDGET_S:
                    break
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mib": (peak_kib / 1024, "MiB"),
            }
            factor = CALIBRATION_REF_S / statistics.median(runner.calibration)
            print(f"passes: {len(walls)}  raw pass walls (s): {[round(w, 3) for w in raw_walls]}  "
                  f"raw setup (s): {setup_raw:.3f}  run host factor: {factor:.4f} "
                  f"(median of {len(runner.calibration)} calibration slices)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is using it
            pass

    failed_frac = runner.failed / runner.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>14.6g} {unit}")
    print(f"{'failed_frac':40s} {failed_frac:>14.6g} ratio  ({runner.failed}/{runner.attempted} jobs)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
