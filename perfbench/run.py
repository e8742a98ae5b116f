"""tvkit benchmark: run one workload for a fixed time and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload deconv-64 --seed 1 --seconds 20 --trace 0

One process, one thread of Python, closed loop: each job starts when the
previous one has returned.  Inputs come from ``--seed`` (see
`perfbench.workloads`); every job's output is checked, and a job that
raises or fails a check counts as failed.

``--trace 0`` times whole jobs with nothing patched and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced jobs with jobs run
under `perfbench.tracer`, reports the per-layer metrics of the traced jobs
and the tracing overhead, and writes the spans as JSON lines.

A table of every metric goes to standard output; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A fuller record
(environment, input digest, per-job checks) is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
SETUP_REPEATS = 5
MIN_JOBS = 2  # a one-job run would let a single slow stretch of the machine set the median
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the names of perfbench.workloads.WORKLOADS, needed before tvkit is importable
WORKLOAD_NAMES = ("denoise-256", "deconv-64", "blind-64", "flow-128")

# end-to-end metrics (--trace 0) that BENCHMARK.json lists, with units
END_TO_END = {
    "job_s_p50": "s",
    "mpix_per_s": "Mpx/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rel_err": "ratio",
}
# printed and recorded with the end-to-end metrics; not every workload has
# each one, so BENCHMARK.json carries the workload-independent rel_err instead
QUALITY_UNITS = {"psnr_db": "dB", "kernel_ncc": "ratio", "epe_mean": "px"}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import and build the inputs, then print their digest")
    return ap.parse_args(argv)


def _import_tvkit():
    """Put the checkout's src/ first on sys.path and import tvkit from it.

    Exits non-zero when the checkout has no tvkit sources, so an installed
    copy elsewhere is never benchmarked by mistake.
    """
    if not (SRC / "tvkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tvkit sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import tvkit

    if Path(tvkit.__file__).resolve().parent != SRC / "tvkit":
        raise SystemExit(f"perfbench: imported tvkit from {tvkit.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np

    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # not a git checkout
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "platform": platform.platform(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _cache_sizes() -> dict:
    """Data/unified cache sizes of cpu0 by level, as the kernel reports them."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _measure_setup(args, workloads):
    """Wall times of SETUP_REPEATS fresh interpreters that each import numpy
    and tvkit and build this run's input sets; each must print the same
    input digest as this process."""
    pool = workloads.input_pool(workloads.WORKLOADS[args.workload], args.seed)
    expected = workloads.digest(pool)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        probe = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(time.perf_counter() - started)
        if probe.stdout.strip() != expected:
            raise RuntimeError(f"setup probe digest {probe.stdout.strip()!r} != {expected!r}")
    return pool, expected, times


def _run_job(workload, inputs, around_solve=None):
    """Run and time one job, then check it (untimed). Returns a record."""
    started = time.perf_counter()
    try:
        with around_solve or nullcontext():
            result = workload.solve(inputs)
    except Exception:  # a failed job is counted, not fatal to the run
        return {"seconds": time.perf_counter() - started, "passed": False,
                "error": traceback.format_exc(limit=3)}
    seconds = time.perf_counter() - started
    outcome = workload.check(inputs, result)
    return {"seconds": seconds, "passed": outcome.passed, "checks": outcome.checks,
            "quality": outcome.quality, "notes": outcome.notes,
            "outer_iters": outcome.outer_iters, "cg_iters": outcome.cg_iters}


def _time_left(started, seconds, last_job):
    """Start another job while at least half of the last one fits in the
    time that is left, so a run ends within half a job of ``seconds``."""
    return time.perf_counter() - started + 0.5 * last_job["seconds"] <= seconds


def _untraced(workload, pool, seconds):
    started = time.perf_counter()
    jobs = [_run_job(workload, pool[k % len(pool)]) for k in range(MIN_JOBS)]
    while _time_left(started, seconds, jobs[-1]):
        jobs.append(_run_job(workload, pool[len(jobs) % len(pool)]))
    return jobs


def _traced(workload, pool, seconds, tracer):
    """Alternate untraced and traced jobs until the time is up and each kind
    has run at least once; the k-th job of each kind runs input set k.
    Returns (untraced jobs, traced jobs, Tracer)."""
    recorder = tracer.Tracer()
    started = time.perf_counter()
    plain, traced = [_run_job(workload, pool[0])], []
    last = plain[-1]
    while not traced or _time_left(started, seconds, last):
        if len(plain) <= len(traced):
            last = _run_job(workload, pool[len(plain) % len(pool)])
            plain.append(last)
        else:
            inputs = pool[len(traced) % len(pool)]
            with tracer.install(recorder):
                last = _run_job(workload, inputs, recorder.job_span(len(traced)))
            traced.append(last)
    return plain, traced, recorder


def _median_quality(jobs, key):
    values = [j["quality"][key] for j in jobs if key in j.get("quality", {})]
    return statistics.median(values) if values else None


def _end_to_end(workload, jobs, setup_times):
    times = [j["seconds"] for j in jobs]
    metrics = {
        "job_s_p50": statistics.median(times),
        "mpix_per_s": workload.pixels_per_job * len(jobs) / 1e6 / sum(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rel_err": _median_quality(jobs, "rel_err"),
    }
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}


def _per_layer(plain, traced, recorder, tracer):
    per_job = tracer.job_layer_metrics(recorder.spans)
    rows = []
    for job_id, record in enumerate(traced):
        row = dict(per_job[job_id])
        row["solvers.outer_iters"] = record.get("outer_iters", 0)
        rows.append(row)
    values = tracer.median_over_jobs(rows)
    values["trace_overhead"] = (statistics.median(j["seconds"] for j in traced)
                                / statistics.median(j["seconds"] for j in plain) - 1.0)
    return {name: {"value": values[name], "unit": tracer.unit_of(name)} for name in sorted(values)}


def _print_table(metrics, extra, jobs):
    print(f"{'metric':<44} {'value':>14}  unit")
    for name, m in {**metrics, **extra}.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:<44} {value:>14}  {m['unit']}")
    print(f"({len(jobs)} jobs, {sum(not j['passed'] for j in jobs)} failed)")


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in BLAS_THREAD_VARS:
        # tvkit's BLAS calls are dot products of at most 2x128x128 values; a
        # second BLAS thread doubled CPU time without shortening a job, and
        # one thread keeps reductions in the same order on any machine
        os.environ.setdefault(var, "1")
    _import_tvkit()
    from perfbench import tracer, workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        print(workloads.digest(workloads.input_pool(workload, args.seed)))
        return 0

    pool, input_digest, setup_times = _measure_setup(args, workloads)
    if args.trace:
        plain, traced, recorder = _traced(workload, pool, args.seconds, tracer)
        jobs = plain + traced
        metrics = _per_layer(plain, traced, recorder, tracer)
        extra = {}
    else:
        jobs = _untraced(workload, pool, args.seconds)
        metrics = _end_to_end(workload, jobs, setup_times)
        extra = {name: {"value": _median_quality(jobs, name), "unit": unit}
                 for name, unit in QUALITY_UNITS.items()}
        extra["fail_rate"] = {"value": sum(not j["passed"] for j in jobs) / len(jobs),
                              "unit": "ratio"}
    failed = sum(not j["passed"] for j in jobs)

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "input_digest": input_digest,
              "setup_times": setup_times, "environment": environment(),
              "metrics": metrics, "extra_metrics": extra, "jobs": jobs}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        recorder.write_jsonl(stem.with_suffix(".spans.jsonl"))

    print(f"workload {args.workload} seed {args.seed} inputs sha256 {input_digest}")
    _print_table(metrics, extra, jobs)
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
