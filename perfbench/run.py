"""qproduct benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

Builds the library from ``src/`` of the checkout this file sits in, runs
the workload's seeded job list in passes for about ``--seconds`` (at
least the workload's minimum pass count), checks every job's output, and
prints the metrics.  Times are given at a fixed reference machine speed:
each measured time is scaled by how fast a fixed calibration loop, timed
right before and right after it, ran against its reference time (see
``calibrate``).  The wall-clock values are printed beside them.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced run
with ``--trace 1``.  Exits 2 without a result when the library is absent.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
MODULES = ("galois", "matrix", "code", "product", "cyclic", "quantum", "convolutional",
           "catalog", "cli")
TRACE_MIN_PASSES = 2  # per half of a traced run
SETUP_REPEATS = 11
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# Machine speed.  On a shared host the speed of the same code drifts by up to
# twofold within minutes, far more than any bound a change could be held to.
# A fixed pure-Python loop, as CPU-bound as the library, is timed before and
# after every timed interval; the interval is scaled by CALIBRATION_REF_S over
# the mean of the two.  The reference is the loop's median time on the
# machine the benchmark was tuned on, so scaled values stay close to its
# wall-clock values.  Calibration time is never inside a timed interval.
CALIBRATION_ITERS = 20_000
CALIBRATION_REPEATS = 3
CALIBRATION_REF_S = 0.0033
_CALIBRATION_TABLE = tuple((i * 2654435761) & 0xFFFF for i in range(64))

END_TO_END = (
    ("pass_s", "s"), ("job_p50_s", "s"), ("job_tail_s", "s"), ("setup_s", "s"),
    ("work_rss_mb", "MiB"), ("exact_share", "ratio"),
)


def calibrate() -> float:
    """Seconds the calibration loop takes now: the fastest of a few repeats."""
    table = _CALIBRATION_TABLE
    best = math.inf
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_ITERS):
            acc = (acc * 31 + table[i & 63]) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference_speed(wall: float, before: float, after: float) -> float:
    return wall * CALIBRATION_REF_S / ((before + after) / 2)


def import_library() -> SimpleNamespace:
    """Import qproduct afresh from the checkout, dropping any earlier import,
    so every set-up pays for import and field construction again."""
    for name in [n for n in sys.modules if n == "qproduct" or n.startswith("qproduct.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = SimpleNamespace(**{m: importlib.import_module(f"qproduct.{m}") for m in MODULES})
    if Path(lib.code.__file__).resolve().parent != SRC / "qproduct":
        raise ImportError(f"qproduct was imported from {lib.code.__file__}, not from {SRC}")
    return lib


def setup(workload: str, seed: int, tracer: Tracer | None = None):
    """Import, field construction and seeded input generation."""
    fields, make_jobs, _ = workloads.WORKLOADS[workload]
    lib = import_library()
    if tracer is None:
        span = workloads.nullspan
    else:
        tracer.install(lib)
        span = tracer.span
    for q in fields:
        lib.galois.GF(q)
    return make_jobs(lib, seed, span)


def timed_setup(workload: str, seed: int) -> tuple[list, float, float]:
    """Set-up, with its wall time and its time at reference speed."""
    before = calibrate()
    t0 = time.perf_counter()
    jobs = setup(workload, seed)
    wall = time.perf_counter() - t0
    return jobs, wall, at_reference_speed(wall, before, calibrate())


def run_passes(jobs, seconds: float, min_passes: int, tracer: Tracer | None = None) -> dict:
    """Closed loop: each job starts when the previous one has been checked.

    A pass time is the sum of its job latencies, each at reference speed;
    the wall-clock latencies are kept beside them.
    """
    pass_times, wall_pass_times, latencies, walls, calibrations = [], [], [], [], []
    certificates = []
    failed = rss = peak = 0
    start = time.perf_counter()
    before = calibrate()
    calibrations.append(before)
    # after the minimum, start a pass only if an average one ends within `seconds`
    while (len(pass_times) < min_passes
           or (time.perf_counter() - start) * (1 + 1 / len(pass_times)) <= seconds):
        index = len(pass_times)
        pass_time = wall_pass_time = 0.0
        for name, job in jobs:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    outcome = job()
                else:
                    tracer.job = f"p{index}/{name}"
                    with tracer.span("job"):
                        outcome = job()
            except Exception:
                outcome = workloads.Outcome(problems=[traceback.format_exc()])
            wall = time.perf_counter() - t0
            after = calibrate()
            calibrations.append(after)
            latency = at_reference_speed(wall, before, after)
            before = after
            latencies.append(latency)
            walls.append(wall)
            pass_time += latency
            wall_pass_time += wall
            if index < min_passes:
                rss = max(rss, rss_bytes())
            certificates += outcome.certificates
            if outcome.problems:
                failed += 1
                print(f"FAILED {name}: " + "; ".join(outcome.problems), file=sys.stderr)
        pass_times.append(pass_time)
        wall_pass_times.append(wall_pass_time)
        if index == min_passes - 1:
            # memory is read over the minimum passes only, so that it does not
            # depend on how many passes fit into the run
            peak = peak_rss_bytes()
    return {"pass_times": pass_times, "wall_pass_times": wall_pass_times,
            "latencies": latencies, "walls": walls,
            "calibrations": calibrations, "certificates": certificates,
            "attempted": len(latencies), "failed": failed, "peak_rss": peak,
            "rss_after_jobs": rss}


def tail(latencies: list[float], guaranteed: int) -> tuple[float, float]:
    """The highest percentile that leaves TAIL_BEYOND samples above it when
    the run has its guaranteed minimum of samples, and its value.

    Fixing the percentile by the guaranteed count, not the count a run
    happens to reach, keeps it on the same job of the mix however many
    passes fit into the run.
    """
    share = 1 - TAIL_BEYOND / guaranteed
    ordered = sorted(latencies)
    rank = max(0, math.ceil(share * len(ordered)) - 1)
    return 100.0 * share, ordered[rank]


def rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def facts(seed: int) -> dict:
    """Run facts recorded beside every result; none of them is gated."""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Returns the result object and human-readable lines to print before it."""
    jobs, wall, scaled = timed_setup(workload, seed)
    setup_walls, setup_times = [wall], [scaled]
    gc.collect()
    rss_after_setup, peak_after_setup = rss_bytes(), peak_rss_bytes()
    run_facts = facts(seed)
    lines = [f"facts {json.dumps(run_facts, sort_keys=True)}"]
    min_passes = workloads.WORKLOADS[workload][2]
    if not trace:
        runs = run_passes(jobs, seconds, min_passes)
        # the process-wide peak covers the passes only if they raised it past
        # the set-up's; otherwise take the highest RSS seen after a job
        peak = runs["peak_rss"]
        if peak <= peak_after_setup:
            peak = runs["rss_after_jobs"]
        # the other set-ups come after the passes, so that the memory they
        # churn does not blur the RSS the passes start from
        for _ in range(SETUP_REPEATS - 1):
            _, wall, scaled = timed_setup(workload, seed)
            setup_walls.append(wall)
            setup_times.append(scaled)
        metrics, info = end_to_end(runs, setup_times, setup_walls, peak - rss_after_setup,
                                   len(jobs) * min_passes)
        lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        lines += [f"{k} {v}" for k, v in info.items()]
    else:
        untraced = run_passes(jobs, seconds / 2, TRACE_MIN_PASSES)
        del jobs
        tracer = Tracer()
        traced = run_passes(setup(workload, seed, tracer), seconds / 2, TRACE_MIN_PASSES, tracer)
        overhead = (statistics.median(traced["pass_times"])
                    / statistics.median(untraced["pass_times"]) - 1)
        metrics = tracer.layer_metrics(len(traced["pass_times"]), overhead)
        path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl.gz"
        tracer.write(path, run_facts)
        lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        lines.append(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        runs = {k: untraced[k] + traced[k] for k in ("attempted", "failed")}
    result = {"correct": runs["failed"] == 0, "attempted": runs["attempted"],
              "failed": runs["failed"], "metrics": metrics}
    return result, lines


def end_to_end(runs: dict, setup_times: list[float], setup_walls: list[float], work_rss: int,
               guaranteed: int) -> tuple[dict, dict]:
    certs = runs["certificates"]
    bounded = [(lo, up) for lo, up in certs if up is not None]
    percentile, tail_value = tail(runs["latencies"], guaranteed)
    values = {
        "pass_s": statistics.median(runs["pass_times"]),
        "job_p50_s": statistics.median(runs["latencies"]),
        "job_tail_s": tail_value,
        "setup_s": statistics.median(setup_times),
        "work_rss_mb": work_rss / 2**20,
        "exact_share": sum(lo == up for lo, up in certs) / len(certs) if certs else 0.0,
    }
    info = {
        "job_tail_percentile": f"{percentile:.2f}",
        "job_samples": len(runs["latencies"]),
        "passes": len(runs["pass_times"]),
        "fail_share": f"{runs['failed'] / runs['attempted']:.6g} ratio",
        "cert_gap": (f"{sum(up - lo for lo, up in bounded) / len(bounded):.6g} symbols"
                     if bounded else "n/a"),
        "certificates": len(certs),
        "wall_pass_s": f"{statistics.median(runs['wall_pass_times']):.6g} s",
        "wall_job_p50_s": f"{statistics.median(runs['walls']):.6g} s",
        "wall_job_tail_s": f"{tail(runs['walls'], guaranteed)[1]:.6g} s",
        "wall_setup_s": f"{statistics.median(setup_walls):.6g} s",
        "calibration_ms": (f"median {1e3 * statistics.median(runs['calibrations']):.4g}, "
                           f"reference {1e3 * CALIBRATION_REF_S:.4g}"),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import qproduct from {SRC}: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
