#!/usr/bin/env python3
"""Measure a change against its base commit on one machine and write
BENCH_<PR>.json.

    python3 scripts/bench.py --pr N --base REV

The base is extracted with ``git archive`` into a temporary directory; the
change is the working tree of the checkout this script lives in (committed
or not, the files git tracks or would track), copied into another
temporary directory whose path has the same length, since the
``work_rss_mb`` a run reads moves with the length of its checkout's path.  Each side runs its own ``perfbench/run.py --trace 0`` against
its own ``src/``.  For every workload the script runs ``PAIRS`` pairs of
``SECONDS``-second runs, pair i on seed i + 1, plus one pair on the
held-out seed 1009, with the side that runs first alternating from pair to
pair.  It also times the tier-1 suite (``python -m pytest -q``,
``SUITE_RUNS`` times) and ``qproduct reproduce-paper`` (``REPRODUCE_RUNS``
times) on both sides, alternating.  The JSON holds, per side: each end-to-end
metric per workload (median, quartiles and every run), the failed jobs,
the held-out pair, the suite and reproduce-paper wall times and the
``src/`` line count; per metric, the pairs the change won and whether
the medians differ by more than the base's interquartile range; and the
core count.  The script adds no workload, and runs the benchmark without
changing any file under ``perfbench/`` or ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 1009
PAIRS = 10
SECONDS = 40
WORKLOADS = ("search", "reproduce", "enumerate")
SUITE_RUNS = 3
REPRODUCE_RUNS = 5


def src_lines(checkout: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (checkout / "src").rglob("*.py"))


def copy_working_tree(dest: Path) -> None:
    """The working tree's files that git tracks or would track, copied to dest."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=ROOT, capture_output=True, check=True).stdout.decode().split("\0")
    for name in names:
        if name and (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one untraced benchmark run."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def wall(checkout: Path, *argv: str) -> float:
    """Wall seconds of one command run in the checkout, with src/ on the path."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], cwd=checkout, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def spread(values: list[float]) -> dict:
    """Median and quartiles of the runs, and every run."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def measure(sides: dict[str, Path]) -> dict:
    """Run every pair, alternating which side goes first, and summarize."""
    def order(i: int) -> list[str]:
        return list(sides) if i % 2 == 0 else list(sides)[::-1]

    results = {side: {w: [] for w in WORKLOADS} for side in sides}
    held_out = {side: {} for side in sides}
    for w in WORKLOADS:
        for i, seed in enumerate([*range(1, PAIRS + 1), HELD_OUT_SEED]):
            for side in order(i):
                result = perfbench(sides[side], w, seed, SECONDS)
                print(f"{w} seed {seed} {side}: pass_s {result['metrics']['pass_s']['value']:.4g}",
                      file=sys.stderr)
                if seed == HELD_OUT_SEED:
                    held_out[side][w] = result
                else:
                    results[side][w].append(result)
    walls = {side: {"tier1_s": [], "reproduce_paper_s": []} for side in sides}
    for i in range(max(SUITE_RUNS, REPRODUCE_RUNS)):
        for side in order(i):
            if i < SUITE_RUNS:
                walls[side]["tier1_s"].append(wall(sides[side], "-m", "pytest", "-q", "-p",
                                                   "no:cacheprovider"))
            if i < REPRODUCE_RUNS:
                walls[side]["reproduce_paper_s"].append(
                    wall(sides[side], "-m", "qproduct.cli", "reproduce-paper"))

    def values(side: str, w: str, name: str) -> list[float]:
        return [r["metrics"][name]["value"] for r in results[side][w]]

    report = {}
    for side, checkout in sides.items():
        report[side] = {
            "src_lines": src_lines(checkout),
            **{k: spread(v) for k, v in walls[side].items()},
            "workloads": {w: {"failed": sum(r["failed"] for r in results[side][w]),
                              **{n: spread(values(side, w, n))
                                 for n in results[side][w][0]["metrics"]}}
                          for w in WORKLOADS},
            "held_out": {w: {"failed": held_out[side][w]["failed"],
                             **{n: m["value"] for n, m in held_out[side][w]["metrics"].items()}}
                         for w in WORKLOADS},
        }
    # per metric: the pairs the change won, ties counting for neither, and
    # whether the medians differ by more than the base's interquartile range
    report["pairs"] = {}
    for w in WORKLOADS:
        report["pairs"][w] = {}
        for name in results["base"][w][0]["metrics"]:
            sign = -1 if name == "exact_share" else 1  # +1: lower is better
            base, change = values("base", w, name), values("change", w, name)
            wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
            b, c = report["base"]["workloads"][w][name], report["change"]["workloads"][w][name]
            gap = sign * (b["median"] - c["median"])
            report["pairs"][w][name] = {"change_won": wins, "of": len(base),
                                        "median_gain": gap, "base_iqr": b["q3"] - b["q1"],
                                        "gain_shown": wins >= 0.9 * len(base)
                                        and gap > b["q3"] - b["q1"]}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--base", required=True, help="git revision of the base")
    args = parser.parse_args(argv)
    rev = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.strip()
    with (tempfile.TemporaryDirectory(prefix="bench-base-") as base,
          tempfile.TemporaryDirectory(prefix="bench-chng-") as change):
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", base], input=archive, check=True)
        copy_working_tree(Path(change))
        sides = {"base": Path(base), "change": Path(change)}
        report = measure(sides)
    out = {
        "pr": args.pr,
        "base_commit": rev,
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "numpy": metadata.version("numpy")},
        "method": {"pairs": PAIRS, "seconds": SECONDS, "seeds": f"1..{PAIRS}",
                   "held_out_seed": HELD_OUT_SEED, "suite_runs": SUITE_RUNS,
                   "reproduce_runs": REPRODUCE_RUNS,
                   "metrics": "median, quartiles and every run; times at reference speed"},
        **report,
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
