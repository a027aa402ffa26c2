"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks three things and exits non-zero if one fails:
1. one pass of each workload passes every output check;
2. in a traced pass the span self-times sum to no more than its wall time;
3. the traced ``code.scan.words`` on reproduce includes the two
   4,194,304-word scans of the additive-chain dual, and it and every other
   count repeat exactly from one traced run to the next.
"""
from __future__ import annotations

import sys
import time

import run
import workloads
from tracing import PER_LAYER, Tracer

ADDITIVE_CHAIN_DUAL = 1 << 22
SEED = 0


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def traced_reproduce() -> tuple[Tracer, dict, float]:
    tracer = Tracer()
    start = time.perf_counter()
    passes = run.run_passes(run.setup("reproduce", SEED, tracer), 0, 1, tracer)
    wall = time.perf_counter() - start
    check(passes["failed"] == 0, "a traced reproduce pass passes its checks")
    return tracer, tracer.layer_metrics(1, 0.0), wall


def main() -> int:
    for name in workloads.WORKLOADS:
        passes = run.run_passes(run.setup(name, SEED), 0, 1)
        check(passes["attempted"] > 0 and passes["failed"] == 0,
              f"one pass of {name} ({passes['attempted']} jobs) passes its checks")

    tracer, first, wall = traced_reproduce()
    self_total = sum(span[6] for span in tracer.spans)
    check(self_total <= wall, f"span self-times {self_total:.3f} s <= wall time {wall:.3f} s")
    full_scans = [span for span in tracer.spans
                  if span[2].endswith("/additive-chain") and span[7] == ADDITIVE_CHAIN_DUAL]
    check(len(full_scans) == 2, "reproduce scans the 2^22-word additive-chain dual twice")
    check(first["code.scan.words"]["value"] >= 2 * ADDITIVE_CHAIN_DUAL,
          "code.scan.words counts both scans")

    _, second, _ = traced_reproduce()
    counts = [name for name, unit, _ in PER_LAYER
              if unit in ("count", "words", "cells", "entries")]
    differ = [n for n in counts if first[n]["value"] != second[n]["value"]]
    check(not differ, f"{len(counts)} traced counts repeat exactly between runs {differ or ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
