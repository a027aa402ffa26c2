#!/usr/bin/env python3
"""Time and first-use memory of the exhaustive scan, per scan shape.

    python3 scripts/scan_profile.py [--repeats 3]

Each shape (field, length, number of generator rows, with or without a
weight enumerator) runs in its own fresh interpreter, so that the first
scan pays for the numpy kernels it touches for the first time, as the
first scan of a long-running process would.  For each shape this prints

  first_rss_kib  peak RSS growth over the first scan (kernel code pages
                 faulted in plus the scan's arrays), in KiB
  first_ms       wall time of the first scan
  ms             median wall time of the repeated scans
  words_per_s    words scanned per second at that median

The rows are random, seeded, and the same on every run.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (field order q = p^ell, length n, GF(p)-rows K, with counts): p^K words
SHAPES = (
    (2, 28, 22, False),   # the binary 2^22-word dual of the enumerate workload
    (2, 28, 22, True),
    (4, 15, 22, False),   # the (15, 2^22) symplectic dual of the additive chain
    (4, 15, 22, True),
    (8, 30, 12, False),   # GF(8) with 3n > 64
    (2, 100, 14, True),   # p = 2 with n > 64: two lanes per plane
    (3, 16, 10, False),
    (3, 16, 10, True),
    (5, 8, 8, True),
    (9, 12, 8, True),     # odd characteristic, two digits per symbol
)


def rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def profile_shape(q: int, n: int, k: int, with_counts: bool, repeats: int) -> dict:
    """One shape, in this interpreter: the first scan, then ``repeats`` more."""
    sys.path.insert(0, str(SRC))
    from qproduct.code import _exhaustive_scan
    from qproduct.galois import GF

    spec = GF(q)
    rng = random.Random(q * 1000 + n * 10 + k)
    rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]

    def scan() -> float:
        counts = [0] * (n + 1) if with_counts else None
        t0 = time.perf_counter()
        _exhaustive_scan(spec, rows, n, counts)
        return time.perf_counter() - t0

    before, peak_before = rss_bytes(), peak_rss_bytes()
    first = scan()
    growth = max(peak_rss_bytes(), peak_before, rss_bytes()) - before
    times = [scan() for _ in range(repeats)]
    median = statistics.median(times)
    return {"q": q, "n": n, "rows": k, "counts": with_counts,
            "first_rss_kib": round(growth / 1024), "first_ms": round(first * 1e3, 2),
            "ms": round(median * 1e3, 2), "words_per_s": round(spec.p**k / median)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--shape", help=argparse.SUPPRESS)  # q,n,k,counts: run one shape here
    args = parser.parse_args()
    if args.shape:
        q, n, k, c = (int(x) for x in args.shape.split(","))
        print(json.dumps(profile_shape(q, n, k, bool(c), args.repeats)))
        return
    print(f"{'q':>3} {'n':>4} {'rows':>4} {'counts':>6} {'first_rss_kib':>13} "
          f"{'first_ms':>9} {'ms':>9} {'words_per_s':>12}")
    for q, n, k, c in SHAPES:
        out = subprocess.run([sys.executable, __file__, "--repeats", str(args.repeats),
                              "--shape", f"{q},{n},{k},{int(c)}"],
                             check=True, capture_output=True, text=True).stdout
        r = json.loads(out.splitlines()[-1])
        print(f"{r['q']:>3} {r['n']:>4} {r['rows']:>4} {str(r['counts']):>6} "
              f"{r['first_rss_kib']:>13} {r['first_ms']:>9} {r['ms']:>9} {r['words_per_s']:>12}")


if __name__ == "__main__":
    main()
