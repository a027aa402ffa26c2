"""The benchmark's calls into the library: one untraced pass of each
``perfbench`` workload runs with no failed job, so renaming or deleting a
name the benchmark calls fails here, not only in a benchmark run."""
import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ONE_PASS_EACH = """
import json, run, workloads
out = {}
for name in workloads.WORKLOADS:
    passes = run.run_passes(run.setup(name, 0), 0, 1)
    out[name] = [passes["attempted"], passes["failed"]]
print(json.dumps(out))
"""


def test_one_pass_of_each_workload_fails_no_job():
    # a subprocess, because the benchmark's set-up drops qproduct from
    # sys.modules and imports it afresh
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, "-c", ONE_PASS_EACH], cwd=PERFBENCH, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout.splitlines()[-1])
    assert sorted(counts) == ["enumerate", "reproduce", "search"]
    for name, (attempted, failed) in counts.items():
        assert attempted > 0 and failed == 0, (name, result.stderr)
