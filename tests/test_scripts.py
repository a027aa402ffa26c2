"""The profiling script against the library as it is: a library change
that breaks ``scripts/scan_profile.py`` fails here, not only when the
profiler is next run."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

SCAN_PROFILE = Path(__file__).resolve().parent.parent / "scripts" / "scan_profile.py"


def _scan_profile():
    spec = importlib.util.spec_from_file_location("scan_profile", SCAN_PROFILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scan_profile_builds_its_layer_matrices_and_runs_a_layer_and_a_certificate_shape():
    matrices = dict(_scan_profile().layer_matrices())
    assert sorted(matrices) == [2, 4, 11]
    rows = matrices[11]  # the check rows of rs(11, 7)
    assert (len(rows), len(rows[0])) == (6, 10)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    for shape, name in ((["rref", 11, rows], "rref GF(11) 6x10"),
                        (["gram", 11, rows], "gram GF(11) 6x10"),
                        (["cert", 11, 3, 3], "cert rs q=11 mu=3,3 n=100 -> [4, 4]")):
        result = subprocess.run([sys.executable, str(SCAN_PROFILE), "--repeats", "1",
                                 "--shape", json.dumps(shape)],
                                env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1])["shape"] == name
