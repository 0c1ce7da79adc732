"""scripts/held_memory.py on a benchmark workload: one JSON line of sizes."""

import json
import math
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "held_memory.py"


def test_h6_cfqj_peak_and_held_memory_are_finite():
    done = subprocess.run([sys.executable, str(SCRIPT), "--workload", "h6-cfqj", "--seed", "0"],
                          capture_output=True, text=True, check=True, timeout=300)
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["workload"] == "h6-cfqj" and record["cycles"] == [12]
    for name in ("peak_mb", "held_mb"):
        assert math.isfinite(record[name]) and record[name] > 0
    assert record["held_mb"] <= record["peak_mb"]
