"""A benchmark run that exits 0 must end in a result line that carries every
metric ``BENCHMARK.json`` declares.

The untraced pass (``--trace 0``) reports the end-to-end metrics and the
traced pass (``--trace 1``) the per-layer ones.  ``json.dumps`` writes a
non-finite float as ``NaN`` or ``Infinity``, which is not JSON, so the last
line is parsed with those constants rejected, and every value must be finite.
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _strict(constant):
    raise ValueError(f"non-finite constant {constant} in a result line")


def test_bench_result_lines_carry_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in (("1", "per_layer"), ("0", "end_to_end")):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "h6-cfqj",
             "--trace", trace, "--seconds", "1"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_strict)
        assert result["correct"]
        metrics = result["metrics"]
        missing = [m["name"] for m in spec[group] if m["name"] not in metrics]
        assert not missing, missing
        assert all(math.isfinite(m["value"]) for m in metrics.values())
