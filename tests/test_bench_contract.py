"""The names the benchmark's tracer wraps must exist and carry the run.

``perfbench/tracer.py`` replaces ``qjacobi.jacobi.*``, ``qjacobi.statevector.*``
and ``qjacobi.cli.*`` attributes with timing wrappers, and its counters read
the operator from the first positional argument.  A rename, a bypass of the
module-level name or a reordered signature would abort the traced bench pass;
this test runs short traced runs in a separate interpreter (the wrappers patch
modules for good) and checks that every layer recorded its spans.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
H4 = ROOT / "tests" / "fixtures" / "h4_linear_1.5.fcidump"

SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from tracer import NAME, Tracer, install_full
from qjacobi import cli

tracer = Tracer()
for attr in ("parse_fcidump", "build_hamiltonian", "run_quantum_jacobi", "fci_ground_state"):
    tracer.wrap(cli, attr)
install_full(tracer)
codes = []
for method in ("cfqj", "pqj"):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(["run", "--fcidump", sys.argv[2], "--method", method,
                               "--epsilon", "1e-4", "--max-cycles", "3"]))
print(json.dumps({"codes": codes, "spans": sorted({s[NAME] for s in tracer.spans})}))
"""

REQUIRED = (
    "jacobi.diagonal_element", "jacobi.classical_residual",
    "jacobi.transform_hamiltonian", "jacobi.truncate", "fermion.bch_transform",
    "cumulant.cumulant_decompose", "pauli.bch_transform_pauli",
    "statevector.apply_circuit",
)


def test_traced_runs_record_every_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(H4)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0]
    missing = [name for name in REQUIRED if name not in report["spans"]]
    assert not missing, missing
