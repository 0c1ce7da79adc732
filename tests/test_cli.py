import csv
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from qjacobi.cli import batch_sweep, main
from qjacobi.jacobi import RunConfig, run_quantum_jacobi
from qjacobi.trace import read_trace_jsonl

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
H2 = str(FIXTURES / "h2_sto6g_0.7414.fcidump")
H4 = str(FIXTURES / "h4_linear_1.5.fcidump")


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "qjacobi.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestRunCommand:
    def test_zero_cycles_trace_has_hf_only(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        code = main(["run", "--fcidump", H2, "--method", "exact-fermion",
                     "--max-cycles", "0", "--trace", str(trace_path)])
        assert code == 0
        records = read_trace_jsonl(trace_path)
        assert len(records) == 1 and records[0].k == 0

    def test_deterministic_byte_identical_traces(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for p in paths:
            code = main(["run", "--fcidump", H4, "--method", "cfqj",
                         "--epsilon", "1e-4", "--kappa", "1e-3",
                         "--max-cycles", "40", "--seed", "9", "--shots", "500",
                         "--trace", str(p), "--skip-fci"])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_summary_csv_schema(self, tmp_path):
        summary = tmp_path / "s.csv"
        code = main(["run", "--fcidump", H2, "--method", "exact-fermion",
                     "--max-cycles", "5", "--summary", str(summary)])
        assert code == 0
        with open(summary) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        from qjacobi.trace import SUMMARY_COLUMNS
        assert tuple(row.keys()) == SUMMARY_COLUMNS
        assert float(row["fci_error"]) < 1e-8
        assert row["termination"] in ("residual_floor", "energy_floor", "max_cycles")

    def test_cli_runs_as_module(self, tmp_path):
        code, out, err = run_cli(["run", "--fcidump", H2, "--method", "exact-fermion",
                                  "--max-cycles", "3"])
        assert code == 0, err
        assert "final_energy=" in out


class TestFciCommand:
    def test_energy_matches_oracle(self, h2_fci, capsys):
        code = main(["fci", "--fcidump", H2])
        assert code == 0
        printed = float(capsys.readouterr().out.strip())
        assert abs(printed - h2_fci[0]) < 1e-10

    def test_vector_dump(self, tmp_path, capsys):
        out = tmp_path / "vec.txt"
        assert main(["fci", "--fcidump", H2, "--vector", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        amps = np.array([float(line.split()[1]) for line in lines])
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-10

    def test_vector_is_real_with_positive_pivot(self, tmp_path, capsys, h4_fci):
        out = tmp_path / "vec.txt"
        assert main(["fci", "--fcidump", H4, "--vector", str(out)]) == 0
        capsys.readouterr()
        amps = np.array([float(line.split()[1]) for line in out.read_text().splitlines()])
        assert np.array_equal(amps, h4_fci[1])
        assert amps[np.argmax(np.abs(amps))] > 0


class TestJwDumpCommand:
    def test_lists_pauli_terms(self, capsys, h2):
        from qjacobi.jordan_wigner import jordan_wigner
        assert main(["jw-dump", "--fcidump", H2]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(jordan_wigner(h2.hamiltonian).terms)
        coeff, label = lines[0].split()
        float(coeff)
        assert set(label) <= set("IXYZ") and len(label) == h2.n_qubits


class TestDiagCommand:
    def test_series_from_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        main(["run", "--fcidump", H2, "--method", "exact-fermion",
              "--max-cycles", "5", "--trace", str(trace_path), "--skip-fci"])
        capsys.readouterr()
        assert main(["diag", "--trace", str(trace_path), "--topk", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        header = out[0].split(",")
        assert header[:3] == ["k", "support", "entropy"]
        assert len(out) >= 2

    def test_idempotent(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        main(["run", "--fcidump", H2, "--method", "exact-fermion",
              "--max-cycles", "5", "--trace", str(trace_path), "--skip-fci"])
        out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        assert main(["diag", "--trace", str(trace_path), "--out", str(out1)]) == 0
        assert main(["diag", "--trace", str(trace_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestErrors:
    def test_bad_flag_single_line(self):
        code, out, err = run_cli(["run", "--fcidump", H2, "--method", "nope"])
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("qjacobi-error:")

    @pytest.mark.parametrize("flags", [
        ["--method", "pqj", "--epsilon", "nan"],
        ["--method", "cfqj", "--epsilon", "nan"],
        ["--method", "cfqj", "--epsilon", "1e-4", "--kappa", "nan"],
        ["--method", "cfqj", "--epsilon", "1e-3", "--kappa", "1e-4"],
        ["--method", "cfqj", "--epsilon", "1e-4", "--merge-threshold", "inf"],
    ])
    def test_bad_threshold_rejected_up_front(self, flags):
        code, out, err = run_cli(["run", "--fcidump", H4, *flags, "--skip-fci"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("qjacobi-error: bad-flags:")

    def test_register_too_large_for_simulator(self, tmp_path):
        # 20 orbitals are 40 qubits: rejected before any register is allocated
        big = tmp_path / "big.fcidump"
        big.write_text("&FCI NORB=20,NELEC=2,MS2=0,&END\n 1.0 1 1 0 0\n 0.5 0 0 0 0\n")
        code, out, err = run_cli(["run", "--fcidump", str(big), "--method", "cfqj",
                                  "--skip-fci"])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("qjacobi-error: invalid-input: a register of 40 qubits")

    def test_unreadable_file(self):
        code, out, err = run_cli(["fci", "--fcidump", "/no/such/file"])
        assert code == 2
        assert err.startswith("qjacobi-error: io:")

    def test_malformed_fcidump(self, tmp_path):
        bad = tmp_path / "bad.fcidump"
        bad.write_text("&FCI NORB=2,NELEC=2,MS2=0,&END\n nonsense 1 1 0 0\n")
        code, out, err = run_cli(["fci", "--fcidump", str(bad)])
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("header", ["NORB=2,NELEC=5,MS2=1", "NORB=2,NELEC=2,MS2=1",
                                        "NORB=2,NELEC=2,MS2=4"])
    @pytest.mark.parametrize("skip_fci", [[], ["--skip-fci"]])
    def test_inconsistent_fcidump_header(self, tmp_path, header, skip_fci):
        body = pathlib.Path(H2).read_text().split("&END", 1)[1]
        bad = tmp_path / "bad.fcidump"
        bad.write_text(f"&FCI {header},&END" + body)
        code, out, err = run_cli(["run", "--fcidump", str(bad), "--method", "exact-fermion",
                                  "--max-cycles", "2", *skip_fci])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("qjacobi-error: fcidump: line 1:")

    @pytest.mark.parametrize("command", ["fci", "run"])
    def test_nan_integral_rejected(self, tmp_path, command):
        # before the check, a NaN one-body integral was dropped silently and
        # both commands exited 0 with the wrong energy
        text = pathlib.Path(H2).read_text().replace(
            "-1.2567389867960577E+00   1   1   0   0", "NaN   1   1   0   0")
        bad = tmp_path / "nan.fcidump"
        bad.write_text(text)
        args = ["--method", "exact-fermion", "--max-cycles", "2"] if command == "run" else []
        code, out, err = run_cli([command, "--fcidump", str(bad), *args])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("qjacobi-error: fcidump: line 10: non-finite value")

    def test_unwritable_output_path(self):
        code, out, err = run_cli(["run", "--fcidump", H2, "--method", "exact-fermion",
                                  "--max-cycles", "1", "--trace", "/no/such/dir/t.jsonl"])
        assert code == 2
        assert err.startswith("qjacobi-error: io:")

    @pytest.mark.parametrize("topk", ["0", "-3"])
    def test_topk_below_one_writes_nothing(self, tmp_path, topk):
        trace_path = tmp_path / "t.jsonl"
        main(["run", "--fcidump", H2, "--method", "exact-fermion",
              "--max-cycles", "2", "--trace", str(trace_path), "--skip-fci"])
        for out in ([], ["--out", str(tmp_path / "d.csv")]):
            code, stdout, err = run_cli(["diag", "--trace", str(trace_path), "--topk", topk, *out])
            assert code == 2 and stdout == ""
            assert err == f"qjacobi-error: bad-flags: --topk must be >= 1, got {topk}\n"
        assert not (tmp_path / "d.csv").exists()

    def test_bad_trace_schema(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "a record"}\n')
        code, out, err = run_cli(["diag", "--trace", str(bad)])
        assert code == 2
        assert err.startswith("qjacobi-error: schema:")


class TestBatchSweep:
    def test_single_run_batch_equals_run(self, h4, h4_cfqj_trace):
        cfg = RunConfig(method="cfqj", epsilon=1e-4, kappa=1e-3, max_cycles=200, rng_seed=11)
        rows = batch_sweep(h4, [cfg])
        assert rows[0]["final_energy"] == h4_cfqj_trace.final_energy

    def test_deterministic_prefixes_across_seeds(self, h4):
        # before k_c no randomness is consumed: all seeds agree
        traces = [run_quantum_jacobi(
            h4, RunConfig(method="cfqj", epsilon=1e-4, kappa=1e-3, max_cycles=20,
                          rng_seed=seed)) for seed in range(10)]
        assert all(t.k_c is None or t.k_c > 20 for t in traces)
        reference = [r.to_json() for r in traces[0].records]
        for t in traces[1:]:
            assert [r.to_json() for r in t.records] == reference

    def test_thirty_seed_sweep_median_accuracy(self, h4, h4_fci):
        configs = [RunConfig(method="cfqj", epsilon=1e-4, kappa=1e-3,
                             max_cycles=150, rng_seed=seed) for seed in range(30)]
        rows = batch_sweep(h4, configs, fci_energy=h4_fci[0])
        errors = sorted(row["fci_error"] for row in rows)
        median = errors[len(errors) // 2]
        assert median < 1.6e-3
