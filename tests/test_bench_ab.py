"""Summary statistics of the A/B benchmark driver on fixed inputs."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)


def run(pair, side, **metrics):
    return {"workload": "w", "seed": 0, "trace": 0, "pair": pair, "side": side,
            "last_line": {"metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}}


def test_quartiles_inclusive():
    assert bench_ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)
    assert bench_ab.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 3.25)
    assert bench_ab.quartiles([7.0]) == (7.0, 7.0)


def test_summary_medians_wins_and_gap():
    parent = [1.0, 1.2, 1.1, 1.3, 1.0]
    change = [0.4, 0.5, 1.1, 0.3, 0.6]  # pair 3 ties and counts for neither
    runs = [run(i + 1, side, run_s=v, hit=v)
            for i, pv in enumerate(zip(parent, change)) for side, v in zip(("parent", "change"), pv)]
    runs.append({**run(6, "parent", run_s=9.0), "last_line": None})  # a failed run
    runs.append(run(7, "change", run_s=0.1))  # a pair without its parent run
    out = bench_ab.summarize(runs, {"run_s": True, "hit": False})
    s = out["run_s"]
    assert s["pairs"] == 5 and s["wins"] == 4
    assert s["parent"] == {"median": 1.1, "q1": 1.0, "q3": 1.2}
    assert s["change"] == {"median": 0.5, "q1": 0.4, "q3": 0.6}
    assert s["gap"] == pytest.approx(0.6) and s["parent_iqr"] == pytest.approx(0.2)
    assert s["gap_exceeds_parent_iqr"]
    # higher is better: the same numbers are a loss in 4 of 5 pairs
    h = out["hit"]
    assert h["wins"] == 0 and h["gap"] == pytest.approx(-0.6)
    assert not h["gap_exceeds_parent_iqr"]


def test_result_line_parsed_strictly():
    declared = ["run_s", "wall_s"]
    good = '{"correct": true, "metrics": {"run_s": {"value": 1.5}, "wall_s": {"value": 2.0}}}'
    assert bench_ab.parse_result(good, declared) == (
        {"correct": True, "metrics": {"run_s": {"value": 1.5}, "wall_s": {"value": 2.0}}}, None)
    for line in (good.replace("1.5", "NaN"), good.replace("2.0", "-Infinity")):
        result, why = bench_ab.parse_result(line, declared)
        assert result is None and why.startswith("not strict JSON")
    result, why = bench_ab.parse_result(good, declared + ["peak_rss_mb"])
    assert result is None and "peak_rss_mb" in why
    for line in ("benchmark aborted", '{"context": {}}', ""):
        assert bench_ab.parse_result(line, declared)[0] is None


def test_declared_metrics_by_trace_mode():
    assert bench_ab.declared(0) == ["wall_s", "setup_s", "run_s", "peak_rss_mb"]
    per_layer = bench_ab.declared(1)
    assert "jacobi.stage_coverage" in per_layer and "run_s" not in per_layer


def test_failed_runs_listed_and_left_out():
    good = {"correct": True, "failed": 0}
    assert bench_ab.gate_failure(good, 0) is None
    for record, code in (({"correct": False, "failed": 2}, 1), (good, 1),
                         ({"correct": False, "failed": 0}, 0)):
        assert bench_ab.gate_failure(record, code).startswith(f"exit code {code}, correct ")
    assert "2 failed runs" in bench_ab.gate_failure({"correct": False, "failed": 2}, 1)
    runs = [run(1, "parent", run_s=1.0), run(1, "change", run_s=0.5),
            run(2, "parent", run_s=1.0), {**run(2, "change", run_s=0.1), "failed": "exit code 1"},
            {**run(3, "parent", run_s=2.0), "last_line": None, "malformed": "not a result line"},
            run(3, "change", run_s=0.2)]
    out = bench_ab.group_summary(runs)
    assert (out["malformed_runs"], out["failed_runs"]) == (1, 1)
    assert out["metrics"]["run_s"]["pairs"] == 1
    assert out["metrics"]["run_s"]["change"]["median"] == 0.5


def test_git_failure_carries_its_message():
    with pytest.raises(RuntimeError, match=r"git rev-parse --verify no-such-rev exited "
                                           r"with \d+: fatal:"):
        bench_ab.git("rev-parse", "--verify", "no-such-rev")
