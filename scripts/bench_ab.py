#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, recorded in a BENCH_<n>.json.

    python3 scripts/bench_ab.py --parent REV --change REV --workload W --seed S \\
        --pairs N [--trace 0|1]

Each revision is checked out with ``git worktree add --detach`` under
``.perfbench_out/`` and removed at the end.  Pair i runs the unchanged
``perfbench/run.py`` once in each checkout, the parent first in odd pairs and
the change first in even ones, with the benchmark's default run length.
Every run is appended, with its last stdout line as recorded, to the
highest-numbered ``BENCH_<n>.json`` at the repository root when it records
the same two commits (so one file collects every workload of a change), else
to a new one with the next number.  The file then gets a ``summary`` per
workload, seed and trace mode.  For every metric it holds each side's median
and quartiles, the pairs the change won, and the gap between the medians
against the parent's interquartile range.  For untraced runs it also says
whether the JSONL sha256 lists of the two sides match.  A last line that is
not strict JSON (``NaN`` or ``Infinity``) or lacks a metric that
``BENCHMARK.json`` declares for its trace mode is malformed: its run is listed
with the reason and left out of the summary.  So is a run that failed the
benchmark's gate (a nonzero exit code, or a result line without
``"correct": true``); each run records its exit code, and each summary counts
the malformed and the failed runs of its group.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_out"
PROTOCOL = ("python3 perfbench/run.py --workload W --seed S --trace T with the default "
            "--seconds, each side run in a git worktree of its commit by "
            "scripts/bench_ab.py; pairs alternate which side runs first (odd pairs parent "
            "first); every run made is listed; each entry is the last stdout line of one "
            "invocation")


def git(*args: str, cwd: Path = ROOT) -> str:
    """git's stdout; a failing command raises RuntimeError with git's stderr."""
    done = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"git {' '.join(args)} exited with {done.returncode}: "
                           f"{done.stderr.strip()}")
    return done.stdout.strip()


def side_info(path: Path, commit: str) -> dict:
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((path / "src").rglob("*.py")))
    return {"commit": commit, "src_tree": git("rev-parse", f"{commit}:src"), "src_lines": lines}


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def parse_result(line: str, declared: list[str]) -> tuple[dict | None, str | None]:
    """The result record of a last stdout line, or None and why it is malformed."""
    try:
        record = json.loads(line, parse_constant=_reject_constant)
    except ValueError as exc:
        return None, f"not strict JSON: {exc}"
    if not isinstance(record, dict) or not isinstance(record.get("metrics"), dict):
        return None, "not a result line"
    missing = [name for name in declared if name not in record["metrics"]]
    if missing:
        return None, f"lacks declared metrics {missing}"
    return record, None


def gate_failure(record: dict, exit_code: int) -> str | None:
    """Why a well-formed result line failed the benchmark's gate, or None."""
    if exit_code == 0 and record.get("correct") is True:
        return None
    return (f"exit code {exit_code}, correct {record.get('correct')}, "
            f"{record.get('failed')} failed runs")


def run_bench(path: Path, workload: str, seed: int, trace: int) -> dict:
    """One invocation as a run entry: its exit code, its result line (None
    when malformed), why it is malformed or failed the gate if it did, and
    its per-repeat sha256 lists."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", str(trace)],
                          cwd=path, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    hashes = []
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "sha256" in record:
            hashes.append(record["sha256"])
    result, malformed = parse_result(lines[-1] if lines else "", declared(trace))
    entry = {"exit_code": proc.returncode, "last_line": result, "hashes": hashes}
    if malformed:
        entry["malformed"] = malformed
    elif failed := gate_failure(result, proc.returncode):
        entry["failed"] = failed
    for kind in ("malformed", "failed"):
        if kind in entry:
            print(f"{kind} run in {path.name}: {entry[kind]}; "
                  f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
    return entry


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list[dict], lower_is_better: dict[str, bool]) -> dict:
    """Per-metric comparison of one workload/seed/trace group of runs.

    Malformed and failed runs are left out.  A pair is won when the change's
    value is better than the parent's; ties count for neither side.  ``gap``
    is the parent's median minus the change's, signed so that a positive gap
    is an improvement, and ``gap_exceeds_parent_iqr`` compares it with the
    parent's Q3 - Q1.
    """
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        if run["last_line"] is not None and "failed" not in run:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["last_line"]["metrics"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    out = {}
    names = sorted({name for p in pairs for name in p["parent"]})
    for name in names:
        values = [(p["parent"][name]["value"], p["change"][name]["value"])
                  for p in pairs if name in p["parent"] and name in p["change"]]
        lower = lower_is_better.get(name, True)
        parent, change = [v[0] for v in values], [v[1] for v in values]
        side = {}
        for label, vals in (("parent", parent), ("change", change)):
            q1, q3 = quartiles(vals)
            side[label] = {"median": statistics.median(vals), "q1": q1, "q3": q3}
        gap = side["parent"]["median"] - side["change"]["median"]
        if not lower:
            gap = -gap
        iqr = side["parent"]["q3"] - side["parent"]["q1"]
        out[name] = {**side, "pairs": len(values),
                     "wins": sum((c < p) if lower else (c > p) for p, c in values),
                     "gap": gap, "parent_iqr": iqr, "gap_exceeds_parent_iqr": gap > iqr}
    return out


def group_summary(runs: list[dict]) -> dict:
    """The counts of malformed and failed runs of one group, and the summary
    of the others."""
    return {"malformed_runs": sum("malformed" in r for r in runs),
            "failed_runs": sum("failed" in r for r in runs),
            "metrics": summarize(runs, directions())}


def directions() -> dict[str, bool]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "lower"
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def declared(trace: int) -> list[str]:
    """The metrics a result line must carry: the per-layer ones when traced,
    the end-to-end ones otherwise."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec.get("per_layer" if trace else "end_to_end", [])]


def bench_path(commits: dict[str, str]) -> Path:
    """The highest-numbered BENCH_<n>.json if it records these two commits,
    else the next number."""
    numbered = sorted((int(p.stem[6:]), p) for p in ROOT.glob("BENCH_*.json")
                      if p.stem[6:].isdigit())
    if numbered:
        last = json.loads(numbered[-1][1].read_text())
        if (last["parent"]["commit"], last["change"]["commit"]) == (
                commits["parent"], commits["change"]):
            return numbered[-1][1]
    return ROOT / f"BENCH_{numbered[-1][0] + 1 if numbered else 1}.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    out_path = bench_path(commits)
    bench = json.loads(out_path.read_text()) if out_path.exists() else {}

    WORK_DIR.mkdir(exist_ok=True)
    paths = {side: WORK_DIR / f"ab-{side}-{sha[:12]}" for side, sha in commits.items()}
    group = f"{args.workload} --seed {args.seed} --trace {args.trace}"
    same = (args.workload, args.seed, args.trace)
    done = max((r["pair"] for r in bench.get("runs", [])
                if (r["workload"], r["seed"], r["trace"]) == same), default=0)
    runs, hashes = [], {"parent": [], "change": []}
    try:
        for side, path in paths.items():
            git("worktree", "add", "--detach", str(path), commits[side])
        for pair in range(done + 1, done + args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                entry = run_bench(paths[side], args.workload, args.seed, args.trace)
                for h in entry.pop("hashes"):
                    if h not in hashes[side]:
                        hashes[side].append(h)
                runs.append({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                             "pair": pair, "side": side, **entry})
                result = entry["last_line"]
                print(json.dumps({"pair": pair, "side": side,
                                  "run_s": result and result["metrics"].get("run_s")}),
                      flush=True)
        info = {side: side_info(path, commits[side]) for side, path in paths.items()}
    finally:
        for path in paths.values():
            if path.exists():
                git("worktree", "remove", "--force", str(path))
        git("worktree", "prune")

    bench = bench or {**info, "host": f"{platform.machine()} {platform.system()}, Python "
                      f"{platform.python_version()}, numpy {numpy.__version__}",
                      "protocol": PROTOCOL, "sha256": {}, "runs": [], "summary": {}}
    bench["runs"].extend(runs)
    match = None
    if args.trace == 0:
        recorded = bench["sha256"].setdefault(f"{args.workload} --seed {args.seed}",
                                              {"parent": [], "change": []})
        for side in ("parent", "change"):
            recorded[side] += [h for h in hashes[side] if h not in recorded[side]]
        match = recorded["parent"] == recorded["change"]
    grouped = [r for r in bench["runs"] if (r["workload"], r["seed"], r["trace"]) == same]
    bench["summary"][group] = {"sha256_match": match, **group_summary(grouped)}
    out_path.write_text(json.dumps(bench, indent=1) + "\n")
    print(json.dumps({"out": out_path.name, "sha256_match": match,
                      "run_s": bench["summary"][group]["metrics"].get("run_s")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
