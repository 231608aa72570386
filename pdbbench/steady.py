"""Steadiness check for the benchmark: repeat a workload, summarise, compare.

Run from the repository root::

    python3 pdbbench/steady.py run --workload ops-service --runs 10 --out a.json
    python3 pdbbench/steady.py compare a.json b.json

``run`` makes ``--runs`` runs of one workload, each with another seed
(``--first-seed``, ``--first-seed + 1``, ...), and prints for every
metric its median, first and third quartile and the spread
(``(q3 - q1) / median``) against the metric's bound in
``BENCHMARK.json``: ``steady`` below a third of the bound, ``ok`` within
it, ``NOISY`` beyond it (``setup_s`` is only compared, never gated on
spread).  ``--out`` keeps every run's metrics as JSON.

``compare`` reads two such files and flags every metric whose second
median is worse than the first by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs(trace: int) -> dict[str, dict]:
    spec = bench_spec()
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    spec = bench_spec()
    cmd = [sys.executable] + spec["command"][1:] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"seed {seed}: incorrect result\n{proc.stdout[-2000:]}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summarise(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def report(runs: list[dict], trace: int) -> bool:
    specs = metric_specs(trace)
    steady = True
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, spec in specs.items():
        med, q1, q3, spread = summarise([run[name] for run in runs])
        bound = spec.get("bound")
        verdict = ""
        if bound is not None and name != "setup_s":
            verdict = "steady" if spread < bound / 3 else "ok" if spread <= bound else "NOISY"
            steady &= verdict != "NOISY"
        print(f"{name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
              f"{bound if bound is not None else '-':>6} {verdict}")
    return steady


def compare(first: dict, second: dict) -> bool:
    specs = metric_specs(first["trace"])
    ok = True
    for name, spec in specs.items():
        a = statistics.median(run[name] for run in first["runs"])
        b = statistics.median(run[name] for run in second["runs"])
        change = (b - a) / a if a else 0.0
        worse = change if spec["better"] == "lower" else -change
        bound = spec.get("bound")
        flag = ""
        if bound is not None:
            flag = "WORSE" if worse > bound else "ok"
            ok &= flag == "ok"
        print(f"{name:32} {a:12.5g} -> {b:12.5g} {change:+8.2%} {flag}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", type=Path)
    cmp = sub.add_parser("compare")
    cmp.add_argument("first", type=Path)
    cmp.add_argument("second", type=Path)
    args = parser.parse_args(argv)

    if args.cmd == "compare":
        first = json.loads(args.first.read_text())
        second = json.loads(args.second.read_text())
        return 0 if compare(first, second) else 1

    seconds = bench_spec()["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        t0 = time.perf_counter()
        runs.append(one_run(args.workload, seed, seconds, args.trace))
        print(f"seed {seed} ({time.perf_counter() - t0:.0f} s): "
              + " ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()), flush=True)
    if args.out:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "runs": runs}, indent=1))
    return 0 if report(runs, args.trace) else 1


if __name__ == "__main__":
    sys.exit(main())
