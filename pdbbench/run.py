"""PoneglyphDB benchmark: prove and verify SQL queries through the public API.

Run from the repository root::

    python3 pdbbench/run.py --workload ops-service --seed 1 --seconds 25 --trace 0
    python3 pdbbench/run.py --workload verify-client --seed 1 --seconds 25 --trace 1
    python3 pdbbench/run.py --self-test

``--trace 0`` measures with telemetry off and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` switches the program's own
telemetry on and reports the per-layer metrics.  The workloads are
described in ``workload.py``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it give the provenance, each shape's circuit properties
and, for every timing, its median, a high percentile and the sample
count.

The benchmark builds nothing: it imports the program from ``src/`` of
the checkout it sits in, and refuses to run without it.  Scratch files
(artifact caches, the job journal) live under ``.bench_build/`` and are
removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: No round starts after this many seconds of the process, so a run
#: ends well inside its 180 s budget even on a slow host.
HARD_STOP_S = 130.0

#: name -> unit of the end-to-end metrics (trace 0).
E2E_UNITS = {
    "job_latency_s": "s",
    "proofs_per_min": "1/min",
    "verify_s": "s",
    "verify_cold_s": "s",
    "batch_verify_per_proof_s": "s",
    "agg_verify_per_proof_s": "s",
    "proof_bytes": "bytes",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (trace 1) that are the per-job mean of a sample list.
LAYER_MEANS = {
    "sql.compile_s": "s",
    "plonkish.witness_s": "s",
    "keygen.fetch_s": "s",
    "prover.commit_advice_s": "s",
    "prover.lookup_commit_s": "s",
    "prover.grand_products_s": "s",
    "prover.quotient_s": "s",
    "prover.multiopen_s": "s",
    "prover.evaluations_s": "s",
    "prover.coverage": "ratio",
    "ecc.fixed_base_msms": "count",
    "ecc.fixed_base_points": "count",
    "ecc.msm_calls": "count",
    "ecc.msm_points": "count",
    "algebra.fft_calls": "count",
    "algebra.fft_points": "count",
    "algebra.inversions": "count",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "verifier.decode_s": "s",
    "verifier.vk_rebuild_s": "s",
    "aggregate.build_s": "s",
    "aggregate.bytes": "bytes",
}

#: Per-layer metrics computed from the whole run.
LAYER_OTHER = {
    "plonkish.advice_columns": "count",
    "plonkish.lookups": "count",
    "plonkish.advice_zero_share": "ratio",
    "keygen.cold_s": "s",
    "params.setup_s": "s",
    "db.commit_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "service.idle_share": "ratio",
    "service.keygen_warm_hit_ratio": "ratio",
    "service.journal_bytes_per_job": "bytes",
    "service.retries": "count",
    "service.failed": "count",
    "telemetry.overhead_pct": "%",
}


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path, or refuse."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"pdbbench: no program sources under {SRC}; refusing to run")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"pdbbench: imported repro from {repro.__file__}, not {SRC}")


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    from repro import kernels
    from repro.algebra import backend

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "field_backend": backend.backend_name(),
        "kernel_fastpath": kernels.fastpath_enabled(),
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    p = (100 * (n - 10)) // n if n > 10 else 0
    if p < 50:
        return f"n={n} (too few samples for a percentile above p50)"
    return f"p{p}={statistics.quantiles(values, n=100)[p - 1]:.4f} n={n}"


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    import_program()
    import workload as wl
    from repro import telemetry

    spec = wl.workload(args.workload, tiny=args.tiny)
    workdir = ROOT / ".bench_build" / f"pdbbench-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = wl.Bench(spec, args.seed, workdir, traced=bool(args.trace))
    try:
        setup_times = bench.setup(1 if args.tiny else wl.SETUPS)
        print("provenance:", json.dumps(provenance(), sort_keys=True))
        for shape in spec.shapes:
            facts = bench.facts[shape.name]
            print(
                f"shape {shape.name}: advice_columns={facts.advice_columns} "
                f"lookups={facts.lookups} advice_zero_share={facts.zero_share:.4f} "
                f"extended_k={facts.extended_k} result_rows={len(facts.expected)}"
            )
        bench.start()
        warmup = wl.Samples()
        bench.round(warmup)
        # Warm-up operations give no timing sample but still count.
        bench.samples.attempted += warmup.attempted
        bench.samples.failures += warmup.failures
        rounds = jobs = 0
        busy = ref_wall = 0.0
        t0 = time.perf_counter()
        while rounds == 0 or (
            time.perf_counter() - t0 < args.seconds
            and time.perf_counter() - started < HARD_STOP_S
        ):
            if args.trace:
                # Alternate traced and untraced rounds for the overhead.
                telemetry.enable(rounds % 2 == 0)
            done, round_busy, round_wall, factor = bench.round(bench.samples)
            rounds += 1
            jobs += done
            busy += round_busy
            ref_wall += round_wall * factor
        wall = time.perf_counter() - t0
        if args.trace:
            telemetry.enable(True)
            health = bench.service.health()
            service_stats = bench.service.stats()
        # The journal is flushed after every append.
        journal_bytes = (workdir / "jobs.journal").stat().st_size
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)

    samples = bench.samples
    times = samples.times
    if args.trace:
        facts = bench.facts.values()
        traced, untraced = times.get("run_s.traced", []), times.get("run_s.untraced", [])
        others = {
            "plonkish.advice_columns": sum(f.advice_columns for f in facts),
            "plonkish.lookups": sum(f.lookups for f in facts),
            "plonkish.advice_zero_share": (
                sum(f.advice_zeros for f in facts) / sum(f.advice_cells for f in facts)
            ),
            "keygen.cold_s": median(bench.setup_parts["keygen.cold_s"]),
            "params.setup_s": median(bench.setup_parts["params.setup_s"]),
            "db.commit_s": median(bench.setup_parts["db.commit_s"]),
            "cache.hits": bench.session.cache.stats.hits,
            "cache.misses": bench.session.cache.stats.misses,
            "service.idle_share": 1.0 - busy / wall,
            "service.keygen_warm_hit_ratio": health["keygen"]["warm_hit_ratio"],
            "service.journal_bytes_per_job": journal_bytes / bench.jobs_submitted,
            "service.retries": sum(times.get("service.retries", [])),
            "service.failed": service_stats["jobs"].get("failed", 0),
            "telemetry.overhead_pct": (
                100.0 * (median(traced) / median(untraced) - 1.0)
                if traced and untraced else 0.0
            ),
        }
        metrics = {
            name: metric(mean(times.get(name, [])), unit)
            for name, unit in LAYER_MEANS.items()
        }
        metrics.update(
            (name, metric(others[name], unit)) for name, unit in LAYER_OTHER.items()
        )
    else:
        values = {
            name: median(times.get(name, []))
            for name in (
                "job_latency_s", "verify_s", "verify_cold_s",
                "batch_verify_per_proof_s", "agg_verify_per_proof_s",
            )
        }
        values["proofs_per_min"] = 60.0 * jobs / ref_wall
        values["proof_bytes"] = mean(times.get("proof_bytes", []))
        values["setup_s"] = median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: metric(values[name], unit) for name, unit in E2E_UNITS.items()}
        for name in list(values)[:5]:
            series = times.get(name, [])
            print(f"{name}: median={median(series):.4f} {high_percentile(series)} "
                  f"(wall median {median(samples.raw.get(name, [])):.4f})")
        print(f"setup_s: median={values['setup_s']:.4f} n={len(setup_times)} "
              f"(wall median {median(bench.setup_raw):.4f})")
    print(f"rounds={rounds} jobs={jobs} measured_wall_s={wall:.2f} "
          f"reference_wall_s={ref_wall:.2f}")
    for failure in samples.failures:
        print("FAILED:", failure)
    print(json.dumps({
        "correct": not samples.failures,
        "attempted": samples.attempted,
        "failed": len(samples.failures),
        "metrics": metrics,
    }))
    return 0


def check_result(stdout: str, expected: list[dict]) -> list[str]:
    """Problems with one run's result line against BENCHMARK.json."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return ["last line is not a JSON result"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted={result['attempted']}")
    want = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: {entry} (want unit {unit})")
    return problems


def self_test() -> int:
    """Smoke-run every workload on tiny queries, traced and untraced,
    and check that a copy without the program's sources refuses."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in bench["workloads"]:
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload["name"], "--seed", "1",
                "--seconds", "1", "--trace", str(trace), "--tiny",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            found = check_result(proc.stdout, expected) if proc.returncode == 0 else [
                f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
            ]
            label = f"{workload['name']} trace={trace}"
            print(f"{label}: {'ok' if not found else 'FAILED'}")
            problems += [f"{label}: {p}" for p in found]

    bare = ROOT / ".bench_build" / "pdbbench-selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable] + bench["command"][1:] + [
            "--workload", bench["workloads"][0]["name"], "--seed", "1",
            "--seconds", "1", "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"refuses without sources: {'ok' if proc.returncode != 0 else 'FAILED'}")

    for problem in problems:
        print("PROBLEM:", problem)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("ops-service", "verify-client"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny queries and one set-up (self-test)")
    parser.add_argument("--self-test", action="store_true",
                        help="smoke-run every workload and check the output")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
