"""couplersim benchmark: runs one workload and prints every metric by name and unit.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
replays one rotation of the workload with and without the per-layer tracer
and prints the per-layer metrics.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable record of the run.  Workloads and the reasons
for them are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Fresh interpreters started per run to time set-up; setup_s is their median.
SETUP_RUNS = 5
# One client and no extra threads: BLAS gets one thread (never more than nproc).
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 150.0
# Samples that must lie beyond the reported tail latency.
TAIL_BEYOND = 10

# Layers each workload is predicted to load; the traced run checks calls > 0.
HEAVY_LAYERS = {
    "verify-dense": ("cli", "coupler", "engine", "fock"),
    "scan": ("cli", "analysis", "coupler", "engine", "fock"),
    "cli-reports": ("cli", "gates", "analysis"),
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(mode: str, args, *extra: str) -> tuple[dict, float]:
    """Start worker.py in a fresh interpreter; return its result and wall time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {CHILD_TIMEOUT_S} s") from exc
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(args) -> tuple[dict, dict]:
    setups = [run_worker("setup", args) for _ in range(SETUP_RUNS)]
    res, _ = run_worker("timed", args)
    lat = [s for s, _ in res["latencies_s"]]
    completed = sum(1 for _, ok in res["latencies_s"] if ok)
    tail_s, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": (statistics.median(wall for _, wall in setups), "s"),
        "ops_per_s": (completed / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    attempted = res["attempted"] + sum(r["attempted"] for r, _ in setups)
    failed = res["failed"] + sum(r["failed"] for r, _ in setups)
    record = {
        "env": res["env"],
        "timed_ops": len(lat),
        "tail": {"percentile": round(tail_pct, 3), "samples": len(lat), "beyond": beyond},
        "fail_ratio": failed / attempted,
        "setup_runs_s": [wall for _, wall in setups],
        "self_test_problems": res["self_test_problems"],
        "argv_generated": res["argv_generated"],
        "reasons": res["reasons"] + [x for r, _ in setups for x in r["reasons"]],
        "attempted": attempted,
        "failed": failed,
    }
    return metrics, record


def per_layer(args) -> tuple[dict, dict]:
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    res, _ = run_worker("traced", args, "--span-file", str(span_file))
    c = res["counters"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (res["layers"][layer]["calls"], "count")
        metrics[f"{layer}.self_s"] = (res["layers"][layer]["self_s"], "s")
    useful, dense = c.get("coupler.useful_states", 0), c.get("coupler.dense_states", 0)
    points = c.get("analysis.scan_points", 0)
    metrics.update({
        "fock.elements_built": (c.get("fock.elements_built", 0), "count"),
        "engine.n3_sum": (c.get("engine.n3_sum", 0), "count"),
        "coupler.useful_state_ratio": (useful / dense if dense else 0.0, "ratio"),
        "coupler.useful_states": (useful, "count"),
        "coupler.dense_states": (dense, "count"),
        "coupler.refusals": (c.get("coupler.refusals", 0), "count"),
        "analysis.scan_points": (points, "count"),
        "analysis.scan_hits": (c.get("analysis.scan_hits", 0), "count"),
        "analysis.gate_times_found": (c.get("analysis.gate_times_found", 0), "count"),
        "analysis.fock_calls_per_point": (
            c.get("analysis.scan_fock_calls", 0) / points if points else 0.0, "ratio"),
        "cli.report_bytes": (c.get("cli.report_bytes", 0), "bytes"),
        "tracing_overhead": (res["overhead"], "ratio"),
    })
    problems = list(res["self_test_problems"])
    idle = [layer for layer in HEAVY_LAYERS[args.workload] if res["layers"][layer]["calls"] == 0]
    if idle:
        problems.append(f"layers {idle} made no calls on {args.workload}")
    if not res["counts_repeat"]:
        problems.append("per-layer counts differ between traced passes of the same ops")
    record = {
        "env": res["env"],
        "passes": res["passes"],
        "spans_per_pass": res["spans_per_pass"],
        "span_file": str(span_file.relative_to(ROOT)),
        "argv_generated": res["argv_generated"],
        "fail_ratio": res["failed"] / res["attempted"],
        "self_test_problems": problems,
        "reasons": res["reasons"],
        "attempted": res["attempted"],
        "failed": res["failed"],
    }
    return metrics, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "couplersim" / "cli.py").is_file():
        print(f"error: no couplersim sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    try:
        metrics, record = (per_layer if args.trace else end_to_end)(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = record["failed"] == 0 and not record["self_test_problems"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **record}))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
