"""Runs one workload in-process against ``couplersim.cli.main``.

Started by ``run.py`` in a fresh interpreter with the program's ``src`` on
``PYTHONPATH``.  One client in a closed loop: each op is one call to
``main(argv)`` with stdout and stderr captured, followed by its output check.
Prints one JSON object of raw measurements as its last stdout line.

Modes:
  --mode setup   import, run the first op of the stream, exit
  --mode timed   warm up on one rotation, then time whole rotations for --seconds
  --mode traced  warm up, then alternate untraced and traced passes over one
                 rotation for --seconds
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import checks
import workloads

# Reasons kept in the output; later failures are only counted.
_MAX_REASONS = 5


class Client:
    """Issues ops, checks them and keeps the failure tally."""

    def __init__(self, cli_module) -> None:
        self.cli = cli_module
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.report_bytes = 0

    def run(self, op: workloads.Op) -> tuple[float, str, str | None]:
        """Run one op; return its latency in seconds, its stdout and any check failure."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except Exception as exc:  # an op that crashes is a failed op, not a crashed benchmark
                code = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        text = out.getvalue()
        self.attempted += 1
        self.report_bytes += len(text.encode())
        reason = checks.check(op.expect, code, text)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < _MAX_REASONS:
                self.reasons.append(f"{' '.join(op.argv)}: {reason} {err.getvalue().strip()[:200]}")
        return elapsed, text, reason


def warm_up(client: Client, ops: list[workloads.Op]) -> list[str]:
    """Run one rotation untimed and check each op kind's check against NaN."""
    problems = []
    seen = set()
    for op in ops:
        _, text, reason = client.run(op)
        kind = (op.expect["kind"], op.expect.get("format"))
        if kind not in seen and reason is None:
            seen.add(kind)
            problem = checks.nan_self_test(op.expect, text)
            if problem:
                problems.append(problem)
    return problems


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def timed(client: Client, stream, cycle: int, seconds: float) -> dict:
    """Time whole rotations until ``seconds`` have passed.

    Whole rotations keep the mix of op kinds fixed, so the median does not
    jump between the cost clusters of different kinds from run to run.
    """
    latencies = []
    start = perf_counter()
    while perf_counter() - start < seconds:
        for op in itertools.islice(stream, cycle):
            elapsed, _, reason = client.run(op)
            latencies.append((elapsed, reason is None))
    return {"latencies_s": latencies}


def traced(client: Client, rotation: list[workloads.Op], seconds: float, span_path: str) -> dict:
    from tracer import LAYERS, Tracer

    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        plain_s = sum(client.run(op)[0] for op in rotation)
        bytes_before = client.report_bytes
        traced_s = 0.0
        with Tracer() as tr:
            for j, op in enumerate(rotation):
                tr.op = j
                traced_s += client.run(op)[0]
        tr.counters["cli.report_bytes"] = client.report_bytes - bytes_before
        if passes:
            tr.spans.clear()  # every pass replays the same ops; the first pass's spans are kept
        passes.append((tr, plain_s, traced_s))
    first = passes[0][0]
    with open(span_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["id", "parent", "op", "name", "start_s", "end_s"]}) + "\n")
        for span in first.spans:
            fh.write(json.dumps(span) + "\n")
    return {
        "layers": {
            layer: {
                "calls": first.calls[layer],
                "self_s": statistics.median(tr.self_s[layer] for tr, _, _ in passes),
            }
            for layer in LAYERS
        },
        "counters": dict(first.counters),
        "counts_repeat": all(
            tr.calls == first.calls and tr.counters == first.counters for tr, _, _ in passes
        ),
        "overhead": statistics.median(t / p for _, p, t in passes),
        "passes": len(passes),
        "spans_per_pass": len(first.spans),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--span-file", default=None)
    args = parser.parse_args()

    import couplersim.cli

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(couplersim.cli.__file__).resolve().parents:
        sys.exit(f"error: imported couplersim from {couplersim.cli.__file__}, not from {src}")
    client = Client(couplersim.cli)
    stream = workloads.operations(args.workload, args.seed)
    if args.mode == "setup":
        client.run(next(stream))
        result = {"argv_generated": 1}
    else:
        rotation = list(itertools.islice(stream, workloads.CYCLE[args.workload]))
        result = {"self_test_problems": warm_up(client, rotation), "env": environment()}
        if args.mode == "timed":
            result.update(timed(client, stream, len(rotation), args.seconds))
            result["argv_generated"] = len(rotation) + len(result["latencies_s"])
        else:
            result.update(traced(client, rotation, args.seconds, args.span_file))
            result["argv_generated"] = len(rotation)
    result.update(
        attempted=client.attempted,
        failed=client.failed,
        reasons=client.reasons,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
