"""Command-line front end emitting machine-readable verification reports.

Exit codes: 0 all checks passed, 1 a numeric check failed, 2 configuration or
precondition error.  Reports go to stdout (or --out); diagnostics to stderr.
Reports are byte-stable for identical configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import analysis, coupler, gates
from .analysis import gate_time, random_product_state, schmidt
from .engine import is_unitary

SCHEMA_VERSION = 1

_DICHOTOMY_SEED = 1
_PRODUCT_TOL = 1e-10
_ENTANGLED_MIN = 0.05

# Float flags that must be finite when given; --w and --g are checked by
# CouplerParams.
_FINITE_FLAGS = ("time", "tol", "t_min", "t_max", "theta")


def _couplings_from_args(args) -> tuple[float, ...]:
    g = args.g if args.g is not None else [1.0]
    if len(g) == 1:
        return (float(g[0]),) * args.n_outer
    if len(g) != args.n_outer:
        raise ValueError(
            f"--g takes 1 or {args.n_outer} values for --n-outer {args.n_outer}, got {len(g)}"
        )
    return tuple(float(x) for x in g)


def _default_w(couplings: tuple[float, ...], k: int) -> float:
    # Lowest free phase compatible with the gate time 2 pi k / ||g||.
    if k < 1:
        raise ValueError(f"--k must be at least 1, got {k}")
    return math.sqrt(sum(g * g for g in couplings)) / (2.0 * k)


def _coupler_setup(args) -> tuple[coupler.CouplerParams, dict]:
    """CouplerParams from the flags, and the report's config without "t".

    An unset --w takes the lowest gate-compatible frequency and an unset
    --nmax takes N + 1, the least that holds every computational input;
    verify sets its own defaults in the parser.
    """
    couplings = _couplings_from_args(args)
    w = args.w if args.w is not None else _default_w(couplings, args.k)
    n_max = args.nmax if args.nmax is not None else args.n_outer + 1
    params = coupler.CouplerParams(
        n_outer=args.n_outer, w=w, couplings=couplings, n_max=n_max
    )
    config = {
        "command": args.command,
        "n_outer": args.n_outer,
        "couplings": list(couplings),
        "w": w,
        "n_max": n_max,
        "k": args.k,
        "tol": args.tol,
        "format": args.format,
    }
    return params, config


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_report(config: dict, results: dict, max_error: float, passed: bool) -> str:
    report = {
        "schema": SCHEMA_VERSION,
        "config": config,
        "results": results,
        "max_error": max_error,
        "passed": passed,
    }
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_text(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def cmd_verify(args) -> int:
    params, config = _coupler_setup(args)
    config["t"] = args.time
    if args.format != "json":
        raise ValueError("verify reports are json only")
    layout = params.layout()
    report = coupler.verify_factorization(params, layout, args.time, tol=args.tol)
    algebra_residual = coupler.algebra_check(params, layout)
    results = {
        "factorization": {
            "block_distances": [[k, d] for k, d in report.block_distances],
            "max_block_distance": report.max_block_distance,
            "sqrt_gamma": report.sqrt_gamma,
            "singularity_margin": report.singularity_margin,
        },
        "algebra": {"residual": algebra_residual},
    }
    _emit(_json_report(config, results, report.max_block_distance, report.passed), args.out)
    return 0 if report.passed else 1


def cmd_truth_table(args) -> int:
    params, config = _coupler_setup(args)
    t = args.time if args.time is not None else gate_time(params, k=args.k).t
    config["t"] = t
    table = analysis.truth_table(params, params.layout(), t, method=args.method)
    # Phase pattern of the relative gate family: (-1)^K on each input.
    max_error = table.leakage
    for row in table.rows:
        expected = -1.0 if sum(row.occupations) % 2 else 1.0
        max_error = max(max_error, abs(row.phase - expected), 1.0 - row.fidelity)
    passed = max_error <= args.tol
    if args.format == "csv":
        _emit(_csv_text(table.to_csv_rows()), args.out)
    else:
        results = dict(table.to_json_dict(), t=t, method=args.method)
        _emit(_json_report(config, results, max_error, passed), args.out)
    return 0 if passed else 1


def _schmidt_extrema(gate: gates.QubitGate, samples: int, rng) -> tuple[float, float]:
    """(largest second coefficient, smallest second coefficient) over inputs."""
    second_max, second_min = 0.0, 1.0
    for _ in range(samples):
        state = gate.apply(random_product_state(rng, gate.qubit_count))
        for cut in range(1, gate.qubit_count):
            svals = schmidt(state, cut).singular_values
            second_max = max(second_max, float(svals[1]))
            second_min = min(second_min, float(svals[1]))
    return second_max, second_min


def cmd_gates(args) -> int:
    if args.format != "json":
        raise ValueError("gate reports are json only")
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    theta = args.theta if args.theta is not None else math.pi
    family = [
        gates.one_qubit_phase(theta),
        gates.control_c_phase(),
        gates.control_phase_shift(),
        gates.swap_gate(),
        gates.relative_phase_2(theta),
        gates.relative_phase_3(),
    ]
    config = {
        "command": "gates",
        "theta": theta,
        "samples": args.samples,
        "tol": args.tol,
        "format": args.format,
    }
    decomposition = gates.compose(
        [gates.control_phase_shift(), gates.swap_gate(),
         gates.control_phase_shift(), gates.swap_gate()]
    )
    decomp_dist = float(
        np.linalg.norm(decomposition.matrix - gates.relative_phase_2(math.pi).matrix)
    )
    rng = np.random.default_rng(_DICHOTOMY_SEED)
    rel2_second, _ = _schmidt_extrema(gates.relative_phase_2(math.pi), args.samples, rng)
    rel3_second, _ = _schmidt_extrema(gates.relative_phase_3(), args.samples, rng)
    _, cz_second_min = _schmidt_extrema(gates.control_c_phase(), args.samples, rng)
    checks = {
        "decomposition_distance": decomp_dist,
        "parity_self_test": True,  # relative_phase_3() raises if it fails
        "all_unitary": all(is_unitary(g.matrix, 1e-12) for g in family),
        "relative_2_second_coefficient_max": rel2_second,
        "relative_3_second_coefficient_max": rel3_second,
        "control_c_second_coefficient_min": cz_second_min,
        "samples": args.samples,
    }
    passed = (
        decomp_dist <= 1e-12
        and checks["all_unitary"]
        and rel2_second <= _PRODUCT_TOL
        and rel3_second <= _PRODUCT_TOL
        and cz_second_min >= _ENTANGLED_MIN
    )
    results = {
        "gates": {g.label: g.to_json_matrix() for g in family},
        "checks": checks,
    }
    _emit(_json_report(config, results, decomp_dist, passed), args.out)
    return 0 if passed else 1


def cmd_scan(args) -> int:
    params, config = _coupler_setup(args)
    config["t"] = None
    hits = analysis.scan_times(
        params, params.layout(), args.t_min, args.t_max, args.steps, args.tol
    )
    # A scan that finds no gate has measured nothing to pass.
    passed = bool(hits)
    if args.format == "csv":
        rows = [["t", "label", "distance"]]
        rows += [[repr(h.t), h.label, repr(h.distance)] for h in hits]
        _emit(_csv_text(rows), args.out)
    else:
        results = {
            "t_min": args.t_min,
            "t_max": args.t_max,
            "steps": args.steps,
            "hits": [{"t": h.t, "label": h.label, "distance": h.distance} for h in hits],
        }
        worst = max((h.distance for h in hits), default=0.0)
        _emit(_json_report(config, results, worst, passed), args.out)
    return 0 if passed else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-outer", type=int, default=1, help="number of outer modes N")
    parser.add_argument(
        "--g", type=float, nargs="+", default=None,
        help="coupling(s); one value is broadcast to all outer modes",
    )
    parser.add_argument("--w", type=float, default=None, help="mode angular frequency")
    parser.add_argument(
        "--nmax", type=int, default=None, help="highest excitation block K checked"
    )
    parser.add_argument("--time", type=float, default=None, help="interaction time")
    parser.add_argument("--k", type=int, default=1, help="gate-time winding number")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="couplersim",
        description="Verify the coupler propagator factorization and its phase gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="factorization and algebra residuals")
    _add_common(p_verify)
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.set_defaults(func=cmd_verify, w=0.7, nmax=3, time=1.0)

    p_table = sub.add_parser("truth-table", help="computational-basis phase table")
    _add_common(p_table)
    p_table.add_argument("--tol", type=float, default=1e-9)
    p_table.add_argument("--method", choices=("exact", "factorized"), default="exact")
    p_table.set_defaults(func=cmd_truth_table)

    p_gates = sub.add_parser("gates", help="print the gate family and its identities")
    _add_common(p_gates)
    p_gates.add_argument("--tol", type=float, default=1e-10)
    p_gates.add_argument("--theta", type=float, default=None)
    p_gates.add_argument("--samples", type=int, default=100)
    p_gates.set_defaults(func=cmd_gates)

    p_scan = sub.add_parser("scan", help="locate gate times on a grid")
    _add_common(p_scan)
    p_scan.add_argument("--tol", type=float, default=0.05)
    p_scan.add_argument("--t-min", type=float, default=0.1)
    p_scan.add_argument("--t-max", type=float, default=13.0)
    p_scan.add_argument("--steps", type=int, default=5000)
    p_scan.set_defaults(func=cmd_scan)

    return parser


def _require_finite_flags(args) -> None:
    for name in _FINITE_FLAGS:
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _require_finite_flags(args)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
