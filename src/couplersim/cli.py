"""Command-line front end emitting machine-readable verification reports.

Each subcommand takes only the flags it reads, and each setting has one
owner: --nmax, the highest excitation block, belongs to verify alone, which
passes it as its layout; the coupler is (w, couplings), and truth-table and
scan build the blocks K <= N+1 from N, at w = ||g|| / 2 unless --w is set.
The library measures; every verdict and report row is made here: each
command builds a list of row dicts, which JSON takes as they are and CSV
writes under a header, floats as their repr.  The parser is built once, at
import, and refuses a non-finite float flag and a negative --tol.  Exit
codes: 0 all checks passed, 1 a numeric check failed, 2 configuration or
precondition error, including a flag the subcommand does not take, an --out
that cannot be written, and a floating-point overflow, invalid operation or
division by zero, which numpy raises while a command runs.  Reports go to
stdout (or --out); diagnostics to stderr.  Reports are byte-stable for
identical configuration.  A worst case that is not finite is refused with
exit 2.  gates checks the entanglement dichotomy on --samples random product
states per gate, drawn, applied and decomposed as one stack.
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
from .analysis import MIN_MAGNITUDE, gate_time, random_product_states, schmidt
from .engine import finite_max, is_unitary

SCHEMA_VERSION = 1

_DICHOTOMY_SEED = 1
_PRODUCT_TOL = 1e-10
# Product inputs with every amplitude magnitude >= m leave control-C with
# concurrence C = 4|a0 a1 b0 b1| >= 4 m^2 (1 - m^2), so a second Schmidt
# coefficient >= sqrt((1 - sqrt(1 - C^2)) / 2), less roundoff at the floor.
_CONCURRENCE_MIN = 4.0 * MIN_MAGNITUDE**2 * (1.0 - MIN_MAGNITUDE**2)
_ENTANGLED_MIN = math.sqrt((1.0 - math.sqrt(1.0 - _CONCURRENCE_MIN**2)) / 2.0) - 1e-12


def _finite_float(text: str) -> float:
    """The argparse type of every float flag."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _tolerance(text: str) -> float:
    """The argparse type of every --tol: finite and not negative."""
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


def _couplings_from_args(args) -> tuple[float, ...]:
    if args.n_outer < 1:
        raise ValueError("--n-outer must be at least 1")
    g = args.g if args.g is not None else [1.0]
    if len(g) == 1:
        return (g[0],) * args.n_outer
    if len(g) != args.n_outer:
        raise ValueError(
            f"--g takes 1 or {args.n_outer} values for --n-outer {args.n_outer}, got {len(g)}"
        )
    return tuple(g)


def _coupler_setup(args) -> tuple[coupler.CouplerParams, dict]:
    """CouplerParams from the coupler flags, and the report's config for them.

    An unset --w takes ||g|| / 2, the lowest free phase compatible with the
    first gate time 2 pi / ||g||; verify sets its own default in the parser,
    so only truth-table and scan reach it.
    """
    couplings = _couplings_from_args(args)
    w = args.w if args.w is not None else math.hypot(*couplings) / 2.0
    params = coupler.CouplerParams(w=w, couplings=couplings)
    config = {
        "command": args.command,
        "n_outer": args.n_outer,
        "couplings": list(couplings),
        "w": w,
        "tol": args.tol,
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


def _csv_text(header: list[str], rows: list[dict]) -> str:
    """The header line, then one line per row dict; a float is written as its repr."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def cmd_verify(args) -> int:
    params, config = _coupler_setup(args)
    config.update(n_max=args.nmax, t=args.time)
    report = coupler.verify_factorization(params, params.layout(args.nmax), args.time)
    algebra_residual = coupler.algebra_check(params)
    max_error = max(report.max_block_distance, algebra_residual)
    passed = max_error <= args.tol
    results = {
        "factorization": {
            "block_distances": [[k, d] for k, d in report.block_distances],
            "max_block_distance": report.max_block_distance,
            "sqrt_gamma": report.sqrt_gamma,
            "singularity_margin": report.singularity_margin,
        },
        "algebra": {"residual": algebra_residual},
    }
    _emit(_json_report(config, results, max_error, passed), args.out)
    return 0 if passed else 1


def cmd_truth_table(args) -> int:
    params, config = _coupler_setup(args)
    t = args.time if args.time is not None else gate_time(params)
    config.update(format=args.format, t=t)
    amplitudes, leakage = analysis.truth_table(params, t, method=args.method)
    errors = [leakage]
    rows = []
    for code, amp in enumerate(amplitudes.tolist()):
        label = format(code, f"0{params.n_outer + 1}b")
        fid = min(1.0, abs(amp))  # roundoff can push |amp| epsilon past 1
        phase = amp / abs(amp) if fid > 1e-12 else 1.0 + 0.0j
        # Phase pattern of the relative gate family: (-1)^K on each input.
        expected = -1.0 if label.count("1") % 2 else 1.0
        errors += [abs(phase - expected), 1.0 - fid]
        rows.append(
            {"input": label, "phase_re": phase.real, "phase_im": phase.imag, "fidelity": fid}
        )
    max_error = finite_max(errors, "truth-table max_error")
    passed = max_error <= args.tol
    if args.format == "csv":
        _emit(_csv_text(["input", "phase_re", "phase_im", "fidelity"], rows), args.out)
    else:
        results = {"rows": rows, "leakage": leakage, "t": t, "method": args.method}
        _emit(_json_report(config, results, max_error, passed), args.out)
    return 0 if passed else 1


def _second_coefficients(gate: gates.QubitGate, samples: int, rng) -> np.ndarray:
    """Second Schmidt coefficient of random product inputs after the gate, per cut.

    All samples are drawn, mapped by the gate and decomposed as one stack.
    """
    states = gate.apply(random_product_states(rng, gate.qubit_count, samples))
    return np.stack([schmidt(states, cut)[:, 1] for cut in range(1, gate.qubit_count)])


def cmd_gates(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    family = [
        gates.one_qubit_phase(args.theta),
        gates.control_c_phase(),
        gates.control_phase_shift(),
        gates.swap_gate(),
        gates.relative_phase_2(args.theta),
        gates.relative_phase_n(3),
    ]
    config = {
        "command": "gates",
        "theta": args.theta,
        "samples": args.samples,
    }
    decomposition = gates.compose(
        [gates.control_phase_shift(), gates.swap_gate(),
         gates.control_phase_shift(), gates.swap_gate()]
    )
    decomp_dist = float(
        np.linalg.norm(decomposition.matrix - gates.relative_phase_2(math.pi).matrix)
    )
    rng = np.random.default_rng(_DICHOTOMY_SEED)
    rel2 = _second_coefficients(gates.relative_phase_2(math.pi), args.samples, rng)
    rel3 = _second_coefficients(gates.relative_phase_n(3), args.samples, rng)
    cz = _second_coefficients(gates.control_c_phase(), args.samples, rng)
    checks = {
        "decomposition_distance": decomp_dist,
        "all_unitary": all(is_unitary(g.matrix, 1e-12) for g in family),
        "relative_2_second_coefficient_max": float(rel2.max()),
        "relative_3_second_coefficient_max": float(rel3.max()),
        "control_c_second_coefficient_min": float(cz.min()),
        "samples": args.samples,
    }
    passed = (
        decomp_dist <= 1e-12
        and checks["all_unitary"]
        and checks["relative_2_second_coefficient_max"] <= _PRODUCT_TOL
        and checks["relative_3_second_coefficient_max"] <= _PRODUCT_TOL
        and checks["control_c_second_coefficient_min"] >= _ENTANGLED_MIN
    )
    results = {
        "gates": {g.label: g.to_json_matrix() for g in family},
        "checks": checks,
    }
    _emit(_json_report(config, results, decomp_dist, passed), args.out)
    return 0 if passed else 1


def cmd_scan(args) -> int:
    params, config = _coupler_setup(args)
    config.update(format=args.format)
    hits = analysis.scan_times(
        params, t_min=args.t_min, t_max=args.t_max, steps=args.steps, tol=args.tol
    )
    # A scan that finds no gate has measured nothing to pass.
    passed = bool(hits)
    rows = [h._asdict() for h in hits]
    if args.format == "csv":
        _emit(_csv_text(list(analysis.ScanHit._fields), rows), args.out)
    else:
        results = {
            "t_min": args.t_min,
            "t_max": args.t_max,
            "steps": args.steps,
            "hits": rows,
        }
        worst = max((h.distance for h in hits), default=0.0)
        _emit(_json_report(config, results, worst, passed), args.out)
    return 0 if passed else 1


def _add_coupler(parser: argparse.ArgumentParser) -> None:
    """The flags _coupler_setup reads."""
    parser.add_argument("--n-outer", type=int, default=1, help="number of outer modes N")
    parser.add_argument(
        "--g", type=_finite_float, nargs="+", default=None,
        help="coupling(s); one value is broadcast to all outer modes",
    )
    parser.add_argument("--w", type=_finite_float, default=None, help="mode angular frequency")


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each holding only the flags that command reads."""
    parser = argparse.ArgumentParser(
        prog="couplersim",
        description="Verify the coupler propagator factorization and its phase gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="factorization and algebra residuals")
    _add_coupler(p_verify)
    p_verify.add_argument(
        "--nmax", type=int, default=3, help="highest excitation block K checked"
    )
    p_verify.add_argument("--time", type=_finite_float, default=1.0, help="interaction time")
    p_verify.add_argument("--tol", type=_tolerance, default=1e-8)
    p_verify.set_defaults(func=cmd_verify, w=0.7)

    p_table = sub.add_parser("truth-table", help="computational-basis phase table")
    _add_coupler(p_table)
    p_table.add_argument(
        "--time", type=_finite_float, default=None,
        help="interaction time (default: the gate time)",
    )
    p_table.add_argument("--tol", type=_tolerance, default=1e-9)
    p_table.add_argument("--method", choices=("exact", "factorized"), default="exact")
    p_table.set_defaults(func=cmd_truth_table)

    p_gates = sub.add_parser("gates", help="print the gate family and its identities")
    p_gates.add_argument("--theta", type=_finite_float, default=math.pi)
    p_gates.add_argument("--samples", type=int, default=100)
    p_gates.set_defaults(func=cmd_gates)

    p_scan = sub.add_parser("scan", help="locate gate times on a grid")
    _add_coupler(p_scan)
    p_scan.add_argument("--tol", type=_tolerance, default=0.05)
    p_scan.add_argument("--t-min", type=_finite_float, default=0.1)
    p_scan.add_argument("--t-max", type=_finite_float, default=13.0)
    p_scan.add_argument("--steps", type=int, default=5000)
    p_scan.set_defaults(func=cmd_scan)

    for p in (p_table, p_scan):
        p.add_argument("--format", choices=("json", "csv"), default="json")
    for p in (p_verify, p_table, p_gates, p_scan):
        p.add_argument(
            "--out", default=None, help="write the report here instead of stdout"
        )
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except FloatingPointError as exc:
        print(f"error: {exc}; the configuration is out of floating-point range", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
