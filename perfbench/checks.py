"""Output checks that re-derive each verdict from the report's own numbers.

A check never trusts the report's ``"passed"`` field.  It returns ``None``
when the output is correct and a one-line reason otherwise.  Any non-finite
number anywhere in a report fails the op, so a NaN can never pass by being
dropped from a ``max``.
"""

from __future__ import annotations

import csv
import io
import json
import math

# Thresholds the gates command documents for its entanglement dichotomy.
_PRODUCT_TOL = 1e-10
_ENTANGLED_MIN = 0.05
_DECOMPOSITION_TOL = 1e-12


class CheckFailed(Exception):
    pass


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _finite(x) -> float:
    _require(isinstance(x, (int, float)) and not isinstance(x, bool), f"not a number: {x!r}")
    _require(math.isfinite(x), f"non-finite value {x!r}")
    return float(x)


def _all_finite(node) -> None:
    """Fail on any non-finite number anywhere in a parsed report."""
    if isinstance(node, dict):
        for value in node.values():
            _all_finite(value)
    elif isinstance(node, list):
        for value in node:
            _all_finite(value)
    elif isinstance(node, float):
        _finite(node)


def _parity_sign(bits: str) -> float:
    return -1.0 if bits.count("1") % 2 else 1.0


def _check_verify(report: dict, expect: dict) -> None:
    fact = report["results"]["factorization"]
    blocks = fact["block_distances"]
    n_max, tol = expect["n_max"], expect["tol"]
    _require(
        [k for k, _ in blocks] == list(range(n_max + 1)),
        f"expected blocks K = 0..{n_max}, got {[k for k, _ in blocks]}",
    )
    for k, d in blocks:
        _require(_finite(d) <= tol, f"block K={k} distance {d!r} exceeds {tol}")
    _finite(report["results"]["algebra"]["residual"])


def _check_truth_rows(rows: list[tuple[str, float, float, float]], n_modes: int, tol: float) -> None:
    inputs = [r[0] for r in rows]
    expected = [format(code, f"0{n_modes}b") for code in range(2**n_modes)]
    _require(inputs == expected, f"expected inputs {expected}, got {inputs}")
    for bits, re_, im_, fid in rows:
        err = max(math.hypot(_finite(re_) - _parity_sign(bits), _finite(im_)), 1.0 - _finite(fid))
        _require(err <= tol, f"input {bits}: phase ({re_}, {im_}), fidelity {fid} off (-1)^K by {err:.3g}")


def _check_truth_json(report: dict, expect: dict) -> None:
    res = report["results"]
    rows = [(r["input"], r["phase_re"], r["phase_im"], r["fidelity"]) for r in res["rows"]]
    _check_truth_rows(rows, expect["n_outer"] + 1, expect["tol"])
    _require(_finite(res["leakage"]) <= expect["tol"], f"leakage {res['leakage']!r} exceeds tol")


def _check_truth_csv(text: str, expect: dict) -> None:
    table = list(csv.reader(io.StringIO(text)))
    _require(table[:1] == [["input", "phase_re", "phase_im", "fidelity"]], "bad csv header")
    rows = [(r[0], float(r[1]), float(r[2]), float(r[3])) for r in table[1:]]
    _check_truth_rows(rows, expect["n_outer"] + 1, expect["tol"])


def _gate_label(n_outer: int, k: int) -> str:
    """Family gate the coupler realizes at the k-th gate time, default w."""
    if k % 2 == 0:
        return "identity"
    return f"relative_phase_2({math.pi:g})" if n_outer == 1 else "relative_phase_3"


def hit_runs(ts: list[float], t_min: float, step: float) -> list[tuple[int, int]]:
    """Group hit times into runs of adjacent grid indices, as (first, last)."""
    runs: list[tuple[int, int]] = []
    for t in ts:
        i = round((t - t_min) / step)
        if runs and i == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], i)
        else:
            runs.append((i, i))
    return runs


def _check_scan(report: dict, expect: dict) -> None:
    hits = report["results"]["hits"]
    n_outer, g, tol = expect["n_outer"], expect["g"], expect["tol"]
    t_min, t_max, steps = expect["t_min"], expect["t_max"], expect["steps"]
    step = (t_max - t_min) / (steps - 1)
    winding = 2.0 * math.pi / (g * math.sqrt(n_outer))
    ts = [_finite(h["t"]) for h in hits]
    _require(ts == sorted(ts), "hits are not ordered by t")
    for h, t in zip(hits, ts):
        _require(_finite(h["distance"]) <= tol, f"hit at t={t!r} has distance {h['distance']!r}")
        i = round((t - t_min) / step)
        _require(0 <= i < steps and abs(t - (t_min + i * step)) <= 1e-9 * step + 1e-12 * abs(t),
                 f"hit t={t!r} is not a grid point")
    labels = {round((t - t_min) / step): h["label"] for h, t in zip(hits, ts)}
    bracketed = set()
    for first, last in hit_runs(ts, t_min, step):
        lo, hi = t_min + (first - 1) * step, t_min + (last + 1) * step
        ks = [k for k in range(math.ceil(lo / winding), math.floor(hi / winding) + 1) if k >= 1]
        _require(len(ks) == 1, f"hit run [{lo:.6g}, {hi:.6g}] brackets gate times k={ks}")
        k = ks[0]
        want = _gate_label(n_outer, k)
        for i in range(first, last + 1):
            _require(labels[i] == want, f"hit at k={k} labelled {labels[i]!r}, expected {want!r}")
        bracketed.add(k)
    predicted = {
        k for k in range(math.ceil(t_min / winding), math.floor(t_max / winding) + 1)
        if k >= 1
    }
    _require(predicted <= bracketed, f"gate times k={sorted(predicted - bracketed)} were not hit")


def _check_gates(report: dict, expect: dict) -> None:
    checks = report["results"]["checks"]
    _require(checks["samples"] == expect["samples"] >= 1, f"samples {checks['samples']!r}")
    _require(checks["all_unitary"] is True, "a family gate is not unitary")
    _require(_finite(checks["decomposition_distance"]) <= _DECOMPOSITION_TOL, "shift-swap decomposition off")
    for key in ("relative_2_second_coefficient_max", "relative_3_second_coefficient_max"):
        _require(_finite(checks[key]) <= _PRODUCT_TOL, f"{key} = {checks[key]!r}: relative gate entangles")
    cz = _finite(checks["control_c_second_coefficient_min"])
    _require(cz >= _ENTANGLED_MIN, f"control-C second coefficient {cz!r} below {_ENTANGLED_MIN}")
    _require(len(report["results"]["gates"]) == 6, "gate family incomplete")


_JSON_CHECKS = {
    "verify": _check_verify,
    "truth-table": _check_truth_json,
    "scan": _check_scan,
    "gates": _check_gates,
}


def check(expect: dict, code: int, out: str) -> str | None:
    """None when an op's exit code and output are correct, else the reason."""
    try:
        _require(code == 0, f"exit code {code}")
        if expect.get("format") == "csv":
            _check_truth_csv(out, expect)
        else:
            report = json.loads(out)
            _all_finite(report)
            _JSON_CHECKS[expect["kind"]](report, expect)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None


def _nan_variants(expect: dict, out: str):
    """Yield copies of a correct output with one number replaced by NaN.

    Every numeric JSON leaf, or every numeric CSV cell, is replaced in turn.
    """
    if expect.get("format") == "csv":
        table = list(csv.reader(io.StringIO(out)))
        for r, row in enumerate(table[1:], start=1):
            for c in range(1, len(row)):
                bad = [list(x) for x in table]
                bad[r][c] = "nan"
                buf = io.StringIO()
                csv.writer(buf, lineterminator="\n").writerows(bad)
                yield buf.getvalue()
        return
    report = json.loads(out)
    for path in _numeric_paths(report, ()):
        bad = json.loads(out)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = math.nan
        yield json.dumps(bad)


def _numeric_paths(node, path):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path
        return
    for key, value in items:
        yield from _numeric_paths(value, path + (key,))


def nan_self_test(expect: dict, out: str) -> str | None:
    """None when the check rejects every NaN-carrying copy of ``out``."""
    n = 0
    for n, bad in enumerate(_nan_variants(expect, out), start=1):
        if check(expect, 0, bad) is None:
            return f"{expect['kind']} check accepted a report carrying NaN (variant {n})"
    return None if n else f"{expect['kind']} output has no numbers to corrupt"
