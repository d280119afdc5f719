"""Seeded operation streams for the three benchmark workloads.

Each operation is one ``couplersim`` command line plus what its report must
show.  Inputs are drawn from each command's documented domain with a
``random.Random`` seeded by the benchmark's ``--seed``, so the same seed gives
the same argv stream on every machine.  Nothing here imports the program.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, NamedTuple

# verify-dense alternates these (N, n_max): dim 4**4 = 256 and 3**5 = 243.
VERIFY_SIZES = ((3, 3), (4, 2))
VERIFY_TOL = 1e-8
# sqrt(gamma) is drawn from [0, SQRT_GAMMA_MAX] at least POLE_MARGIN from the
# poles pi and 3 pi of the tan coefficient.
SQRT_GAMMA_MAX = 3.0 * math.pi - 0.2
POLE_MARGIN = 0.2

# scan alternates N = 1 (dim 9) and N = 2 (dim 64).  Each op scans exactly one
# winding T1 = 2 pi / (g sqrt N), so its cost does not depend on the drawn g.
# At --tol 0.05 a gate time is a hit for |t - t_k| <= 0.0042 T1 (N = 1) and
# <= 0.0025 T1 (N = 2); both grid steps (T1/1499, T1/299) are shorter than
# that window's full width, so every gate time in range is hit.  The point
# counts give both sizes about the same cost per op.
SCAN_STEPS = {1: 1500, 2: 300}
SCAN_TOL = 0.05

# The README's command-line examples other than scan.
README_REPORTS = (
    ("verify",),
    ("verify", "--n-outer", "2", "--g", "0.3", "0.9", "--w", "1.0", "--time", "0.9"),
    ("truth-table",),
    ("truth-table", "--n-outer", "2", "--format", "csv"),
    ("truth-table", "--method", "factorized"),
    ("gates", "--theta", "1.5707963268"),
)

# Ops per full rotation of each workload; the traced run replays one rotation.
CYCLE = {"verify-dense": len(VERIFY_SIZES), "scan": len(SCAN_STEPS), "cli-reports": len(README_REPORTS)}

WORKLOADS = tuple(CYCLE)


class Op(NamedTuple):
    """One command line and the facts its output check needs."""

    argv: tuple[str, ...]
    expect: dict


def _num(x: float) -> str:
    return repr(float(x))


def _verify_op(rng: random.Random, i: int) -> Op:
    n_outer, n_max = VERIFY_SIZES[i % len(VERIFY_SIZES)]
    g = [rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.5) for _ in range(n_outer)]
    w = rng.uniform(0.2, 2.0)
    while True:
        sqrt_gamma = rng.uniform(0.0, SQRT_GAMMA_MAX)
        if abs(sqrt_gamma - math.pi) >= POLE_MARGIN:
            break
    t = sqrt_gamma / math.sqrt(sum(x * x for x in g))
    argv = (
        "verify", "--n-outer", str(n_outer), "--nmax", str(n_max),
        "--g", *map(_num, g), "--w", _num(w), "--time", _num(t),
        "--tol", _num(VERIFY_TOL),
    )
    return Op(argv, {"kind": "verify", "n_max": n_max, "tol": VERIFY_TOL})


def _scan_op(rng: random.Random, i: int) -> Op:
    n_outer = tuple(SCAN_STEPS)[i % len(SCAN_STEPS)]
    steps = SCAN_STEPS[n_outer]
    g = rng.uniform(0.5, 1.5)
    winding = 2.0 * math.pi / (g * math.sqrt(n_outer))
    # One winding holding exactly one gate time, k = 1 or k = 2, at least
    # 0.2 T1 from either end of the range.
    start = rng.uniform(0.2, 0.8) + rng.choice((0, 1))
    t_min, t_max = start * winding, (start + 1.0) * winding
    argv = (
        "scan", "--n-outer", str(n_outer), "--g", _num(g),
        "--t-min", _num(t_min), "--t-max", _num(t_max), "--steps", str(steps),
        "--tol", _num(SCAN_TOL),
    )
    expect = {
        "kind": "scan", "n_outer": n_outer, "g": g, "t_min": t_min, "t_max": t_max,
        "steps": steps, "tol": SCAN_TOL,
    }
    return Op(argv, expect)


def _readme_expect(argv: tuple[str, ...]) -> dict:
    """Expectations of a README example, from the CLI's documented defaults."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    n_outer = int(opts.get("--n-outer", "1"))
    if argv[0] == "verify":
        return {"kind": "verify", "n_max": 3, "tol": 1e-8}
    if argv[0] == "truth-table":
        return {
            "kind": "truth-table", "n_outer": n_outer, "tol": 1e-9,
            "format": opts.get("--format", "json"),
        }
    return {"kind": "gates", "samples": 100}


def operations(workload: str, seed: int) -> Iterator[Op]:
    """Endless op stream of a workload; the same seed gives the same stream."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-dense":
        return (_verify_op(rng, i) for i in itertools.count())
    if workload == "scan":
        return (_scan_op(rng, i) for i in itertools.count())
    if workload == "cli-reports":
        return _reports(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _reports(rng: random.Random) -> Iterator[Op]:
    # Every rotation runs each example once, in a seeded order.
    while True:
        order = list(README_REPORTS)
        rng.shuffle(order)
        for argv in order:
            yield Op(argv, _readme_expect(argv))
