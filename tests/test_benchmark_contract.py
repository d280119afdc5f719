"""The benchmark reads the program's call signatures and labels; hold them to it.

perfbench/tracer.py counts work from the arguments of boundary calls:
verify_factorization's layout (argument 1), the block H that
engine.expm_hermitian takes as argument 0, and scan_times' range, by
position or by keyword.  This runs one verify and one scan under the tracer
and checks the counters those readings feed.  perfbench/checks.py expects
each scan hit near the k-th gate time to carry the label of the gate there;
scans around the first two gate times at N = 1 and 2 hold those labels.
"""

import importlib
import json
import math
import sys
from pathlib import Path

import pytest

from couplersim import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# Top-level modules the tracer brings in from perfbench/.
_BENCH_MODULES = ("tracer", "checks")


@pytest.fixture
def bench_import(monkeypatch):
    """importlib.import_module over perfbench/, its modules dropped after the test."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in _BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module
    for name in _BENCH_MODULES:
        sys.modules.pop(name, None)


@pytest.fixture
def tracer(bench_import):
    """perfbench/tracer.py, imported for this test only."""
    return bench_import("tracer")


@pytest.fixture
def checks(bench_import):
    """perfbench/checks.py, imported for this test only."""
    return bench_import("checks")


def test_tracer_reads_the_layout_and_the_scan_range(tracer, capsys):
    with tracer.Tracer() as traced:
        assert cli.main(["verify", "--n-outer", "3", "--nmax", "3"]) == 0
        assert cli.main(["scan", "--t-min", "5", "--t-max", "7", "--steps", "401"]) == 0
    capsys.readouterr()
    assert traced.counters["coupler.dense_states"] == 35
    # verify's blocks K = 0..3 of 4 modes have dims 1, 4, 10 and 20
    assert traced.counters["engine.n3_sum"] == 1 + 4**3 + 10**3 + 20**3
    assert traced.counters["analysis.scan_points"] == 401
    assert traced.counters["analysis.gate_times_found"] == 1


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n_outer", [1, 2])
def test_scan_labels_are_the_ones_the_checks_expect(checks, capsys, n_outer, k):
    # Default couplings 1 and w = ||g|| / 2: the k-th gate time is 2 pi k / sqrt(N).
    t_gate = 2.0 * math.pi * k / math.sqrt(n_outer)
    argv = [
        "scan", "--n-outer", str(n_outer),
        "--t-min", str(t_gate - 0.1), "--t-max", str(t_gate + 0.1), "--steps", "201",
    ]
    assert cli.main(argv) == 0
    hits = json.loads(capsys.readouterr().out)["results"]["hits"]
    assert hits
    assert {h["label"] for h in hits} == {checks._gate_label(n_outer, k)}
