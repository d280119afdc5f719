"""The benchmark's tracer reads the program's call signatures; hold them to it.

perfbench/tracer.py counts work from the arguments of boundary calls:
verify_factorization's layout (argument 1), the block H that
engine.expm_hermitian takes as argument 0, and scan_times' range, by
position or by keyword.  This runs one verify and one scan under the tracer
and checks the counters those readings feed.
"""

import importlib
import sys
from pathlib import Path

import pytest

from couplersim import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# Top-level modules the tracer brings in from perfbench/.
_BENCH_MODULES = ("tracer", "checks")


@pytest.fixture
def tracer(monkeypatch):
    """perfbench/tracer.py, imported for this test only."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in _BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("tracer")
    for name in _BENCH_MODULES:
        sys.modules.pop(name, None)


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
