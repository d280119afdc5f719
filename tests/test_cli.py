import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from couplersim.analysis import gate_time
from couplersim.cli import _json_report, main
from couplersim.coupler import CouplerParams

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_defaults_pass(self, capsys):
        code, out, err = run(capsys, "verify")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["passed"] is True
        assert report["max_error"] <= 1e-8
        assert report["results"]["algebra"]["residual"] <= 1e-12
        assert err == ""

    def test_singular_time_is_config_error(self, capsys):
        code, out, err = run(capsys, "verify", "--time", str(math.pi))
        assert code == 2
        assert out == ""
        assert "odd" in err and "pi" in err

    def test_zero_time_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--time", "0")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        blocks = report["results"]["factorization"]["block_distances"]
        assert [k for k, _ in blocks] == [0, 1, 2, 3]
        assert report["results"]["algebra"]["residual"] <= 1e-12
        assert err == ""

    def test_zero_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--tol", "0")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_unequal_couplings(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n-outer", "2", "--g", "0.3", "0.9", "--w", "1.0"
        )
        assert code == 0
        assert json.loads(out)["config"]["couplings"] == [0.3, 0.9]

    def test_csv_not_supported(self, capsys):
        code, _, err = run(capsys, "verify", "--format", "csv")
        assert code == 2
        assert "json" in err


class TestTruthTable:
    def test_two_qubit_defaults(self, capsys):
        code, out, _ = run(capsys, "truth-table")
        assert code == 0
        report = json.loads(out)
        rows = {r["input"]: r for r in report["results"]["rows"]}
        assert len(rows) == 4
        for key, sign in (("00", 1), ("11", 1), ("10", -1), ("01", -1)):
            assert rows[key]["phase_re"] == pytest.approx(sign, abs=1e-9)
            assert rows[key]["fidelity"] >= 1 - 1e-9
        assert report["results"]["leakage"] <= 1e-9

    def test_three_qubit_rows(self, capsys):
        code, out, _ = run(capsys, "truth-table", "--n-outer", "2")
        assert code == 0
        report = json.loads(out)
        rows = report["results"]["rows"]
        assert len(rows) == 8
        for row in rows:
            sign = -1 if sum(int(b) for b in row["input"]) % 2 else 1
            assert row["phase_re"] == pytest.approx(sign, abs=1e-9)

    def test_factorized_method(self, capsys):
        code, out, _ = run(capsys, "truth-table", "--method", "factorized")
        assert code == 0
        assert json.loads(out)["results"]["method"] == "factorized"

    def test_free_phase_mismatch(self, capsys):
        code, out, err = run(capsys, "truth-table", "--w", str(1.0 / 3.0))
        assert code == 2
        assert out == ""
        assert "odd multiple" in err

    def test_negative_coupling_evolves_forward(self, capsys):
        code, out, _ = run(capsys, "truth-table", "--g", "-1")
        assert code == 0
        report = json.loads(out)
        assert report["config"]["t"] == pytest.approx(2.0 * math.pi, abs=1e-12)
        assert report["config"]["w"] == pytest.approx(0.5, abs=1e-15)
        assert report["passed"] is True

    def test_nmax_below_mode_count_is_config_error(self, capsys):
        code, out, err = run(capsys, "truth-table", "--nmax", "1")
        assert code == 2
        assert out == ""
        assert "outside the basis" in err

    @pytest.mark.parametrize(
        "couplings", [("1", "-1"), ("0.3", "0.9", "-0.5")], ids=" ".join
    )
    def test_unequal_couplings(self, capsys, couplings):
        code, out, err = run(
            capsys, "truth-table", "--n-outer", str(len(couplings)), "--g", *couplings
        )
        assert code == 0, err
        report = json.loads(out)
        norm = math.sqrt(sum(float(g) ** 2 for g in couplings))
        assert report["config"]["t"] == pytest.approx(2.0 * math.pi / norm, abs=1e-12)
        rows = report["results"]["rows"]
        assert len(rows) == 2 ** (len(couplings) + 1)
        for row in rows:
            sign = -1 if row["input"].count("1") % 2 else 1
            assert row["phase_re"] == pytest.approx(sign, abs=1e-9)
        assert report["passed"] is True

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "truth-table", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "input,phase_re,phase_im,fidelity"
        assert len(lines) == 5


class TestGates:
    def test_default_pass(self, capsys):
        code, out, _ = run(capsys, "gates")
        assert code == 0
        report = json.loads(out)
        checks = report["results"]["checks"]
        assert checks["decomposition_distance"] <= 1e-12
        assert checks["parity_self_test"] is True
        assert checks["control_c_second_coefficient_min"] >= 0.05
        assert checks["relative_2_second_coefficient_max"] <= 1e-10

    def test_theta_pi_over_2(self, capsys):
        code, out, _ = run(capsys, "gates", "--theta", str(math.pi / 2.0))
        assert code == 0
        gates = json.loads(out)["results"]["gates"]
        label = next(k for k in gates if k.startswith("relative_phase_2"))
        mat = np.array([[complex(re, im) for re, im in row] for row in gates[label]])
        np.testing.assert_allclose(mat, np.diag([1, 1j, 1j, 1]), atol=1e-12)

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_is_config_error(self, capsys, samples):
        code, out, err = run(capsys, "gates", "--samples", samples)
        assert code == 2
        assert out == ""
        assert "samples" in err


class TestScan:
    def test_finds_gate_times(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--t-min", "5.5", "--t-max", "13", "--steps", "1200"
        )
        assert code == 0
        hits = json.loads(out)["results"]["hits"]
        labels = {h["label"] for h in hits}
        assert any(lbl.startswith("relative_phase_2") for lbl in labels)
        assert "identity" in labels

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--t-min", "6.0", "--t-max", "6.6", "--steps", "200",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,label,distance"
        assert len(lines) > 1

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_no_hits_fails(self, capsys, fmt):
        code, out, _ = run(
            capsys, "scan", "--t-min", "0.1", "--t-max", "1", "--steps", "50",
            "--format", fmt,
        )
        assert code == 1
        if fmt == "json":
            report = json.loads(out)
            assert report["results"]["hits"] == []
            assert report["passed"] is False
        else:
            assert out.strip().splitlines() == ["t,label,distance"]

    def test_unequal_couplings_hit_the_gate_time(self, capsys):
        # Default w with unequal couplings; the grid step (0.03) is wider than
        # the hit window, so each hit is the grid point next to the gate time.
        steps = 100
        step = (8.0 - 5.0) / (steps - 1)
        code, out, _ = run(
            capsys, "scan", "--n-outer", "2", "--g", "0.3", "0.9",
            "--t-min", "5", "--t-max", "8", "--steps", str(steps),
        )
        assert code == 0
        report = json.loads(out)
        cfg = report["config"]
        params = CouplerParams(
            n_outer=2, w=cfg["w"], couplings=tuple(cfg["couplings"]), n_max=cfg["n_max"]
        )
        t_gate = gate_time(params).t
        hits = report["results"]["hits"]
        assert hits
        for hit in hits:
            assert hit["label"] == "relative_phase_3"
            assert abs(hit["t"] - t_gate) <= step

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "scan", "--t-min", "2.0", "--t-max", "1.0")
        assert code == 2
        assert "t_min" in err


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--time"),
            ("verify", "--tol"),
            ("verify", "--w"),
            ("truth-table", "--time"),
            ("truth-table", "--tol"),
            ("truth-table", "--w"),
            ("gates", "--theta"),
            ("gates", "--tol"),
            ("scan", "--t-min"),
            ("scan", "--t-max"),
            ("scan", "--tol"),
        ],
        ids=" ".join,
    )
    def test_config_error(self, capsys, argv, value):
        command, flag = argv
        code, out, err = run(capsys, command, f"{flag}={value}")
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_nan_time_is_not_a_pass(self, capsys):
        code, out, _ = run(capsys, "truth-table", "--time", "nan")
        assert code == 2
        assert "NaN" not in out and "passed" not in out

    def test_report_refuses_nan(self):
        with pytest.raises(ValueError):
            _json_report({}, {"leakage": math.nan}, 0.0, True)


@pytest.mark.parametrize("command", ["truth-table", "scan"])
def test_winding_below_one_is_config_error(capsys, command):
    code, out, err = run(capsys, command, "--k", "0")
    assert code == 2
    assert out == ""
    assert "--k" in err


def test_reports_are_byte_stable(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--out", str(first)]) == 0
    assert main(["verify", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    g_first, g_second = tmp_path / "ga.json", tmp_path / "gb.json"
    assert main(["gates", "--out", str(g_first)]) == 0
    assert main(["gates", "--out", str(g_second)]) == 0
    assert g_first.read_bytes() == g_second.read_bytes()


def readme_commands() -> list[list[str]]:
    """The couplersim lines of the sh block under "## Command line"."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("couplersim ")
    ]


def test_readme_commands_pass(capsys):
    commands = readme_commands()
    assert len(commands) >= 7
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0, f"couplersim {shlex.join(argv)} exited {code}: {err}"
        assert out
