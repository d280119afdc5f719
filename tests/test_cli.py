import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from couplersim import analysis, cli, coupler
from couplersim.analysis import MIN_MAGNITUDE, gate_time, schmidt
from couplersim.cli import _json_report, main
from couplersim.coupler import CouplerParams
from couplersim.gates import control_c_phase

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage error
        code = exc.code
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

    def test_broken_algebra_fails(self, capsys, monkeypatch):
        # The verdict covers the algebra residual as well as the block
        # distances: a J3 of the wrong sign fails although the factorization
        # holds.
        right = coupler._su2_generators

        def flipped(p):
            j_plus, j3 = right(p)
            return j_plus, -j3

        monkeypatch.setattr(coupler, "_su2_generators", flipped)
        code, out, _ = run(capsys, "verify")
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert report["results"]["factorization"]["max_block_distance"] <= 1e-8
        assert report["max_error"] == report["results"]["algebra"]["residual"] >= 1.0

    def test_unequal_couplings(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n-outer", "2", "--g", "0.3", "0.9", "--w", "1.0"
        )
        assert code == 0
        assert json.loads(out)["config"]["couplings"] == [0.3, 0.9]

    def test_nmax_below_one_is_config_error(self, capsys):
        code, out, err = run(capsys, "verify", "--nmax", "0")
        assert code == 2
        assert out == ""
        assert "n_max" in err

    def test_csv_not_supported(self, capsys):
        # verify has no --format flag: its reports are json only
        code, out, err = run(capsys, "verify", "--format", "csv")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --format csv" in err


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
        # JSON and CSV are two renderings of the same row dicts.
        code, out, _ = run(capsys, "truth-table")
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert [r["input"] for r in rows] == ["00", "01", "10", "11"]
        code, out, _ = run(capsys, "truth-table", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "input,phase_re,phase_im,fidelity"
        assert lines[1:] == [
            ",".join([r["input"], repr(r["phase_re"]), repr(r["phase_im"]), repr(r["fidelity"])])
            for r in rows
        ]

    def test_amplitude_moved_to_another_input_is_leakage(self, capsys, monkeypatch):
        # A rotation by delta inside the one-excitation block moves amplitude
        # delta from 01 to 10; that is leakage delta, not delta^2 = 9e-10,
        # which would pass the default tol of 1e-9.
        delta = 3e-5
        c, s = math.cos(delta), math.sin(delta)
        blocks = [np.eye(1), -np.array([[c, -s], [s, c]]), np.eye(3)]
        monkeypatch.setattr(analysis, "exact_propagator", lambda params, layout, t: blocks)
        code, out, _ = run(capsys, "truth-table")
        assert code == 1
        assert json.loads(out)["results"]["leakage"] == pytest.approx(delta, rel=1e-9)

    def test_tiny_coupling_keeps_its_norm(self, capsys):
        # sum(g^2) underflows to 0 here; ||g|| = 1e-300 does not
        code, out, err = run(capsys, "truth-table", "--g", "1e-300")
        assert code == 0, err
        report = json.loads(out)
        assert report["config"]["w"] == pytest.approx(0.5e-300, rel=1e-15)
        for row in report["results"]["rows"]:
            sign = -1 if row["input"].count("1") % 2 else 1
            assert row["phase_re"] == pytest.approx(sign, abs=1e-9)
        assert report["passed"] is True

    def test_subnormal_coupling_is_config_error(self, capsys):
        # the gate time 2 pi / 1e-320 overflows to inf
        code, out, err = run(capsys, "truth-table", "--g", "1e-320")
        assert code == 2
        assert out == ""
        assert "not finite" in err


class TestGates:
    def test_default_pass(self, capsys):
        code, out, _ = run(capsys, "gates")
        assert code == 0
        report = json.loads(out)
        checks = report["results"]["checks"]
        assert checks["decomposition_distance"] <= 1e-12
        assert checks["control_c_second_coefficient_min"] >= 0.05
        assert checks["relative_2_second_coefficient_max"] <= 1e-10

    def test_theta_pi_over_2(self, capsys):
        code, out, _ = run(capsys, "gates", "--theta", str(math.pi / 2.0))
        assert code == 0
        gates = json.loads(out)["results"]["gates"]
        label = next(k for k in gates if k.startswith("relative_phase_2"))
        mat = np.array([[complex(re, im) for re, im in row] for row in gates[label]])
        np.testing.assert_allclose(mat, np.diag([1, 1j, 1j, 1]), atol=1e-12)

    def test_dichotomy_draws_are_pinned(self, capsys):
        # The stacked draw must consume the stream as one state at a time did;
        # a reordered draw gives 0.0513, close to the 0.05 floor.
        code, out, _ = run(capsys, "gates")
        assert code == 0
        checks = json.loads(out)["results"]["checks"]
        assert checks["control_c_second_coefficient_min"] == pytest.approx(
            0.09611763280683375, rel=1e-12
        )

    def test_thousand_samples_pass(self, capsys):
        # Seed 1 at 1000 samples draws an input that control-C entangles to
        # 0.0487 only: below 0.05, above the bound the sampler's floor
        # guarantees.
        code, out, _ = run(capsys, "gates", "--samples", "1000")
        assert code == 0
        checks = json.loads(out)["results"]["checks"]
        assert cli._ENTANGLED_MIN <= checks["control_c_second_coefficient_min"] < 0.05

    def test_entangled_min_is_the_floor_infimum(self):
        # A product input with every amplitude magnitude at the floor is the
        # least entangled control-C output; it reads the bound, less roundoff.
        m = MIN_MAGNITUDE
        qubit = np.array([m, math.sqrt(1.0 - m * m)], dtype=complex)
        state = control_c_phase().apply(np.kron(qubit, qubit))
        second = float(schmidt(state, 1)[1])
        assert second >= cli._ENTANGLED_MIN
        assert second - cli._ENTANGLED_MIN <= 2e-12
        assert cli._ENTANGLED_MIN + 1e-12 == pytest.approx(0.0198038838612, rel=0, abs=1e-13)

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
        params = CouplerParams(w=cfg["w"], couplings=tuple(cfg["couplings"]))
        t_gate = gate_time(params)
        hits = report["results"]["hits"]
        assert hits
        for hit in hits:
            assert hit["label"] == "relative_phase_3"
            assert abs(hit["t"] - t_gate) <= step

    def test_csv_rows_are_the_json_hits(self, capsys):
        argv = ("scan", "--g", "1", "--w", "3", "--t-min", "1", "--t-max", "2", "--steps", "2001")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        hits = json.loads(out)["results"]["hits"]
        assert {h["label"] for h in hits} == {"swap"}
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["t,label,distance"] + [
            f"{h['t']!r},{h['label']},{h['distance']!r}" for h in hits
        ]

    def test_four_modes_hit_the_parity_gate(self, capsys):
        # N = 3 with equal couplings: the gate time is 2 pi / sqrt(3).
        code, out, err = run(
            capsys, "scan", "--n-outer", "3", "--steps", "2000", "--t-min", "3", "--t-max", "4"
        )
        assert code == 0, err
        hits = json.loads(out)["results"]["hits"]
        assert hits
        for hit in hits:
            assert hit["label"] == "relative_phase_4"
            assert abs(hit["t"] - 2.0 * math.pi / math.sqrt(3.0)) <= 0.006

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
            ("verify", "--g"),
            ("truth-table", "--time"),
            ("truth-table", "--tol"),
            ("truth-table", "--w"),
            ("gates", "--theta"),
            ("scan", "--g"),
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

    @pytest.mark.parametrize("g", ["9e9", "1e160"])
    def test_huge_coupling_is_refused(self, capsys, g):
        # The float spacing at sqrt(gamma) = g exceeds the pole limit, so the
        # distance to a pole, and with it the factorization, is meaningless.
        code, out, err = run(capsys, "verify", "--g", g)
        assert code == 2
        assert out == ""
        assert "float spacing" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--g", "1.7e308"),
            ("verify", "--w", "1.7e308"),
            ("truth-table", "--g", "1.7e308", "--method", "exact"),
            ("truth-table", "--g", "1.7e308", "--method", "factorized"),
            ("scan", "--g", "1e308", "--steps", "50"),
        ],
        ids=" ".join,
    )
    def test_float_overflow_is_config_error(self, capsys, argv):
        # A finite flag whose products overflow is refused with one error
        # line, before any RuntimeWarning or an all-NaN scan grid.
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "out of floating-point range" in err

    def test_huge_coupling_gives_a_finite_report(self, capsys):
        # Below the spacing limit the distance to a pole is resolved; the
        # product loses digits at these angles, which is a finite report of a
        # failed check.  The su(2) relations are checked on g / ||g||.
        for g in ("1e9", "8e9"):
            code, out, err = run(capsys, "verify", "--g", g)
            assert code == 1
            report = json.loads(out)
            assert report["results"]["factorization"]["sqrt_gamma"] == float(g)
            assert report["results"]["algebra"]["residual"] <= 1e-12
            assert err == ""

    @staticmethod
    def _nan_propagator(params, layout, t):
        sizes = [math.comb(k + layout.mode_count - 1, k) for k in range(layout.n_max + 1)]
        return [np.full((n, n), np.nan, dtype=complex) for n in sizes]

    def test_nan_factorization_distance_is_refused(self, capsys, monkeypatch):
        monkeypatch.setattr(coupler, "exact_propagator", self._nan_propagator)
        code, out, err = run(capsys, "verify")
        assert code == 2
        assert out == ""
        assert "factorization block distance is not finite" in err

    def test_nan_algebra_residual_is_refused(self, capsys, monkeypatch):
        def nan_generators(params):
            nan = np.full((params.n_outer + 1,) * 2, np.nan, dtype=complex)
            return nan, nan

        monkeypatch.setattr(coupler, "_su2_generators", nan_generators)
        code, out, err = run(capsys, "verify")
        assert code == 2
        assert out == ""
        assert "algebra residual is not finite" in err

    @pytest.mark.parametrize("method", ["exact", "factorized"])
    def test_nan_truth_table_leakage_is_refused(self, capsys, monkeypatch, method):
        monkeypatch.setattr(analysis, f"{method}_propagator", self._nan_propagator)
        code, out, err = run(capsys, "truth-table", "--method", method)
        assert code == 2
        assert out == ""
        assert "truth-table leakage is not finite" in err

    @pytest.mark.parametrize("row", [0, 3])
    def test_nan_truth_table_error_is_refused(self, capsys, monkeypatch, row):
        # A NaN amplitude behind a finite leakage, first or last among the errors.
        real = analysis.truth_table

        def nan_amplitude(*args, **kwargs):
            amplitudes, leakage = real(*args, **kwargs)
            amplitudes[row] = complex(math.nan, 0.0)
            return amplitudes, leakage

        monkeypatch.setattr(cli.analysis, "truth_table", nan_amplitude)
        code, out, err = run(capsys, "truth-table")
        assert code == 2
        assert out == ""
        assert "truth-table max_error is not finite" in err

    def test_unparsable_float_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--g", "1", "x")
        assert code == 2
        assert out == ""
        assert "argument --g: invalid float value: 'x'" in err

    def test_report_refuses_nan(self):
        with pytest.raises(ValueError):
            _json_report({}, {"leakage": math.nan}, 0.0, True)


@pytest.mark.parametrize(
    "argv",
    [
        ("gates", "--g", "1"),
        ("gates", "--tol", "1e-3"),
        ("scan", "--time", "5"),
        ("scan", "--nmax", "4"),
        ("truth-table", "--nmax", "1"),
        ("truth-table", "--k", "2"),
        ("scan", "--k", "2"),
        ("verify", "--k", "2"),
    ],
    ids=" ".join,
)
def test_flag_the_command_does_not_read_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err


@pytest.mark.parametrize("command", ["verify", "truth-table", "scan"])
def test_negative_tol_is_usage_error(capsys, command):
    # No distance or leakage is below a negative tolerance.
    code, out, err = run(capsys, command, "--tol", "-1")
    assert code == 2
    assert out == ""
    assert "argument --tol: must be at least 0" in err


CORE_CONFIG = {"command", "n_outer", "couplings", "w", "tol"}


@pytest.mark.parametrize(
    "argv,keys",
    [
        pytest.param(("verify",), CORE_CONFIG | {"n_max", "t"}, id="verify"),
        pytest.param(("truth-table",), CORE_CONFIG | {"format", "t"}, id="truth-table"),
        pytest.param(
            ("gates", "--samples", "1"), {"command", "theta", "samples"}, id="gates"
        ),
        pytest.param(
            ("scan", "--t-min", "6", "--t-max", "6.6", "--steps", "50"),
            CORE_CONFIG | {"format"},
            id="scan",
        ),
    ],
)
def test_config_lists_the_command_flags(capsys, argv, keys):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert set(json.loads(out)["config"]) == keys


@pytest.mark.parametrize(
    "argv",
    [("verify", "--n-outer", "0"), ("truth-table", "--n-outer", "0"),
     ("scan", "--n-outer", "-2", "--g", "1", "2")],
    ids=lambda argv: argv[0],
)
def test_n_outer_below_one_is_config_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: --n-outer must be at least 1\n"


def test_reports_are_byte_stable(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--out", str(first)]) == 0
    assert main(["verify", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    g_first, g_second = tmp_path / "ga.json", tmp_path / "gb.json"
    assert main(["gates", "--out", str(g_first)]) == 0
    assert main(["gates", "--out", str(g_second)]) == 0
    assert g_first.read_bytes() == g_second.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ("truth-table", "--format", "csv"),
        ("gates", "--samples", "10"),
        ("scan", "--t-min", "5", "--t-max", "7", "--steps", "401"),
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_report_is_byte_stable(tmp_path, argv):
    first, second = tmp_path / "a.out", tmp_path / "b.out"
    assert main([*argv, "--out", str(first)]) == 0
    assert main([*argv, "--out", str(second)]) == 0
    assert first.read_bytes()
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "argv,target",
    [(("verify",), "."), (("truth-table", "--format", "csv"), "missing/x.csv")],
    ids=["directory", "missing parent"],
)
def test_unwritable_out_is_config_error(capsys, tmp_path, argv, target):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_main_parses_with_the_parser_built_at_import(capsys, monkeypatch):
    def rebuild():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", rebuild)
    for _ in range(2):
        code, out, err = run(capsys, "gates", "--samples", "1")
        assert code == 0, err
        assert out


def readme_flag_table() -> dict[str, set[str]]:
    """Command -> flags, from the README table under "takes only the flags it reads"."""
    section = README.read_text(encoding="utf-8").split("takes only the flags it reads", 1)[1]
    rows = section.split("\n\n", 2)[1].splitlines()[2:]  # past the header and rule
    table = {}
    for row in rows:
        command, flags = (cell.strip().strip("`") for cell in row.strip("|").split("|"))
        table[command] = set(re.findall(r"--[\w-]+(?: \{[^}]*\})?", flags))
    return table


def parser_flag_table() -> dict[str, set[str]]:
    """Command -> flags of each subparser, with their choices as the README writes them."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: {
            f"{opt} {{{','.join(a.choices)}}}" if a.choices else opt
            for a in parser._actions
            for opt in a.option_strings
            if opt not in ("-h", "--help")
        }
        for command, parser in sub.choices.items()
    }


def test_readme_flag_table_matches_the_parser():
    assert readme_flag_table() == parser_flag_table()


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


def run_module(*argv) -> subprocess.CompletedProcess:
    """python -W error -m couplersim with the package's source on the path."""
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "couplersim", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=False,
    )


def test_module_entry_point_reports(capsys):
    proc = run_module("verify")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert proc.stdout == out


def test_module_entry_point_overflow_is_one_error_line():
    proc = run_module("verify", "--g", "1.7e308")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
