"""Command line behaviour: golden transcripts, exit codes, config handling.

Every invocation here spawns a fresh interpreter, so these tests pin the
exact bytes a user sees and the documented exit-code contract.
"""

import csv
import importlib.util
import io
import pathlib
import subprocess
import sys

import pytest

from rindler_resonance import Parity, Scenario, scalar_resonance_energy
from rindler_resonance.cli import CSV_HEADER, main

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_cases", GOLDEN_DIR / "regenerate.py")
golden_cases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_cases)


def run_cli(*argv, extra_env=None):
    return golden_cases.run_case(list(argv), extra_env=extra_env)


def run_cli_text(*argv, extra_env=None):
    stdout, code = run_cli(*argv, extra_env=extra_env)
    return stdout.decode(), code


class TestGoldenTranscripts:
    @pytest.mark.parametrize(
        "name,argv,expected_exit",
        golden_cases.CASES,
        ids=[case[0] for case in golden_cases.CASES],
    )
    def test_transcript(self, name, argv, expected_exit):
        stored = (GOLDEN_DIR / f"{name}.txt").read_bytes()
        stdout, code = run_cli(*argv)
        assert code == expected_exit
        assert stdout == stored

    def test_commutator_transcript_reports_disagreement_and_gate(self):
        text = (GOLDEN_DIR / "verify_em_commutator.txt").read_text()
        assert "FAIL em-commutator/comp=xz" in text
        assert "gate: agreeing components xx,yy,zz -> pass" in text


class TestExitCodes:
    def test_missing_required_option(self):
        _, code = run_cli("compute", "--field", "scalar", "--parity", "sym", "--omega0", "1")
        assert code == 2

    def test_unknown_suite_rejected_by_parser(self):
        _, code = run_cli("verify", "--suite", "banana")
        assert code == 2

    def test_no_subcommand(self):
        _, code = run_cli()
        assert code == 2

    def test_reversed_sweep_bounds(self):
        _, code = run_cli(
            "sweep", "--field", "scalar", "--parity", "sym", "--param", "sep",
            "--from", "5", "--to", "1", "--omega0", "1",
        )
        assert code == 2

    def test_log_spacing_needs_positive_start(self):
        _, code = run_cli(
            "sweep", "--field", "scalar", "--parity", "sym", "--param", "sep",
            "--from", "0", "--to", "1", "--spacing", "log", "--omega0", "1",
        )
        assert code == 2

    def test_negative_separation(self):
        _, code = run_cli(
            "compute", "--field", "scalar", "--parity", "sym",
            "--sep", "-1", "--omega0", "1",
        )
        assert code == 3

    def test_regimes_negative_acceleration(self):
        _, code = run_cli("regimes", "--accel", "-5")
        assert code == 3

    def test_regimes_zero_frequency(self):
        _, code = run_cli("regimes", "--accel", "1e20", "--omega0", "0")
        assert code == 3

    @pytest.mark.parametrize("omega0", ["nan", "inf"])
    def test_regimes_non_finite_frequency(self, omega0):
        out, code = run_cli("regimes", "--accel", "1e20", "--omega0", omega0)
        assert code == 3
        assert out == b""

    def test_unreachable_tolerance_fails_verification(self):
        _, code = run_cli("verify", "--suite", "scalar-pv", "--tol", "1e-30")
        assert code == 1

    def test_bad_environment_tolerance(self):
        _, code = run_cli(
            "verify", "--suite", "asymptotes",
            extra_env={"RINDLER_RESONANCE_TOL": "not-a-number"},
        )
        assert code == 3

    def test_environment_tolerance_accepted(self):
        _, code = run_cli(
            "verify", "--suite", "scalar-pv",
            extra_env={"RINDLER_RESONANCE_TOL": "1e-7"},
        )
        assert code == 0


class TestComputeOutput:
    def test_csv_matches_library_value(self):
        out, code = run_cli_text(
            "compute", "--field", "scalar", "--parity", "anti",
            "--accel", "1e17", "--sep", "2.5", "--omega0", "7e8", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        sc = Scenario.scalar_field(
            acceleration=1e17, separation=2.5, omega0=7e8, parity=Parity.ANTISYMMETRIC
        )
        shift = scalar_resonance_energy(sc)
        assert float(rows[0]["reduced"]) == shift.reduced
        assert float(rows[0]["si_joule"]) == shift.si_value
        assert rows[0]["regime"] == shift.regime.value

    def test_text_lists_all_fields(self):
        out, code = run_cli_text(
            "compute", "--field", "em", "--parity", "sym",
            "--accel", "1e17", "--sep", "1", "--omega0", "1e8",
            "--dipole-a", "x", "--dipole-b", "z",
        )
        assert code == 0
        keys = [line.split()[0] for line in out.splitlines()]
        assert keys == [
            "field", "parity", "a_mps2", "z_m", "omega0_radps", "zeta", "theta",
            "reduced", "si_joule", "regime", "unruh_K", "crossover_m",
        ]

    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "result.csv"
        stdout, code = run_cli(
            "compute", "--field", "scalar", "--parity", "sym",
            "--sep", "1", "--omega0", "1", "--format", "csv", "--out", str(target),
        )
        assert code == 0
        assert stdout == b""
        content = target.read_text()
        assert content.startswith(CSV_HEADER + "\n")


class TestSweepOutput:
    def test_schema_and_row_count(self):
        out, code = run_cli_text(
            "sweep", "--field", "em", "--parity", "anti", "--param", "omega0",
            "--from", "1e8", "--to", "1e9", "--points", "5",
            "--accel", "1e17", "--sep", "1", "--dipole-a", "y", "--dipole-b", "y",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(row["field"] == "em" and row["parity"] == "anti" for row in rows)
        assert [float(r["omega0_radps"]) for r in rows] == pytest.approx(
            [1e8, 3.25e8, 5.5e8, 7.75e8, 1e9]
        )


class TestConfigFile:
    def test_config_seeds_options_and_flags_win(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# base configuration\n"
            "field = scalar\n"
            "parity = sym\n"
            "sep = 2.0\n"
            "omega0 = 1e8\n"
            "format = csv\n"
        )
        out, code = run_cli_text("compute", "--config", str(config), "--sep", "3.0")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[0]["z_m"]) == 3.0

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("volume = 11\n")
        _, code = run_cli_text("compute", "--config", str(config))
        assert code == 2

    def test_unparseable_value_rejected(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("sep = wide\n")
        _, code = run_cli_text("compute", "--config", str(config))
        assert code == 2

    def test_bad_format_from_config(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "field = scalar\nparity = sym\nsep = 1\nomega0 = 1\nformat = xml\n"
        )
        _, code = run_cli_text("compute", "--config", str(config))
        assert code == 2

    def test_missing_config_file(self):
        _, code = run_cli_text("compute", "--config", "/nonexistent/run.cfg")
        assert code == 2


class TestInProcessMain:
    def test_main_returns_codes_without_exiting(self, capsys):
        assert main([
            "compute", "--field", "scalar", "--parity", "sym",
            "--sep", "1", "--omega0", "1",
        ]) == 0
        captured = capsys.readouterr()
        assert "reduced" in captured.out

    def test_main_usage_error(self, capsys):
        assert main(["compute", "--field", "scalar", "--parity", "sym"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_repeated_calls_carry_nothing_over(self, tmp_path, capsys):
        # One process-wide parser serves every call: each in-process call
        # must print what the same argv prints in a fresh interpreter.
        sweep_cfg = tmp_path / "sweep.cfg"
        sweep_cfg.write_text(
            "field = scalar\nparity = anti\nsep = 2.0\nomega0 = 4e8\npoints = 3\nspacing = log\n"
        )
        em_cfg = tmp_path / "em.cfg"
        em_cfg.write_text(
            "field = em\nparity = anti\nsep = 2.0\nomega0 = 4e8\naccel = 1e17\n"
            "format = csv\ndipole_a = x\n"
        )
        regimes_cfg = tmp_path / "regimes.cfg"
        regimes_cfg.write_text("omega0 = 1e9\n")
        calls = [
            ["sweep", "--config", str(sweep_cfg), "--param", "accel", "--from", "1e15",
             "--to", "1e17", "--out", str(tmp_path / "sweep.csv")],
            ["compute", "--config", str(em_cfg), "--sep", "3.0", "--out", str(tmp_path / "em.csv")],
            ["regimes", "--config", str(regimes_cfg), "--accel", "1e17"],
            ["compute", "--field", "scalar", "--parity", "sym", "--sep", "1", "--omega0", "1"],
            ["sweep", "--field", "em", "--parity", "sym", "--sep", "1", "--omega0", "1e8",
             "--param", "accel", "--from", "0", "--to", "1e17"],
        ]

        def outputs(argv):
            out = argv[argv.index("--out") + 1] if "--out" in argv else None
            return out and pathlib.Path(out).read_text()

        in_process = []
        for argv in calls:
            assert main(argv) == 0, argv
            in_process.append((capsys.readouterr().out, outputs(argv)))
        for argv, (stdout, written) in zip(calls, in_process):
            fresh, code = run_cli_text(*argv)
            assert code == 0, argv
            assert (stdout, written) == (fresh, outputs(argv)), argv
        assert len(in_process[0][1].splitlines()) == 4
        assert "zeta" not in in_process[2][0]
        assert in_process[3][0].startswith("field")
        assert len(in_process[4][0].splitlines()) == 51
