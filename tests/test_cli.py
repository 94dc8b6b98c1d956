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

from rindler_resonance import (
    SPEED_OF_LIGHT,
    Parity,
    Scenario,
    scalar_resonance_energy,
    unruh_temperature,
)
from rindler_resonance.cli import CSV_HEADER, main
from rindler_resonance.oracle import run_suites
from rindler_resonance.quad import QuadratureSpec

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

    def test_commutator_transcript_reports_every_component_agreeing(self):
        text = (GOLDEN_DIR / "verify_em_commutator.txt").read_text()
        assert text.startswith("== suite em-commutator ==\nPASS: 21/21 checks passed")
        assert "FAIL" not in text
        assert "PASS em-commutator/summary/comp=xz " in text
        assert "gate:" not in text


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

    @pytest.mark.parametrize(
        "bounds",
        [("--from", "0", "--to", "inf"), ("--from=-1.7e308", "--to", "1.7e308")],
        ids=["infinite-bound", "overflowing-span"],
    )
    def test_unbounded_sweep_is_a_domain_error(self, bounds, capsys):
        # The child runs under -W error: numpy's grid must not warn.
        argv = ("sweep", "--field", "scalar", "--parity", "sym", "--param", "sep",
                "--omega0", "1", *bounds)
        assert run_cli(*argv) == (b"", 3)
        assert main(list(argv)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: --from and --to ")

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

    def test_negative_value_reaches_domain_check(self):
        # A value that starts with "-" is the option's value, not an option.
        _, code = run_cli(
            "compute", "--field", "scalar", "--parity", "sym",
            "--accel", "-1e17", "--sep", "1", "--omega0", "1",
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

    def test_regimes_overflowing_zeta(self):
        # z*a/(2c^2) exceeds the largest float: no "zeta inf" with exit 0.
        out, code = run_cli("regimes", "--accel", "1e300", "--sep", "1e300")
        assert code == 3
        assert out == b""

    def test_unreachable_tolerance_fails_verification(self):
        for suite in ("scalar-pv", "asymptotes"):
            _, code = run_cli("verify", "--suite", suite, "--tol", "1e-30")
            assert code == 1, suite

    def test_bad_environment_tolerance(self):
        _, code = run_cli(
            "verify", "--suite", "asymptotes",
            extra_env={"RINDLER_RESONANCE_TOL": "not-a-number"},
        )
        assert code == 3

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-6"])
    def test_bad_tolerance_flag(self, tol):
        _, code = run_cli("verify", "--suite", "asymptotes", f"--tol={tol}")
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

    def test_dipole_may_start_with_minus(self):
        argv = ["compute", "--field", "em", "--parity", "sym", "--sep", "1", "--omega0", "1e8"]
        spaced, code = run_cli(*argv, "--dipole-a", "-1,0,0", "--dipole-b", "z")
        assert code == 0
        assert spaced == run_cli(*argv, "--dipole-a=-1,0,0", "--dipole-b", "z")[0]


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


class TestVerifyOutput:
    def test_csv_of_every_suite_has_one_header(self, capsys):
        # One report of every check: each check_id names its suite.
        assert main(["verify", "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 524
        assert not [row for row in rows if row["check_id"] == "check_id"]
        suites = {row["check_id"].split("/")[0] for row in rows}
        assert suites == {"scalar-pv", "em-pv", "em-commutator", "asymptote"}

    def test_csv_of_one_suite_is_its_report(self, capsys):
        assert main(["verify", "--suite", "scalar-pv", "--format", "csv"]) == 0
        spec = QuadratureSpec.from_environment()
        assert capsys.readouterr().out == run_suites(["scalar-pv"], spec=spec)["scalar-pv"].to_csv()


class TestAccelerationScales:
    @pytest.mark.parametrize("accel", [0.0, 9.80665, 2.0 * SPEED_OF_LIGHT**2, 1e20, 1e30])
    def test_compute_and_regimes_print_the_same_scales(self, capsys, accel):
        # Both commands end their table with the Unruh temperature and
        # the crossover length c**2/a, inf at a = 0.
        a = repr(accel)
        point = ["--field", "scalar", "--parity", "sym", "--sep", "1e-9", "--omega0", "1e9"]
        assert main(["compute", "--accel", a, *point]) == 0
        computed = capsys.readouterr().out.splitlines()[-2:]
        assert main(["regimes", "--accel", a]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == computed
        crossover = SPEED_OF_LIGHT**2 / accel if accel > 0.0 else float("inf")
        assert computed == [
            f"unruh_K       {unruh_temperature(accel):.16e}",
            f"crossover_m   {crossover:.16e}",
        ]


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

    @pytest.mark.parametrize("command", ["compute", "sweep"])
    def test_config_out_writes_file(self, tmp_path, command):
        target = tmp_path / "result.csv"
        config = tmp_path / "run.cfg"
        config.write_text(
            "field = scalar\nparity = sym\nsep = 1\nomega0 = 1\nformat = csv\n"
            f"param = accel\nfrom = 0\nto = 1e17\npoints = 3\nout = {target}\n"
        )
        stdout, code = run_cli(command, "--config", str(config))
        assert code == 0
        assert stdout == b""
        lines = target.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == (2 if command == "compute" else 4)

    @pytest.mark.parametrize(
        "text,expected_exit",
        [
            ("parity = symmetric\n", 0),
            ("dipole-a = -1,0,0\n", 0),
            ("points = 2.5\n", 2),
            ("field = foo\n", 3),
            ("param = foo\n", 2),
            ("spacing = cubic\n", 2),
        ],
    )
    def test_config_values_skip_flag_choices(self, tmp_path, text, expected_exit):
        # A config value reaches the checks of its command: field and
        # parity labels take aliases, the other choices are the flags'.
        config = tmp_path / "run.cfg"
        config.write_text(
            "field = em\nparity = sym\nsep = 1\nomega0 = 1e8\n"
            "param = accel\nfrom = 0\nto = 1e17\npoints = 3\n" + text
        )
        _, code = run_cli_text("sweep", "--config", str(config))
        assert code == expected_exit

    @pytest.mark.parametrize(
        "command,key,value",
        [
            ("compute", "format", "xml"),
            ("verify", "format", "xml"),
            ("sweep", "param", "foo"),
            ("sweep", "spacing", "cubic"),
            ("verify", "suite", "banana"),
        ],
    )
    def test_config_choice_fails_as_its_flag(self, tmp_path, capsys, command, key, value):
        # The same exit code and stderr line whether the value is a flag or a config value.
        base = {
            "compute": "field = scalar\nparity = sym\nsep = 1\nomega0 = 1\n",
            "sweep": "field = scalar\nparity = sym\nparam = sep\nfrom = 1\nto = 2\nomega0 = 1\n",
            "verify": "",
        }[command]
        good, bad = tmp_path / "good.cfg", tmp_path / "bad.cfg"
        good.write_text(base)
        bad.write_text(f"{base}{key} = {value}\n")
        assert main([command, "--config", str(good), f"--{key}", value]) == 2
        from_flag = capsys.readouterr()
        assert from_flag.out == ""
        assert from_flag.err.startswith(f"error: --{key} must be one of ")
        assert from_flag.err.endswith(f"; got {value!r}\n")
        assert main([command, "--config", str(bad)]) == 2
        assert capsys.readouterr() == from_flag

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # "#" opens a comment only at the start of a line or after whitespace.
        target = tmp_path / "run#1.csv"
        config = tmp_path / "run.cfg"
        config.write_text(
            "# base configuration\nfield = scalar  # inline comment\nparity = sym\n"
            f"sep = 1\nomega0 = 1\nformat = csv\nout = {target}\n"
        )
        stdout, code = run_cli("compute", "--config", str(config))
        assert (stdout, code) == (b"", 0)
        assert target.read_text().splitlines()[0] == CSV_HEADER
        assert not (tmp_path / "run").exists()

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
        # Each in-process call must print what the same argv prints in a
        # fresh interpreter: no option or config value outlives its call.
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


_SCENARIO_FLAGS = [
    "--field", "--parity", "--accel", "--sep", "--omega0", "--coupling", "--dipole-a", "--dipole-b",
]
_COMMAND_FLAGS = {
    "compute": [*_SCENARIO_FLAGS, "--format"],
    "sweep": [*_SCENARIO_FLAGS, "--param", "--from", "--to", "--points", "--spacing"],
    "verify": ["--suite", "--tol", "--format"],
    "regimes": ["--accel", "--omega0", "--sep"],
}
_SWEEP = [
    "sweep", "--field", "scalar", "--parity", "sym", "--param", "sep",
    "--from", "1", "--to", "2", "--points", "3", "--omega0", "1",
]


class TestParser:
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_top_level_help(self, capsys, flag):
        assert main([flag]) == 0
        out = capsys.readouterr().out
        assert all(command in out for command in _COMMAND_FLAGS)

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", sorted(_COMMAND_FLAGS))
    def test_command_help_names_every_option(self, capsys, command, flag):
        assert main([command, flag]) == 0
        captured = capsys.readouterr()
        options = [line.split()[0] for line in captured.out.splitlines() if line.startswith("  --")]
        assert sorted(options) == sorted([*_COMMAND_FLAGS[command], "--config", "--out"])
        assert captured.err == ""

    def test_help_exits_zero_from_a_fresh_interpreter(self):
        out, code = run_cli_text("sweep", "--help")
        assert code == 0
        assert "--spacing" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["foo"],
            [*_SWEEP, "--volume", "11"],
            [*_SWEEP, "--dipole", "x"],
            [*_SWEEP, "--accel"],
            [*_SWEEP, "stray"],
            [*_SWEEP, "--points", "2.5"],
            [*_SWEEP, "--field", "foo"],
            [*_SWEEP, "--parity", "symmetric"],
            [*_SWEEP, "--format", "csv"],
        ],
        ids=[
            "unknown-command", "unknown-option", "ambiguous-prefix", "missing-value", "stray",
            "bad-int", "bad-choice", "alias-as-flag", "option-of-another-command",
        ],
    )
    def test_usage_errors(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_unique_prefix_and_last_repeat_win(self, capsys):
        assert main([*_SWEEP, "--omega0", "1e8"]) == 0
        full = capsys.readouterr().out
        assert main([*_SWEEP, "--omeg", "5", "--omeg=1e8"]) == 0
        assert capsys.readouterr().out == full
        assert full.splitlines()[1].split(",")[4] == "1.0000000000000000e+08"


_COMPUTE = ["compute", "--field", "scalar", "--parity", "sym", "--sep", "1", "--omega0", "1"]
_OUT_ARGV = {
    "compute-text": _COMPUTE,
    "compute-csv": [*_COMPUTE, "--format", "csv"],
    "sweep": [*_SWEEP, "--points", "20", "--accel", "1e17"],
    "regimes": ["regimes", "--accel", "1e17", "--omega0", "1", "--sep", "1"],
}


class TestOutFile:
    """``--out`` overwrites in place, cuts to length, and types a failed write."""

    def stdout_of(self, capsys, argv) -> bytes:
        assert main(argv) == 0
        return capsys.readouterr().out.encode()

    @pytest.mark.parametrize("junk", [None, 10_000, 1], ids=["new", "longer", "shorter"])
    @pytest.mark.parametrize("case", ["compute-text", "compute-csv", "sweep"])
    def test_file_holds_exactly_the_stdout_bytes(self, tmp_path, capsys, case, junk):
        argv = _OUT_ARGV[case]
        expected = self.stdout_of(capsys, argv)
        # The longer junk runs past the output's end: only the cut removes its tail.
        assert len(expected) < 10_000
        target = tmp_path / "out.txt"
        if junk is not None:
            target.write_bytes(b"#" * junk)
        assert main([*argv, "--out", str(target)]) == 0
        assert capsys.readouterr() == ("", "")
        assert target.read_bytes() == expected

    def test_dev_null(self, capsys):
        assert main([*_OUT_ARGV["sweep"], "--out", "/dev/null"]) == 0
        assert capsys.readouterr() == ("", "")

    def test_symlink_is_written_through(self, tmp_path, capsys):
        expected = self.stdout_of(capsys, _OUT_ARGV["compute-csv"])
        target = tmp_path / "target.csv"
        target.write_bytes(b"junk\n" * 100)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main([*_OUT_ARGV["compute-csv"], "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_bytes() == expected

    @pytest.mark.parametrize(
        "path", ["missing/out.txt", ".", "", "file.txt/out.txt"],
        ids=["missing-parent", "directory", "empty", "parent-is-a-file"],
    )
    @pytest.mark.parametrize("case", ["compute-text", "sweep", "regimes"])
    def test_unwritable_path_is_a_usage_error(self, tmp_path, capsys, case, path):
        (tmp_path / "file.txt").write_text("keep\n")
        path = str(tmp_path / path) if path else path
        # An uncaught OSError would propagate out of main as a traceback.
        assert main([*_OUT_ARGV[case], "--out", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ")
        assert "Traceback" not in captured.err
        assert (tmp_path / "file.txt").read_text() == "keep\n"

    def test_empty_out_from_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("out =\n")
        assert main([*_COMPUTE, "--config", str(config)]) == 2
        assert capsys.readouterr() == ("", "error: cannot write '': No such file or directory\n")

    def test_unwritable_path_exits_2_from_a_fresh_interpreter(self):
        assert run_cli(*_COMPUTE, "--out", "/nonexistent/x.txt") == (b"", 2)
