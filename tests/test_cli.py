"""Command-line behavior: exit codes, CSV/SVG schema, determinism."""

import argparse
import contextlib
import csv
import io
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import biphoton
from biphoton.cli import (
    build_parser,
    main,
    parse_config_file,
    write_scan_csv,
    write_scan_svg,
    write_sweep_csv,
)
from biphoton.elements import RodAxis
from biphoton.oracle import oracle_rate
from biphoton.presets import CONFIG_KEYS, PRESET_NAMES, SWEEP_AXES, SweepRow, preset
from biphoton.scan import MAX_SWEEP_ROWS, ScanResult, scan_delay
from biphoton.verify import (
    check_parseval,
    check_rod_axis_swap_symmetry,
    check_visibility_overlap_identity,
)

# Default outputs pinned byte for byte: a change that moves any of them
# changes what users get from the documented commands.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RUNS = [
    *((("run", name), (f"{name}.csv", f"{name}.svg")) for name in PRESET_NAMES),
    (
        ("sweep", "fig4c", "--axis", "pump_coherence_time", "--values", "60,120,630,6300"),
        ("fig4c_pump_coherence_time_sweep.csv",),
    ),
    (
        ("sweep", "fig3a_dip", "--axis", "asymmetry_ratio", "--values", "1,1.5,2"),
        ("fig3a_dip_asymmetry_ratio_sweep.csv",),
    ),
    (
        ("sweep", "fig3a_dip", "--axis", "analyzer2", "--values", "-45,0,22.5,45,67.5,90"),
        ("fig3a_dip_analyzer2_sweep.csv",),
    ),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_dip_preset(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code, stdout, _ = run_cli(capsys, "run", "fig3a_dip", "--out", str(out))
        assert code == 0
        assert "kind=dip" in stdout
        assert "oracle_max_rel_delta" in stdout
        summary = dict(part.split("=", 1) for part in stdout.split() if "=" in part)
        assert float(summary["visibility"]) >= 0.99
        lines = out.read_text().splitlines()
        assert lines[0] == "delay_fs,rate,rate_over_baseline"
        assert len(lines) == 152
        first = lines[1].split(",")
        assert float(first[0]) == -1500.0
        assert float(first[2]) == pytest.approx(1.0, abs=1e-4)

    def test_flat_preset_summary(self, tmp_path, capsys):
        out = tmp_path / "flat.csv"
        code, stdout, _ = run_cli(
            capsys, "run", "fig4c", "--out", str(out), "--steps", "41"
        )
        assert code == 0
        assert "kind=flat" in stdout

    def test_a_config_without_paths_writes_a_zero_baseline_scan(self, tmp_path, capsys):
        # Crossed analyzers pass no path, so every rate and the baseline are 0.
        config = tmp_path / "dark.txt"
        config.write_text("analyzer1 = 0\nanalyzer2 = 90\n")
        out, svg = tmp_path / "dark.csv", tmp_path / "dark.svg"
        code, stdout, _ = run_cli(capsys, "run", "--config", str(config), "--steps", "21",
                                  "--out", str(out), "--svg", str(svg))
        assert code == 0
        assert "kind=flat visibility=0 baseline=0 extremum=0 " in stdout
        with out.open() as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 21
        assert {row["rate"] for row in rows} == {row["rate_over_baseline"] for row in rows} == {"0"}
        # On the y range 0..1, a zero rate sits on the x axis at y = 350.
        text = svg.read_text()
        points = text.split('<polyline points="', 1)[1].split('"', 1)[0].split()
        assert len(points) == 21
        assert {point.split(",")[1] for point in points} == {"350.00"}
        assert '<line x1="50" y1="350.00" x2="590" y2="350.00" stroke="gray"' in text

    def test_csv_is_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(capsys, "run", "fig3a_dip", "--steps", "41", "--out", str(a))[0] == 0
        assert run_cli(capsys, "run", "fig3a_dip", "--steps", "41", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_svg_output(self, tmp_path, capsys):
        svg1 = tmp_path / "a.svg"
        svg2 = tmp_path / "b.svg"
        run_cli(capsys, "run", "fig3a_dip", "--steps", "41",
                "--out", str(tmp_path / "x.csv"), "--svg", str(svg1))
        run_cli(capsys, "run", "fig3a_dip", "--steps", "41",
                "--out", str(tmp_path / "y.csv"), "--svg", str(svg2))
        text = svg1.read_text()
        assert text.startswith("<svg")
        assert "<polyline" in text
        assert svg1.read_bytes() == svg2.read_bytes()

    def test_svg_title_from_a_config_name_is_escaped(self, tmp_path, capsys):
        # The title is the config file's stem, which may hold XML markup.
        config = tmp_path / "R&D <v1>.cfg"
        config.write_text("preset = fig3a_dip\n")
        svg = tmp_path / "o.svg"
        code, _, _ = run_cli(capsys, "run", "--config", str(config), "--steps", "21",
                             "--out", str(tmp_path / "o.csv"), "--svg", str(svg))
        assert code == 0
        titles = [text.text for text in ET.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert titles[0] == "R&D <v1>"

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "run", "nosuch")
        assert code == 2
        assert "fig3a_dip" in stderr

    def test_missing_target_exits_2(self, capsys):
        code, _, stderr = run_cli(capsys, "run")
        assert code == 2
        assert "preset" in stderr

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, flag):
        for target in (tmp_path / "missing" / "x", tmp_path):
            argv = ["run", "fig3a_dip", "--steps", "41", "--out", str(tmp_path / "scan.csv")]
            code, stdout, stderr = run_cli(capsys, *argv, flag, str(target))
            assert code == 2
            assert stdout == ""
            assert stderr.startswith(f"error: cannot write {target}: ")
            # A command that exits 2 leaves none of its outputs behind.
            assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("outputs", [
        ("--out", "o2.csv", "--svg", "./o2.csv"),
        ("--svg", "fig3a_dip_scan.csv"),
        ("--out", "o2.csv", "--svg", "link.svg"),
    ])
    def test_svg_over_the_csv_exits_2_before_any_scan(self, tmp_path, capsys, monkeypatch,
                                                      outputs):
        # The second line's CSV is the default, <label>_scan.csv; the
        # third's SVG is a link to the CSV, which does not exist yet.
        import biphoton.cli as cli_module

        def no_scan(*args, **kwargs):
            raise AssertionError("a refused run ran a scan")

        monkeypatch.setattr(cli_module, "scan_delay", no_scan)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link.svg").symlink_to("o2.csv")
        code, stdout, stderr = run_cli(capsys, "run", "fig3a_dip", *outputs)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: --svg ")
        assert [path.name for path in tmp_path.iterdir()] == ["link.svg"]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_printed_oracle_delta_is_the_worst_over_the_scan(self, tmp_path, capsys, name):
        # The worst relative delta over the default scan, from one
        # closed-form rate per delay in scan order.
        code, stdout, _ = run_cli(capsys, "run", name, "--out", str(tmp_path / "scan.csv"))
        assert code == 0
        config = preset(name)
        result = scan_delay(config)
        worst = 0.0
        for d, rate in zip(result.delays, result.rates):
            reference = oracle_rate(config, float(d))
            worst = max(worst, abs(rate - reference) / max(reference, 1e-12))
        summary = dict(part.split("=", 1) for part in stdout.split() if "=" in part)
        assert summary["oracle_max_rel_delta"] == f"{worst:.3e}"

    @pytest.mark.parametrize("flags", [
        ("--steps", "2000000000"),
        ("--steps", "2"),
        ("--d-max", "inf"),
        ("--d-min", "nan"),
    ])
    def test_bad_scan_window_exits_2(self, tmp_path, capsys, flags):
        code, _, stderr = run_cli(
            capsys, "run", "fig3a_dip", *flags, "--out", str(tmp_path / "scan.csv")
        )
        assert code == 2
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize(
        "command", [("run",), ("sweep", "--axis", "analyzer2", "--values", "0,45")]
    )
    def test_an_overflowing_scan_span_exits_2(self, tmp_path, capsys, command):
        # d_max - d_min overflows to inf; the delays would not be finite.
        out = tmp_path / "scan.csv"
        code, _, stderr = run_cli(
            capsys, command[0], "fig3a_dip", *command[1:], "--d-min=-1e308", "--d-max=1e308",
            "--out", str(out),
        )
        assert code == 2
        assert "span must be finite" in stderr and len(stderr) < 200
        assert not out.exists()

    def test_delays_past_the_alias_bound_exit_2(self, tmp_path, capsys):
        # 500000 fs is past the alias period of the largest grid, 435185 fs.
        out = tmp_path / "scan.csv"
        code, _, stderr = run_cli(capsys, "run", "fig3a_dip", "--d-max", "500000",
                                  "--out", str(out))
        assert code == 2
        assert "alias" in stderr and "n = 8192" in stderr
        assert not out.exists()

    def test_delays_past_the_default_alias_bound_raise_the_grid(self, tmp_path, capsys):
        # 15000 fs aliases at the default n = 256; the planned n = 512 reads it.
        code, stdout, _ = run_cli(capsys, "run", "fig3a_dip", "--d-max", "15000",
                                  "--out", str(tmp_path / "scan.csv"))
        assert code == 0
        delta = float(stdout.split("oracle_max_rel_delta=")[1].split()[0])
        assert delta < 1e-3

    def test_removed_workers_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "fig3a_dip", "--workers", "4"])
        assert info.value.code == 2

    def test_contract_violation_exits_3(self, capsys, monkeypatch):
        import biphoton.cli as cli_module
        from biphoton import ContractViolation

        def broken(*args, **kwargs):
            raise ContractViolation("synthetic breakage")

        monkeypatch.setattr(cli_module, "scan_delay", broken)
        code, _, stderr = run_cli(capsys, "run", "fig3a_dip")
        assert code == 3
        assert "contract" in stderr


def test_every_public_name_resolves():
    # A stale __all__ entry would break `from biphoton import *`.
    assert [name for name in biphoton.__all__ if not hasattr(biphoton, name)] == []
    assert len(set(biphoton.__all__)) == len(biphoton.__all__)
    namespace = {}
    exec("from biphoton import *", namespace)
    assert set(biphoton.__all__) <= namespace.keys()


def test_ctrl_c_ends_a_command_without_traceback_or_output(tmp_path):
    # The 50-row full-band sweep at n = 8192 runs for seconds; SIGINT
    # reaches it a second after the command has started.
    config = tmp_path / "full_band.cfg"
    config.write_text(
        "preset = fig4c\nasymmetry_ratio = 2\npump_coherence_time = 120\ngrid_n = 8192\n"
    )
    out = tmp_path / "sweep.csv"
    values = ",".join(str(round(1.5 + i / 49, 4)) for i in range(50))
    script = "import biphoton.cli; print('ready', flush=True); biphoton.cli.main()"
    argv = ["sweep", "--config", str(config), "--axis", "asymmetry_ratio", "--values", values,
            "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(biphoton.__file__).parents[1])}
    process = subprocess.Popen([sys.executable, "-c", script, *argv], env=env, text=True,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert process.stdout.readline() == "ready\n"
    time.sleep(1.0)
    process.send_signal(signal.SIGINT)
    stdout, stderr = process.communicate(timeout=60)
    # The status of a process that SIGINT ends, as without the handler.
    assert process.returncode == -signal.SIGINT
    assert stdout == ""
    assert stderr == "interrupted\n"
    assert not out.exists()


# Command lines of each subcommand, each with the exit code of parsing it,
# None for one that parses: valid ones, its help, and usage errors (an
# unknown flag, a float for an integer, a missing required option, and an
# option that verify does not take).
PARSER_ARGV = [
    (["run", "fig3a_dip"], None),
    (["run", "--config", "x.cfg", "--d-min", "-45", "--d-max=1e3", "--steps", "41",
      "--out", "o.csv", "--svg", "o.svg"], None),
    (["run", "-h"], 0),
    (["run", "fig3a_dip", "--bogus"], 2),
    (["run", "fig3a_dip", "--steps", "1.5"], 2),
    (["sweep", "fig4c", "--axis", "analyzer2", "--values", "-45,45"], None),
    (["sweep", "--config", "x.cfg", "--axis", "rod_length", "--values", "0", "--steps", "5",
      "--d-min", "-1e3", "--out", "o.csv"], None),
    (["sweep", "-h"], 0),
    (["sweep", "fig4c", "--axis", "analyzer2", "--values", "0", "--bogus"], 2),
    (["sweep", "fig4c", "--axis", "analyzer2", "--values", "0", "--steps", "1.5"], 2),
    (["sweep", "fig4c", "--values", "0"], 2),
    (["verify"], None),
    (["verify", "-h"], 0),
    (["verify", "--bogus"], 2),
    (["verify", "--d-min", "3"], 2),
]


def parse_outcome(parser, argv):
    """The Namespace or exit code of parsing ``argv``, and what it printed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return result, stdout.getvalue(), stderr.getvalue()


def count_parsers(monkeypatch):
    """Every ArgumentParser constructed from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


class TestParser:
    @pytest.mark.parametrize(
        "argv, code", [pytest.param(*line, id=" ".join(line[0])) for line in PARSER_ARGV]
    )
    def test_a_subcommand_parser_parses_as_the_full_one(self, argv, code):
        # Namespaces, help and usage errors alike, to the byte.
        outcome = parse_outcome(build_parser(argv[0]), argv)
        assert outcome == parse_outcome(build_parser(), argv)
        assert (None if isinstance(outcome[0], argparse.Namespace) else outcome[0]) == code

    @pytest.mark.parametrize("command", [
        ("run", "fig3a_dip", "--steps", "21"),
        ("sweep", "fig3a_dip", "--axis", "analyzer2", "--values", "0", "--steps", "21"),
    ])
    def test_a_command_builds_only_its_subcommand_parser(self, tmp_path, capsys, monkeypatch,
                                                         command):
        built = count_parsers(monkeypatch)
        assert main([*command, "--out", str(tmp_path / "o.csv")]) == 0
        assert len(built) == 2

    @pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"]])
    def test_other_first_tokens_build_every_parser(self, capsys, monkeypatch, argv):
        built = count_parsers(monkeypatch)
        with pytest.raises(SystemExit):
            main(argv)
        assert len(built) == 4

    def test_no_two_commands_share_a_parser(self, capsys, monkeypatch):
        built = count_parsers(monkeypatch)
        for _ in range(2):
            with pytest.raises(SystemExit):
                main(["verify", "-h"])
        assert len(built) == 4
        assert not any(a is b for a in built[:2] for b in built[2:])


@pytest.mark.parametrize("argv, files", GOLDEN_RUNS, ids=lambda x: "-".join(x[:3]))
def test_outputs_match_golden_bytes(tmp_path, capsys, argv, files):
    flags = ["--out", str(tmp_path / files[0])]
    if len(files) > 1:
        flags += ["--svg", str(tmp_path / files[1])]
    assert run_cli(capsys, *argv, *flags)[0] == 0
    for name in files:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (("sweep", "fig3a_dip", "--axis", "analyzer2"), "--values", "-45,45"),
        (("run", "fig3a_dip"), "--d-min", "-1.5e3"),
        (("run", "fig3a_dip"), "--d-min", "-.5e3"),
    ],
    ids=["values", "d-min", "d-min-point"],
)
def test_negative_values_read_alike_in_either_spelling(tmp_path, capsys, argv, flag, value):
    # Plain argparse reads "-45,45" and "-1.5e3" after a space as options.
    outputs = []
    for spelling in ((flag, value), (f"{flag}={value}",)):
        out = tmp_path / "out.csv"
        code, stdout, stderr = run_cli(capsys, *argv, *spelling, "--out", str(out))
        assert code == 0, stderr
        outputs.append((stdout, out.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("run", "fig3a_dip", "--d-min", "-inf"), "scan edges and span must be finite"),
        (("run", "fig3a_dip", "--d-max", "-nan"), "scan edges and span must be finite"),
        (("run", "fig3a_dip", "--d-min", "-Infinity"), "scan edges and span must be finite"),
        (("sweep", "fig3a_dip", "--axis", "analyzer2", "--values", "-inf,1"),
         "analyzer2 must be finite, got -inf"),
        (("sweep", "fig3a_dip", "--axis", "analyzer2", "--values", "-NaN"),
         "analyzer2 must be finite, got nan"),
    ],
    ids=["d-min-inf", "d-max-nan", "d-min-infinity", "values-inf", "values-nan"],
)
def test_negative_non_finite_values_reach_the_engine(tmp_path, capsys, argv, message):
    # Read as options, these would stop argparse with "expected one argument".
    out = tmp_path / "out.csv"
    code, _, stderr = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert message in stderr and "expected one argument" not in stderr
    assert not out.exists()


def test_summary_lines_match_golden(tmp_path, capsys):
    # perfbench reads kind, visibility and oracle_max_rel_delta off these lines.
    lines = []
    for argv, files in GOLDEN_RUNS:
        code, stdout, _ = run_cli(capsys, *argv, "--out", str(tmp_path / files[0]))
        assert code == 0
        lines.append(stdout.replace(str(tmp_path), "<out>"))
    assert "".join(lines) == (GOLDEN / "stdout.txt").read_text(encoding="utf-8")


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "config.txt"
        path.write_text(text)
        return path

    def test_preset_base_with_override(self, tmp_path, capsys):
        path = self.write(
            tmp_path,
            "# comment line\n"
            "preset = fig3a_dip\n"
            "analyzer2 = -45   # flip to the constructive setting\n",
        )
        out = tmp_path / "scan.csv"
        code, stdout, _ = run_cli(
            capsys, "run", "--config", str(path), "--steps", "41", "--out", str(out)
        )
        assert code == 0
        assert "kind=peak" in stdout

    def test_full_schema_round_trip(self, tmp_path):
        path = self.write(
            tmp_path,
            "qr1_axis = vertical\n"
            "qr2_axis = horizontal\n"
            "rod_length = 10\n"
            "analyzer1 = 45\n"
            "analyzer2 = -45\n"
            "pair_phase = 0.5\n"
            "pump_coherence_time = 130\n"
            "filter_fwhm = 10\n"
            "filter_center = 780\n"
            "asymmetry_ratio = 1.2\n"
            "grid_n = 512\n"
            "grid_span_sigma = 7\n",
        )
        config = parse_config_file(path)
        assert config.qr1_axis is RodAxis.VERTICAL
        assert config.qr2_axis is RodAxis.HORIZONTAL
        assert config.rod_length == 10.0
        assert config.pair_phase == 0.5
        assert config.spectral.pump_coherence_time == 130.0
        assert config.spectral.filter_fwhm == 10.0
        assert config.spectral.asymmetry_ratio == 1.2
        assert config.grid.n == 512
        assert config.grid.span_sigma == 7.0

    # The removed keys did nothing: the trombone delay is scanned, the
    # half-wave plate sits at 45 deg, rates depend on detunings only, and
    # the Gaussian is the one spectral model.
    @pytest.mark.parametrize("key", [
        "bogus_key",
        "trombone_delay",
        "hwp_angle",
        "pump_center_wavelength",
        "signal_center_wavelength",
        "jsa_model",
    ])
    def test_unknown_key_exits_2_with_line(self, tmp_path, capsys, key):
        path = self.write(tmp_path, f"rod_length = 20\n{key} = 1\n")
        code, _, stderr = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert ":2:" in stderr
        assert key in stderr

    # A repeated key used to be read silently: the first preset, or the
    # last value of any other key.
    @pytest.mark.parametrize("key,first,second", [
        ("preset", "fig3a_dip", "fig4c"),
        ("rod_length", "20", "10"),
    ])
    def test_repeated_key_exits_2_with_both_lines(self, tmp_path, capsys, key, first, second):
        path = self.write(tmp_path, f"{key} = {first}\n# comment\nanalyzer1 = 45\n{key} = {second}\n")
        out = tmp_path / "scan.csv"
        code, stdout, stderr = run_cli(capsys, "run", "--config", str(path), "--out", str(out))
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error:")
        assert f"{path}:4: key {key!r} given twice, on lines 1 and 4" in stderr
        assert not out.exists()

    def test_readme_lists_exactly_the_config_keys(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config files", 1)[1].split("\n#", 1)[0]
        rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("|")]
        listed = [key.strip() for row in rows[2:] for key in row.split(",")]
        assert sorted(listed) == sorted([*CONFIG_KEYS, "preset"])

    def test_bad_number_exits_2(self, tmp_path, capsys):
        path = self.write(tmp_path, "rod_length = twenty\n")
        code, _, stderr = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert "rod_length" in stderr

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "run", "--config", str(tmp_path / "absent.txt"))
        assert code == 2

    def test_invalid_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.txt"
        path.write_bytes(b"preset = fig3a_dip\n\xff\xfe = 3\n")
        code, _, stderr = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert stderr.startswith(f"error: cannot read config file {path}: ")
        assert "utf-8" in stderr

    def test_unknown_preset_exits_2_with_line(self, tmp_path, capsys):
        path = self.write(tmp_path, "rod_length = 20\npreset = nosuch\n")
        code, _, stderr = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert stderr.startswith(f"error: {path}:2: unknown preset 'nosuch'")

    @pytest.mark.parametrize("line", [
        "pump_coherence_time = inf",
        "pump_coherence_time = nan",
        "pump_coherence_time = 1e200",
        "filter_fwhm = 1e-300",
        "asymmetry_ratio = 1e300",
        "filter_center = 1e200",
        "grid_span_sigma = inf",
        "grid_span_sigma = 1e308",
    ])
    def test_degenerate_values_exit_2(self, tmp_path, capsys, line):
        path = self.write(tmp_path, line + "\n")
        code, _, stderr = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert stderr.startswith("error:")

    @pytest.mark.parametrize("rod_length", ["1e150", "1e300"])
    def test_huge_mixed_rods_exit_2(self, tmp_path, capsys, rod_length):
        path = self.write(tmp_path, f"preset = fig4c\nrod_length = {rod_length}\n")
        code, _, stderr = run_cli(capsys, "run", "--config", str(path),
                                  "--out", str(tmp_path / "scan.csv"))
        assert code == 2
        assert "alias" in stderr

    def test_bad_axis_value_exits_2(self, tmp_path, capsys):
        path = self.write(tmp_path, "qr1_axis = diagonal\n")
        code, _, stderr = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert "axis" in stderr

    @pytest.mark.parametrize("grid_n", ["16384", "100", "32"])
    def test_grid_outside_the_accepted_range_names_the_line(self, tmp_path, capsys, grid_n):
        # fig3a_dip needs only n = 256, so the pump is not to blame.
        path = self.write(tmp_path, f"preset = fig3a_dip\ngrid_n = {grid_n}\n")
        code, stdout, stderr = run_cli(capsys, "run", "--config", str(path),
                                       "--out", str(tmp_path / "scan.csv"))
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(f"error: {path}:2: grid n must be a power of two from 64 to 8192")
        assert "pump" not in stderr
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("line", ["rod_length = True", "qr2_axis = 1", "grid_n = 256.0"])
    def test_wrongly_typed_value_exits_2(self, tmp_path, capsys, line):
        path = self.write(tmp_path, line + "\n")
        code, _, stderr = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert line.split()[0] in stderr


class TestSweep:
    def test_asymmetry_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run_cli(
            capsys, "sweep", "fig3a_dip",
            "--axis", "asymmetry_ratio", "--values", "1,1.5,2",
            "--steps", "41", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "axis_value,visibility,kind,extremum,baseline"
        assert len(lines) == 4
        vis = [float(line.split(",")[1]) for line in lines[1:]]
        assert vis[0] > vis[1] > vis[2]

    def test_directory_as_output_exits_2(self, tmp_path, capsys):
        code, stdout, stderr = run_cli(
            capsys, "sweep", "fig3a_dip", "--axis", "asymmetry_ratio", "--values", "1,2",
            "--steps", "41", "--out", str(tmp_path),
        )
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(f"error: cannot write {tmp_path}: ")

    def test_an_unresolvable_row_exits_2_naming_the_ridge(self, tmp_path, capsys):
        code, stdout, stderr = run_cli(
            capsys, "sweep", "fig4c", "--axis", "asymmetry_ratio", "--values", "50",
            "--d-min", "-40000", "--d-max", "40000", "--out", str(tmp_path / "sweep.csv"),
        )
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: sweep row 0 (asymmetry_ratio=50.0): resolving the ")
        assert "0.000393 rad/fs wide" in stderr and "n = 16384" in stderr
        assert not (tmp_path / "sweep.csv").exists()

    def test_bad_axis_exits_2(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "sweep", "fig3a_dip", "--axis", "bogus", "--values", "1,2"
        )
        assert code == 2
        assert stderr == (
            "error: unknown sweep axis 'bogus'; valid axes: analyzer1, analyzer2, "
            "asymmetry_ratio, filter_center, filter_fwhm, pair_phase, "
            "pump_coherence_time, rod_length\n"
        )

    def test_aliased_row_exits_2_with_its_index(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "sweep", "fig4c", "--axis", "rod_length",
            "--values", "20,1e300", "--out", str(tmp_path / "sweep.csv"),
        )
        assert code == 2
        assert "sweep row 1" in stderr
        assert "alias" in stderr

    def test_rod_with_an_infinite_delay_exits_2(self, tmp_path, capsys):
        # Used to write a row of nan visibility and exit 0.
        out = tmp_path / "sweep.csv"
        code, _, stderr = run_cli(
            capsys, "sweep", "fig3a_dip", "--axis", "rod_length", "--values", "1e308",
            "--out", str(out),
        )
        assert code == 2
        assert "sweep row 0" in stderr and "not finite" in stderr
        assert not out.exists()

    def test_bad_row_exits_2_with_its_index(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "sweep", "fig4c", "--axis", "pump_coherence_time",
            "--values", "120,inf", "--out", str(tmp_path / "sweep.csv"),
        )
        assert code == 2
        assert "sweep row 1 (pump_coherence_time=inf)" in stderr

    def test_bad_values_exit_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "fig3a_dip", "--axis", "asymmetry_ratio", "--values", "a,b"
        )
        assert code == 2

    def test_too_many_values_exit_2_before_any_scan(self, tmp_path, capsys, monkeypatch):
        import biphoton.presets as presets_module

        def no_scan(*args, **kwargs):
            raise AssertionError("a refused sweep ran a scan")

        monkeypatch.setattr(presets_module, "scan_delay", no_scan)
        out = tmp_path / "sweep.csv"
        values = ",".join(["1"] * (MAX_SWEEP_ROWS + 1))
        code, _, stderr = run_cli(
            capsys, "sweep", "fig3a_dip", "--axis", "asymmetry_ratio",
            "--values", values, "--out", str(out),
        )
        assert code == 2
        assert f"between 1 and {MAX_SWEEP_ROWS} values, got {MAX_SWEEP_ROWS + 1}" in stderr
        assert not out.exists()


class TestVerify:
    def test_passes_and_is_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify")
        code2, out2, _ = run_cli(capsys, "verify")
        assert code1 == 0
        assert code2 == 0
        assert out1 == out2
        assert "verdict=pass" in out1

    @pytest.mark.parametrize(
        "check",
        [check_parseval, check_visibility_overlap_identity, check_rod_axis_swap_symmetry],
    )
    def test_the_arrival_time_and_overlap_checks_hold_no_square_array(self, check):
        # Each read an n x n amplitude at n = 256, 1 MiB apiece; their
        # references now come from the pair sums, the closed form and the
        # streamed marginals.
        tracemalloc.start()
        try:
            result = check()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.passed
        assert peak < 2 * 2**20

    def test_forced_coarse_grid_fails_convergence(self, capsys, monkeypatch):
        import biphoton.presets as presets_module
        from biphoton.spectral import FrequencyGrid

        def coarse(params, n=256, span_sigma=6.0):
            return FrequencyGrid(16, span_sigma * params.sigma_max)

        monkeypatch.setattr(presets_module, "auto_grid", coarse)
        code, stdout, _ = run_cli(capsys, "verify")
        assert code == 1
        assert "check=grid_refinement status=FAIL" in stdout
        assert "first_failed=grid_refinement" in stdout


# Text that parses as a number, that almost does, or that sits at an edge
# of the float range; each key also gets values it takes in normal use.
ODD_TEXT = ["nan", "inf", "-inf", "5e-324", "-5e-324", "1e308", "-1e308", "0x10", "2**10",
            "0", "-0", "-1", "1e-300", "abc", "True"]
USUAL_TEXT = {
    "qr1_axis": ["vertical", "horizontal", "h", "V"],
    "qr2_axis": ["vertical", "horizontal", "h", "V"],
    "rod_length": ["0", "5", "20", "215"],
    "analyzer1": ["45", "-45", "0", "90", "30"],
    "analyzer2": ["45", "-45", "0", "90", "30"],
    "pair_phase": ["0", "1", "3.14159"],
    "pump_coherence_time": ["60", "120", "630", "6300"],
    "filter_fwhm": ["10", "20", "40"],
    "filter_center": ["780", "400", "1e200"],
    "asymmetry_ratio": ["0.5", "1", "2", "100"],
    # Requested grids stay at n <= 512; auto_grid may still raise n.
    "grid_n": ["64", "128", "256", "512", "100", "-256"],
    "grid_span_sigma": ["3", "4", "6", "8"],
    "preset": list(PRESET_NAMES) + ["nope"],
    "bogus": ["1"],
    "rod length": ["20"],
}
EDGE_TEXT = ["-1500", "1500", "-3000", "3000", "0", "nan", "inf", "-inf", "1e308", "-1e308",
             "5e-324", "abc"]


@st.composite
def config_text(draw):
    lines = []
    for key in draw(st.lists(st.sampled_from(sorted(USUAL_TEXT)), max_size=5)):
        # One value in four is odd, so that some files also run through.
        odd = draw(st.integers(0, 3)) == 0
        lines.append(f"{key} = {draw(st.sampled_from(ODD_TEXT if odd else USUAL_TEXT[key]))}")
    if draw(st.integers(0, 3)) == 0:
        junk = ["# comment", "", "   ", "no equals sign", "= 5", "rod_length ="]
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(junk)))
    return "\n".join(lines) + "\n"


@st.composite
def command_line(draw):
    if draw(st.booleans()):
        axis = draw(st.sampled_from(SWEEP_AXES + ("grid_n", "bogus")))
        usual = ",".join(draw(st.lists(st.sampled_from(USUAL_TEXT.get(axis, ["1"])), min_size=1,
                                       max_size=3)))
        odd = draw(st.integers(0, 3)) == 0
        values = draw(st.sampled_from(["nan", "", "1e308", "0x10", ","])) if odd else usual
        argv = ["sweep", "--axis", axis, f"--values={values}"]
    else:
        argv = ["run"]
    for flag in ("--d-min", "--d-max"):
        if draw(st.integers(0, 3)) == 0:
            argv.append(f"{flag}={draw(st.sampled_from(EDGE_TEXT))}")
    odd = draw(st.integers(0, 3)) == 0
    steps = draw(st.sampled_from(["3", "2", "0", "-5", "100001", "1.5", "x"])) if odd else "21"
    return argv + [f"--steps={steps}"]


class TestFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(text=config_text(), argv=command_line())
    def test_random_input_exits_0_or_2_without_traceback(self, text, argv):
        with tempfile.TemporaryDirectory() as tmp:
            config, out = Path(tmp) / "random.conf", Path(tmp) / "out.csv"
            config.write_text(text)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv + ["--config", str(config), "--out", str(out)])
                except SystemExit as exc:  # argparse refusing a flag
                    code = exc.code
            assert code in (0, 2), (code, stderr.getvalue())
            assert "Traceback" not in stderr.getvalue()
            if code == 0:
                if argv[0] == "run":
                    summary = dict(p.split("=", 1) for p in stdout.getvalue().split() if "=" in p)
                    visibilities = [float(summary["visibility"])]
                else:
                    with out.open() as f:
                        visibilities = [float(row["visibility"]) for row in csv.DictReader(f)]
                assert visibilities and all(0.0 <= v <= 1.0 for v in visibilities)


# The writers as they were when each value was formatted on its own; the
# one-pass writers must give the same text.
def _format_float(x: float) -> str:
    return f"{x:.9g}"


def reference_scan_csv(result):
    lines = ["delay_fs,rate,rate_over_baseline"]
    rates = result.rates.tolist()
    if result.baseline != 0:
        overs = (result.rates / result.baseline).tolist()
    else:
        overs = [0.0] * len(rates)
    for d, rate, over in zip(result.delays.tolist(), rates, overs):
        lines.append(f"{_format_float(d)},{_format_float(rate)},{_format_float(over)}")
    return "\n".join(lines) + "\n"


def reference_sweep_csv(rows):
    lines = ["axis_value,visibility,kind,extremum,baseline"]
    for row in rows:
        lines.append(
            f"{_format_float(row.value)},{_format_float(row.visibility)},{row.kind},"
            f"{_format_float(row.extremum)},{_format_float(row.baseline)}"
        )
    return "\n".join(lines) + "\n"


def reference_scan_svg(result, title):
    width, height = 640, 400
    margin = 50
    xs = result.delays
    ys = result.rates
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = 0.0, float(ys.max()) * 1.05 if ys.max() > 0 else 1.0

    def sx(x: float) -> str:
        return f"{margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin):.2f}"

    def sy(y: float) -> str:
        return f"{height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin):.2f}"

    points = " ".join(f"{sx(float(x))},{sy(float(y))}" for x, y in zip(xs, ys))
    baseline_y = sy(result.baseline)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>\n'
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>\n'
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>\n'
        f'<line x1="{margin}" y1="{baseline_y}" x2="{width - margin}" y2="{baseline_y}" '
        f'stroke="gray" stroke-dasharray="4 4"/>\n'
        f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="1.5"/>\n'
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" font-size="12">'
        f"delay (fs), {_format_float(x_lo)} to {_format_float(x_hi)}</text>\n"
        f'<text x="14" y="{height // 2}" font-size="12" '
        f'transform="rotate(-90 14 {height // 2})">rate</text>\n'
        f"</svg>\n"
    )


# Signed zeros, the smallest subnormal, values near the ends of the range and
# exact ties at the ninth significant digit, among ordinary floats. A span of
# 2e306 times the plot width overflows, so a change in the order of the
# coordinate arithmetic shows as inf.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e306, -1e306, 1234567885.0,
               123456788.5, -2.0000000050000001, 0.1234567895, 0.25]
any_float = st.sampled_from(EDGE_FLOATS) | st.floats(-1e300, 1e300)


@st.composite
def scan_results(draw):
    n = draw(st.integers(2, 12))
    delays = draw(st.lists(any_float, min_size=n, max_size=n))
    assume(min(delays) < max(delays))
    rates = draw(st.lists(any_float, min_size=n, max_size=n))
    if draw(st.booleans()):
        # Signed zeros only, so that ys.max() == 0.
        rates = [math.copysign(0.0, rate) for rate in rates]
    return ScanResult(
        delays=np.array(delays), rates=np.array(rates),
        baseline=draw(st.sampled_from([0.0, -0.0]) | any_float),
        extremum=draw(any_float), visibility=draw(any_float),
        kind=draw(st.sampled_from(["dip", "peak", "flat"])),
    )


sweep_rows = st.lists(
    st.builds(SweepRow, any_float, any_float, st.sampled_from(["dip", "peak", "flat"]),
              any_float, any_float),
    max_size=8,
)


class TestWriters:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(result=scan_results(), rows=sweep_rows)
    def test_one_pass_writers_match_the_per_value_loops(self, result, rows):
        with tempfile.TemporaryDirectory() as tmp:
            paths = scan_csv, scan_svg, sweep_csv = [
                Path(tmp) / name for name in ("s.csv", "s.svg", "w.csv")
            ]
            # Python floats overflow to inf silently where numpy warns; the
            # text must match either way.
            with np.errstate(all="ignore"):
                write_scan_csv(scan_csv, result)
                write_scan_svg(scan_svg, result, "t")
                write_sweep_csv(sweep_csv, rows)
                expected = (reference_scan_csv(result), reference_scan_svg(result, "t"),
                            reference_sweep_csv(rows))
            written = tuple(path.read_bytes().decode("utf-8") for path in paths)
        assert written == expected
