"""Command-line behavior: exit codes, CSV/SVG schema, determinism."""

import contextlib
import csv
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.cli import main, parse_config_file
from biphoton.elements import RodAxis
from biphoton.presets import CONFIG_KEYS, PRESET_NAMES, SWEEP_AXES

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

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "run", "nosuch")
        assert code == 2
        assert "fig3a_dip" in stderr

    def test_missing_target_exits_2(self, capsys):
        code, _, stderr = run_cli(capsys, "run")
        assert code == 2
        assert "preset" in stderr

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

    def test_delays_past_the_alias_bound_exit_2(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code, _, stderr = run_cli(capsys, "run", "fig3a_dip", "--d-max", "15000",
                                  "--out", str(out))
        assert code == 2
        assert "alias" in stderr
        assert not out.exists()

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


@pytest.mark.parametrize("argv, files", GOLDEN_RUNS, ids=lambda x: "-".join(x[:3]))
def test_outputs_match_golden_bytes(tmp_path, capsys, argv, files):
    flags = ["--out", str(tmp_path / files[0])]
    if len(files) > 1:
        flags += ["--svg", str(tmp_path / files[1])]
    assert run_cli(capsys, *argv, *flags)[0] == 0
    for name in files:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


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


class TestVerify:
    def test_passes_and_is_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify")
        code2, out2, _ = run_cli(capsys, "verify")
        assert code1 == 0
        assert code2 == 0
        assert out1 == out2
        assert "verdict=pass" in out1

    def test_forced_coarse_grid_fails_convergence(self, capsys, monkeypatch):
        import biphoton.presets as presets_module
        from biphoton.spectral import _construct_grid

        def coarse(params, n=256, span_sigma=6.0):
            return _construct_grid(params, 16, span_sigma)

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
