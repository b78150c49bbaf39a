"""Preset fidelity, sweep harness and pump-coherence behavior."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from biphoton import (
    ConfigurationError,
    ContractViolation,
    ExperimentConfig,
    GridSpec,
    RodAxis,
    SpectralParams,
    preset,
    run_sweep,
    scan_delay,
)
from biphoton.presets import CONFIG_KEYS, PRESET_NAMES, with_value
from biphoton.scan import MAX_SWEEP_ROWS, RateKernel


class TestPresetFidelity:
    def test_defaults_are_the_reference_setup(self):
        config = ExperimentConfig()
        assert config.rod_length == 20.0
        assert (config.analyzer1, config.analyzer2) == (45.0, 45.0)
        assert config.pair_phase == 0.0
        assert config.spectral.pump_coherence_time == 120.0
        assert config.spectral.filter_fwhm == 20.0
        assert config.spectral.filter_center == 780.0
        assert config.spectral.asymmetry_ratio == 1.0
        assert config.grid == GridSpec(n=256, span_sigma=6.0)

    def test_preset_geometries(self):
        assert preset("fig3a_dip").qr1_axis is RodAxis.VERTICAL
        assert preset("fig3a_dip").qr2_axis is RodAxis.VERTICAL
        assert preset("fig3b_dip").qr1_axis is RodAxis.HORIZONTAL
        assert preset("fig3b_dip").qr2_axis is RodAxis.HORIZONTAL
        assert preset("fig4c").qr1_axis is RodAxis.VERTICAL
        assert preset("fig4c").qr2_axis is RodAxis.HORIZONTAL
        for name in ("fig3a_dip", "fig3b_dip", "fig4c"):
            assert (preset(name).analyzer1, preset(name).analyzer2) == (45.0, 45.0)
        for name in ("fig3a_peak", "fig3b_peak"):
            assert (preset(name).analyzer1, preset(name).analyzer2) == (45.0, -45.0)

    def test_unknown_preset_lists_names(self):
        with pytest.raises(ConfigurationError, match="fig3a_dip"):
            preset("nosuch")

    def test_a_preset_builds_only_its_own_config(self, monkeypatch):
        built = []
        check = ExperimentConfig.__post_init__

        def counted(config):
            built.append(config)
            check(config)

        monkeypatch.setattr(ExperimentConfig, "__post_init__", counted)
        assert PRESET_NAMES == ("fig3a_dip", "fig3a_peak", "fig3b_dip", "fig3b_peak", "fig4c")
        for name in PRESET_NAMES:
            built.clear()
            config = preset(name)
            assert len(built) == 1 and built[0] is config


class TestPresetScans:
    def test_expected_kinds(self):
        assert scan_delay(preset("fig3a_dip"), steps=31).kind == "dip"
        assert scan_delay(preset("fig3b_peak"), steps=31).kind == "peak"
        assert scan_delay(preset("fig4c"), steps=31).kind == "flat"

    def test_rod_axis_swap_leaves_rates_unchanged(self):
        scan_a = scan_delay(preset("fig3a_dip"), steps=61)
        scan_b = scan_delay(preset("fig3b_dip"), steps=61)
        assert np.abs(scan_a.rates - scan_b.rates).max() / scan_a.baseline < 1e-9

    def test_fig4c_flat_for_other_analyzers_too(self):
        rotated = replace(preset("fig4c"), analyzer1=30.0, analyzer2=60.0)
        assert scan_delay(rotated, steps=31).kind == "flat"


class TestConfigKeys:
    def test_keys_come_from_the_dataclass_fields(self):
        assert list(CONFIG_KEYS)[:2] == ["qr1_axis", "qr2_axis"]
        assert CONFIG_KEYS["filter_fwhm"] == ("spectral", "filter_fwhm", float)
        assert CONFIG_KEYS["grid_n"] == ("grid", "n", int)

    def test_with_value_sets_each_level(self):
        config = preset("fig4c")
        assert with_value(config, "analyzer2", -45.0) == replace(config, analyzer2=-45.0)
        assert with_value(config, "asymmetry_ratio", 2.0).spectral == SpectralParams(
            asymmetry_ratio=2.0
        )
        assert with_value(config, "grid_n", 512).grid == GridSpec(n=512)

    @pytest.mark.parametrize("key, value", [
        ("qr2_axis", "vertical"),
        ("qr1_axis", "horizontal"),
        ("rod_length", True),
        ("analyzer1", "45"),
        ("asymmetry_ratio", True),
        ("pump_coherence_time", None),
        ("grid_n", 256.0),
        ("grid_n", True),
        ("grid_span_sigma", False),
    ])
    def test_values_of_the_wrong_type_are_refused(self, key, value):
        # A string axis used to build the fig4c geometry from fig3a_dip and
        # scan flat where a dip was asked for.
        with pytest.raises(ConfigurationError, match="must be"):
            with_value(preset("fig3a_dip"), key, value)

    def test_numpy_scalars_are_accepted(self):
        config = with_value(preset("fig3a_dip"), "rod_length", np.float64(10.0))
        config = with_value(config, "analyzer2", np.float32(-45.0))
        config = with_value(config, "grid_n", np.int64(512))
        assert (config.rod_length, config.analyzer2, config.grid.n) == (10.0, -45.0, 512)
        assert scan_delay(config, steps=31).kind == "peak"

    def test_replace_is_checked_too(self):
        with pytest.raises(ConfigurationError, match="RodAxis"):
            replace(preset("fig3a_dip"), qr2_axis="vertical")
        with pytest.raises(ConfigurationError, match="GridSpec"):
            replace(preset("fig3a_dip"), grid=512)

    @pytest.mark.parametrize("key", ["grid", "spectral"])
    def test_nested_dataclass_fields_are_not_keys(self, key):
        with pytest.raises(ConfigurationError, match="unknown key"):
            with_value(preset("fig3a_dip"), key, 1.0)


class TestRunSweep:
    def test_pump_coherence_recovers_fig4c_visibility(self):
        rows = run_sweep(preset("fig4c"), "pump_coherence_time", (60.0, 120.0, 630.0, 6300.0),
                         steps=51)
        visibilities = [row.visibility for row in rows]
        assert all(b >= a for a, b in zip(visibilities, visibilities[1:]))
        assert visibilities[1] <= 0.02
        assert visibilities[-1] >= 0.9

    def test_asymmetry_sweep_decreases_visibility(self):
        rows = run_sweep(preset("fig3a_dip"), "asymmetry_ratio", (1.0, 1.5, 2.0), steps=51)
        assert [row.value for row in rows] == [1.0, 1.5, 2.0]
        vis = [row.visibility for row in rows]
        assert vis[0] > vis[1] > vis[2]

    def test_rod_length_does_not_matter_for_matched_rods(self):
        for row in run_sweep(preset("fig3a_dip"), "rod_length", (0.0, 10.0, 20.0), steps=51):
            assert row.kind == "dip"
            assert row.visibility >= 0.99

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="asymmetry_ratio"):
            run_sweep(preset("fig3a_dip"), "wavelength", (1.0,))

    def test_values_are_read_once_from_any_iterable(self):
        values = (ratio for ratio in (1.0, 1.5, 2.0))
        rows = run_sweep(preset("fig3a_dip"), "asymmetry_ratio", values, steps=51)
        expected = run_sweep(preset("fig3a_dip"), "asymmetry_ratio", (1.0, 1.5, 2.0), steps=51)
        assert rows == expected

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep(preset("fig3a_dip"), "asymmetry_ratio", ())

    def test_more_values_than_the_row_bound_rejected(self, monkeypatch):
        import biphoton.presets as presets_module

        # A stand-in scan, so that the row bound itself runs in milliseconds.
        scan = SimpleNamespace(visibility=1.0, kind="dip", extremum=0.0, baseline=0.25)
        monkeypatch.setattr(presets_module, "scan_delay", lambda *args, **kwargs: scan)
        values = tuple(1.0 + i / MAX_SWEEP_ROWS for i in range(MAX_SWEEP_ROWS + 1))
        rows = run_sweep(preset("fig3a_dip"), "asymmetry_ratio", values[:-1])
        assert len(rows) == MAX_SWEEP_ROWS
        with pytest.raises(ConfigurationError, match=f"between 1 and {MAX_SWEEP_ROWS} values"):
            run_sweep(preset("fig3a_dip"), "asymmetry_ratio", values)

    def test_row_errors_carry_the_index(self):
        with pytest.raises(ConfigurationError, match="row 1"):
            run_sweep(preset("fig3a_dip"), "asymmetry_ratio", (1.0, -2.0), steps=31)

    @pytest.mark.parametrize("axis", ["analyzer2", "asymmetry_ratio"])
    def test_a_step_count_that_is_not_an_integer_is_refused(self, axis):
        # Both the shared-kernel sweep and the kernel-per-row one.
        with pytest.raises(ConfigurationError, match="row 0 .*steps must be an integer"):
            run_sweep(preset("fig3a_dip"), axis, (1.0, 2.0), steps=151.0)

    @pytest.mark.parametrize("axis", ["analyzer2", "asymmetry_ratio"])
    def test_edges_that_are_not_real_numbers_are_refused(self, axis):
        with pytest.raises(ConfigurationError, match="row 0 .*edges must be real numbers"):
            run_sweep(preset("fig3a_dip"), axis, (1.0, 2.0), d_min="-1500")

    def test_contract_violations_keep_their_type_and_row(self, monkeypatch):
        import biphoton.presets as presets_module

        def broken(*args, **kwargs):
            raise ContractViolation("synthetic breakage")

        monkeypatch.setattr(presets_module, "scan_delay", broken)
        with pytest.raises(ContractViolation, match=r"row 0 \(asymmetry_ratio=1.5\): synthetic"):
            run_sweep(preset("fig3a_dip"), "asymmetry_ratio", (1.5,))

    def test_other_exceptions_propagate_unchanged(self, monkeypatch):
        import biphoton.presets as presets_module

        class TwoArgumentError(Exception):
            def __init__(self, code, reason):
                super().__init__(code, reason)

        def broken(*args, **kwargs):
            raise TwoArgumentError(7, "disk full")

        monkeypatch.setattr(presets_module, "scan_delay", broken)
        with pytest.raises(TwoArgumentError) as info:
            run_sweep(preset("fig3a_dip"), "asymmetry_ratio", (1.5,))
        assert info.value.args == (7, "disk full")


class TestKernelSharing:
    @pytest.fixture
    def kernels(self, monkeypatch):
        """Every RateKernel built while the test runs."""
        built = []
        init = RateKernel.__init__

        def spy(self, jsa):
            built.append(self)
            init(self, jsa)

        monkeypatch.setattr(RateKernel, "__init__", spy)
        return built

    @pytest.mark.parametrize("axis", ["analyzer2", "pair_phase"])
    def test_a_reweighting_sweep_builds_one_kernel(self, kernels, axis):
        run_sweep(preset("fig3a_dip"), axis, (0.0, 1.0, 45.0), steps=31)
        assert len(kernels) == 1

    @pytest.mark.parametrize(
        "axis, values", [("rod_length", (0.0, 10.0, 20.0)), ("pump_coherence_time", (60.0, 120.0))]
    )
    def test_other_axes_build_a_kernel_per_row(self, kernels, axis, values):
        run_sweep(preset("fig4c"), axis, values, steps=31)
        assert len(kernels) == len(values)

    def test_a_shared_kernel_takes_the_finest_grid_a_row_needs(self, kernels):
        # Past 13244 fs the two paths of the 45 deg row alias at n = 256, but
        # the single path of the 0 and 90 deg rows does not; all three rows
        # share the n = 512 kernel and read what a scan of their own reads.
        base = preset("fig3a_dip")
        rows = run_sweep(base, "analyzer2", (0.0, 45.0, 90.0), d_max=15000.0)
        assert [kernel.grid.n for kernel in kernels] == [512]
        for row in rows:
            own = scan_delay(with_value(base, "analyzer2", row.value), d_max=15000.0)
            assert (row.kind, row.baseline) == (own.kind, pytest.approx(own.baseline, rel=1e-12))
            assert row.extremum == pytest.approx(own.extremum, rel=1e-12, abs=1e-15)

    def test_a_window_without_wings_is_refused_before_the_shared_kernel(self, monkeypatch):
        import biphoton.presets as presets_module

        def unexpected(*args, **kwargs):
            raise AssertionError("the window must be checked first")

        monkeypatch.setattr(presets_module, "build_jsa", unexpected)
        monkeypatch.setattr(ExperimentConfig, "frequency_grid", unexpected)
        message = r"^sweep row 0 \(analyzer2=0.0\): scan range \[-100.0, 100.0\] fs has no points"
        with pytest.raises(ConfigurationError, match=message):
            run_sweep(preset("fig3a_dip"), "analyzer2", (0.0, 45.0), d_min=-100.0, d_max=100.0)

    def test_a_shared_kernel_stops_growing_after_row_0(self, kernels):
        base = replace(preset("fig4c"), spectral=SpectralParams(asymmetry_ratio=2.0))
        values = (-45.0, 0.0, 22.5, 45.0, 67.5, 90.0, 30.0)
        cached = []
        for count in (1, 7):
            run_sweep(base, "analyzer2", values[:count], steps=31)
            cached.append(len(kernels[-1]._diagonals))
        assert len(kernels) == 2
        assert cached[0] == cached[1] > 0


def test_auto_resolution_handles_long_pump_coherence():
    config = replace(
        preset("fig4c"),
        spectral=SpectralParams(pump_coherence_time=6300.0),
    )
    result = scan_delay(config, steps=51)
    assert result.visibility >= 0.9
