"""Rates, delay scans, visibility and time-domain diagnostics."""

import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from biphoton import (
    PRESET_NAMES,
    ConfigurationError,
    ContractViolation,
    ExperimentConfig,
    GridSpec,
    JointSpectralAmplitude,
    PathAmplitude,
    SpectralParams,
    arrival_time_joint,
    build_jsa,
    coincidence_rate,
    enumerate_paths,
    interference_width,
    jsa_swap_distance,
    oracle_rate,
    path_overlap,
    preset,
    refine_check,
    scan_delay,
)
from biphoton import scan
from biphoton.scan import DEFAULT_WING_FACTOR, MAX_SCAN_STEPS, RateKernel
from biphoton.spectral import FrequencyGrid
from dense_reference import (
    amplitude_rate,
    amplitude_values,
    assemble_amplitude,
    time_joint_density,
)


class TestCoincidenceRate:
    def test_ideal_dip_vanishes(self, fig3a_dip):
        assert coincidence_rate(fig3a_dip, 0.0) < 1e-6 * 0.25

    def test_wings_sit_on_the_baseline(self, fig3a_dip):
        left = coincidence_rate(fig3a_dip, -2000.0)
        right = coincidence_rate(fig3a_dip, 2000.0)
        assert abs(left - right) / right < 1e-6
        assert left == pytest.approx(0.25, rel=1e-6)

    def test_single_path_rate_is_flat(self, fig3a_dip):
        config = replace(fig3a_dip, analyzer1=0.0, analyzer2=0.0)
        jsa = build_jsa(config.spectral)
        delays = (-800.0, 0.0, 350.0, 1200.0)
        rates = [coincidence_rate(config, d, kernel=RateKernel(jsa)) for d in delays]
        spread = (max(rates) - min(rates)) / max(rates)
        assert spread < 1e-9

    def test_matches_direct_amplitude_sum(self, fig3a_dip, default_jsa):
        d = 300.0
        expanded = coincidence_rate(fig3a_dip, d, kernel=RateKernel(default_jsa))
        assembled = amplitude_rate(
            assemble_amplitude(enumerate_paths(fig3a_dip, d), default_jsa)
        )
        assert expanded == pytest.approx(assembled, rel=1e-12)


    @pytest.mark.parametrize("name, rho", [("fig3a_dip", 1.0), ("fig4c", 2.0)])
    def test_a_delay_array_gives_the_bits_of_single_delays(self, name, rho):
        config = replace(preset(name), spectral=SpectralParams(asymmetry_ratio=rho))
        kernel = RateKernel(build_jsa(config.spectral, config.frequency_grid()))
        rng = np.random.default_rng(PRESET_NAMES.index(name))
        delays = np.concatenate((rng.uniform(-1500.0, 1500.0, 20), np.linspace(-1500, 1500, 31)))
        singles = [coincidence_rate(config, float(d), kernel) for d in delays]
        from_numpy = [coincidence_rate(config, d, kernel) for d in delays]
        assert {type(rate) for rate in singles + from_numpy} == {float}
        assert from_numpy == singles
        for given in (delays, delays.tolist(), tuple(delays.tolist())):
            for shared in (kernel, None):
                rates = coincidence_rate(config, given, shared)
                assert isinstance(rates, np.ndarray)
                assert rates.dtype == np.float64 and rates.shape == delays.shape
                assert rates.tobytes() == np.array(singles).tobytes()

    @pytest.mark.parametrize(
        "delays, message",
        [
            (math.nan, "must be finite, got nan"),
            (-math.inf, "must be finite, got -inf"),
            ([0.0, math.nan], "must be finite, got nan at index 1; 1 of 2 delays"),
            ([], "at least one delay"),
            (np.zeros((2, 3)), r"1-D sequence, got shape \(2, 3\)"),
            ([0.0, "1"], "must be real numbers, got '1' at index 1"),
            ([0.0, True], "must be real numbers, got True at index 1"),
            (np.array([1.0j]), r"must be real numbers, got 1j at index 0"),
            ([[0.0], []], r"must be real numbers, got \[0.0\] at index 0"),
            # Long doubles past the float range: cast to float64, they would
            # overflow with a RuntimeWarning.
            (np.longdouble("1e4000"), "trombone delay must be finite, got inf"),
            ([0.0, np.longdouble("-1e4000")], "must be finite, got -inf at index 1"),
            (np.array([np.longdouble("1e4000")]), "must be finite, got inf at index 0"),
        ],
    )
    def test_bad_delays_are_refused_before_any_grid(self, monkeypatch, delays, message):
        def no_grid(config):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(ExperimentConfig, "frequency_grid", no_grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=message):
                coincidence_rate(preset("fig3a_dip"), delays)

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [refine_check, arrival_time_joint])
    def test_non_finite_delays_are_refused_before_any_grid(self, monkeypatch, call, d):
        # The delay is refused as not finite, not read as one that aliases or
        # wraps around the time window once a grid is planned for it.
        def unexpected(*args, **kwargs):
            raise AssertionError("a grid was planned or a JSA built")

        monkeypatch.setattr(ExperimentConfig, "frequency_grid", unexpected)
        monkeypatch.setattr(scan, "build_jsa", unexpected)
        with pytest.raises(ConfigurationError, match=f"trombone delay must be finite, got {d}"):
            call(preset("fig3a_peak"), d)

    BAD_DELAYS = {"complex": 1 + 1j, "bool": True, "None": None, "text": "0"}
    DELAY_CALLS = {
        "coincidence_rate": coincidence_rate,
        "enumerate_paths": enumerate_paths,
        "refine_check": refine_check,
        "arrival_time_joint": arrival_time_joint,
    }

    @pytest.mark.parametrize("d", BAD_DELAYS.values(), ids=BAD_DELAYS)
    @pytest.mark.parametrize("call", DELAY_CALLS.values(), ids=DELAY_CALLS)
    def test_delays_that_are_not_real_numbers_are_refused_before_any_grid(
        self, monkeypatch, call, d
    ):
        # Checked as config values are: "0" is not read as 0 fs, nor True as 1 fs.
        def unexpected(*args, **kwargs):
            raise AssertionError("a grid was planned or a JSA built")

        monkeypatch.setattr(ExperimentConfig, "frequency_grid", unexpected)
        monkeypatch.setattr(scan, "build_jsa", unexpected)
        message = f"trombone delays must be real numbers, got {re.escape(repr(d))}$"
        with pytest.raises(ConfigurationError, match=message):
            call(preset("fig3a_peak"), d)


class TestScanDelay:
    def test_dip_classification(self, fig3a_dip):
        result = scan_delay(fig3a_dip)
        assert result.kind == "dip"
        assert result.visibility >= 0.99
        assert result.extremum == result.rates.min()
        assert np.all(result.rates >= 0.0)

    def test_peak_classification(self):
        result = scan_delay(preset("fig3b_peak"))
        assert result.kind == "peak"
        assert result.visibility >= 0.99
        # A balanced constructive extremum doubles the baseline.
        assert result.rates.max() == pytest.approx(2.0 * result.baseline, rel=1e-5)

    def test_flat_classification(self):
        result = scan_delay(preset("fig4c"))
        assert result.kind == "flat"
        assert result.visibility <= 0.02

    def test_rejects_bad_window(self, fig3a_dip):
        with pytest.raises(ConfigurationError):
            scan_delay(fig3a_dip, 100.0, -100.0)
        with pytest.raises(ConfigurationError):
            scan_delay(fig3a_dip, -100.0, 100.0, steps=2)

    def test_rejects_range_without_wings(self, fig3a_dip):
        with pytest.raises(ConfigurationError):
            scan_delay(fig3a_dip, -100.0, 100.0, steps=11)

    def test_a_range_without_wings_is_refused_before_any_rate(self, monkeypatch):
        # The window is refused before fig4c's JSA at n = 8192 is built and
        # walked and its 100000 rates read, about 0.5 s of work.
        def unexpected(*args, **kwargs):
            raise AssertionError("a grid was planned or a JSA built")

        monkeypatch.setattr(ExperimentConfig, "frequency_grid", unexpected)
        monkeypatch.setattr(scan, "build_jsa", unexpected)
        config = replace(preset("fig4c"), grid=GridSpec(n=8192))
        wing = DEFAULT_WING_FACTOR * interference_width(config.spectral)
        message = (
            f"scan range [-100.0, 100.0] fs has no points beyond the baseline wings "
            f"at |d| > {wing:.4g} fs"
        )
        with pytest.raises(ConfigurationError) as info:
            scan_delay(config, -100.0, 100.0, steps=MAX_SCAN_STEPS)
        assert str(info.value) == message


class TestVisibility:
    def test_ideal_dip_reads_one(self, fig3a_dip):
        result = scan_delay(fig3a_dip)
        assert result.visibility == pytest.approx(1.0, abs=1e-6)
        assert 0.0 <= result.visibility <= 1.0

    @pytest.mark.parametrize("rod_length", [1e-10, 1e-320])
    def test_rods_far_below_the_resolution_read_one_up_to_rounding(self, rod_length):
        # The cross pair's tiny delay goes through the phased walk, whose
        # rounding can put the smallest rate below 0 and the visibility
        # above 1; it stays within 4 ulps of 1.
        result = scan_delay(replace(preset("fig4c"), rod_length=rod_length))
        assert result.kind == "dip"
        assert abs(result.visibility - 1.0) <= 4 * np.spacing(1.0)

    def test_flat_scan_reads_near_zero(self):
        assert scan_delay(preset("fig4c")).visibility < 0.02

    def test_zero_baseline_reads_flat(self, fig3a_dip):
        # Crossed analyzers on both ports leave no coincidence path.
        config = replace(fig3a_dip, analyzer1=0.0, analyzer2=90.0)
        assert enumerate_paths(config) == ()
        result = scan_delay(config, steps=31)
        assert (result.kind, result.visibility, result.baseline) == ("flat", 0.0, 0.0)


class TestArrivalTimes:
    def test_fig3a_port_a_photon_arrives_first(self):
        density = arrival_time_joint(preset("fig3a_peak"), 0.0)
        assert density.mean_b - density.mean_a == pytest.approx(630.0, abs=5.0)
        assert np.all(density.marginal_a >= 0.0) and np.all(density.marginal_b >= 0.0)

    def test_fig3b_reverses_the_order(self):
        density = arrival_time_joint(preset("fig3b_peak"), 0.0)
        assert density.mean_a - density.mean_b == pytest.approx(630.0, abs=5.0)

    def test_parseval(self):
        # The marginals' total against the direct grid sum of |A|^2 w^2.
        config = preset("fig3a_peak")
        jsa = build_jsa(config.spectral)
        amp = assemble_amplitude(enumerate_paths(config, 140.0), jsa)
        density = arrival_time_joint(config, 140.0)
        assert len(density.times) == jsa.grid.n
        assert density.total == pytest.approx(amplitude_rate(amp), rel=1e-6)
        dt = density.times[1] - density.times[0]
        for marginal in (density.marginal_a, density.marginal_b):
            assert float(marginal.sum()) * dt == pytest.approx(density.total, rel=1e-12)

    def test_fig4c_paths_overlap_in_difference_but_not_pair_time(self):
        config = preset("fig4c")
        jsa = build_jsa(config.spectral)
        centers = {}
        for path in enumerate_paths(config):
            density = scan._time_marginals([path], jsa)
            centers[path.label] = (
                density.mean_a - density.mean_b,
                0.5 * (density.mean_a + density.mean_b),
            )
        diff_rr, pair_rr = centers["rr"]
        diff_tt, pair_tt = centers["tt"]
        assert diff_rr == pytest.approx(diff_tt, abs=5.0)
        assert abs(pair_tt - pair_rr) == pytest.approx(630.0, abs=5.0)

    def test_a_configuration_without_paths_is_refused(self, monkeypatch):
        # Analyzer 1 along V blocks tt, analyzer 2 along H blocks rr. The
        # refusal comes before a grid is planned or a JSA built.
        built = []
        build = scan.build_jsa

        def recorded(params, grid):
            built.append(grid.n)
            return build(params, grid)

        monkeypatch.setattr(scan, "build_jsa", recorded)
        config = replace(preset("fig3a_peak"), analyzer1=90.0, analyzer2=0.0)
        assert enumerate_paths(config) == ()
        with pytest.raises(ConfigurationError, match="no coincidence paths"):
            arrival_time_joint(config, 0.0)
        assert built == []

    def test_the_smallest_grid_reads_the_rod_delay(self):
        # The window bound, not a floor on n, says when a grid is fine enough.
        for name, order in (("fig3a_peak", 1), ("fig3b_peak", -1), ("fig4c", 0)):
            density = arrival_time_joint(replace(preset(name), grid=GridSpec(n=64)), 0.0)
            assert len(density.times) == 64
            assert density.mean_b - density.mean_a == pytest.approx(630.0 * order, abs=1e-12)

    def test_grids_above_the_bound_are_refused_before_anything_is_built(self, monkeypatch):
        # 7000 mm rods delay a photon by 220500 fs, past the window of even
        # the largest grid, +-217593 fs at n = 8192, which is asked for here.
        class Built(Exception):
            pass

        def built(*args, **kwargs):
            raise Built

        monkeypatch.setattr(scan, "build_jsa", built)
        config = replace(preset("fig3a_peak"), rod_length=7000.0, grid=GridSpec(n=8192))
        with pytest.raises(ConfigurationError, match="time window of .* n = 8192, the largest"):
            arrival_time_joint(config, 0.0)
        # The largest grid, asked for or raised to by a long pump, passes.
        spectral = SpectralParams(asymmetry_ratio=6.0, pump_coherence_time=6300.0)
        raised = replace(preset("fig3a_peak"), spectral=spectral)
        for config in (replace(config, rod_length=200.0), raised):
            assert config.frequency_grid().n == 8192
            with pytest.raises(Built):
                arrival_time_joint(config, 0.0)

    def test_long_rods_inside_the_time_window_read_their_delay(self):
        density = arrival_time_joint(replace(preset("fig3a_peak"), rod_length=200.0), 0.0)
        assert density.mean_b - density.mean_a == pytest.approx(6300.0, abs=1.0)

    @pytest.mark.parametrize("rod_length, d", [(215.0, 0.0), (300.0, 0.0), (200.0, 500.0)])
    def test_arrival_times_past_the_window_are_refused(self, rod_length, d):
        # The window of the default grid is +-6774 fs; these delays used to
        # wrap around it and report the wrong detector firing first. Its
        # bound refuses that grid, and they are read on the planned n = 512.
        config = replace(preset("fig3a_peak"), rod_length=rod_length)
        reason = scan._time_window(config, enumerate_paths(config, d), config.frequency_grid())
        assert "time window" in reason and "n = 256" in reason
        density = arrival_time_joint(config, d)
        assert len(density.times) == 512
        assert density.mean_b - density.mean_a == pytest.approx(31.5 * rod_length, abs=1.0)

    def test_arrival_times_past_the_largest_window_are_refused(self, monkeypatch):
        # 7000 mm rods delay a photon by 220500 fs, past the window of the
        # largest grid, +-217593 fs at n = 8192, to which n = 256 is doubled.
        import biphoton.scan as scan_module

        def unexpected(*args, **kwargs):
            raise AssertionError("the amplitude was built before the window check")

        monkeypatch.setattr(scan_module, "build_jsa", unexpected)
        config = replace(preset("fig3a_peak"), rod_length=7000.0)
        with pytest.raises(ConfigurationError, match="time window.*n = 8192"):
            arrival_time_joint(config, 0.0)

    def test_pump_width_counts_against_the_window(self):
        # 170 mm rods at tau_p = 630 fs: the port delay of 5355 fs sits 3
        # filter-only widths (215 fs) inside the window of n = 256 but not 3
        # widths that include the pump, where the density wraps enough to
        # read 13 fs short; so the grid is raised to n = 512.
        config = replace(
            preset("fig3a_peak"), rod_length=170.0,
            spectral=SpectralParams(pump_coherence_time=630.0),
        )
        density = arrival_time_joint(config, 0.0)
        assert len(density.times) == 512
        assert density.mean_b - density.mean_a == pytest.approx(5355.0, abs=1e-6)

    def test_a_finer_grid_widens_the_window(self):
        for rod_length in (215.0, 300.0):
            config = replace(preset("fig3a_peak"), rod_length=rod_length, grid=GridSpec(n=512))
            density = arrival_time_joint(config, 0.0)
            assert density.mean_b - density.mean_a == pytest.approx(31.5 * rod_length, abs=1.0)

    @pytest.mark.parametrize("name", ["fig3a_peak", "fig3b_peak", "fig4c"])
    @pytest.mark.parametrize("n", [256, 512, 2048])
    def test_streamed_marginals_match_the_dense_density(self, n, name):
        # Each rod whose delays fit the window of the requested grid, read
        # against the 2-D transform of the assembled n x n amplitude. At
        # n = 2048, where that takes about 0.5 s a rod, each rod is read once.
        rods = (0.0, 200.0, 215.0, 300.0)
        if n == 2048:
            rods = {"fig3a_peak": (0.0, 300.0), "fig3b_peak": (215.0,), "fig4c": (200.0,)}[name]
        read = 0
        for rod_length in rods:
            config = replace(preset(name), rod_length=rod_length, grid=GridSpec(n=n))
            paths = enumerate_paths(config, 0.0)
            grid = config.frequency_grid()
            if scan._time_window(config, paths, grid):
                continue
            read += 1
            amp = assemble_amplitude(paths, build_jsa(config.spectral, grid))
            if not amp.values.any():
                # Without rods the two paths of fig4c cancel exactly.
                with pytest.raises(ConfigurationError, match="identically zero"):
                    arrival_time_joint(config, 0.0)
                continue
            density = arrival_time_joint(config, 0.0)
            dense = time_joint_density(amp)
            assert density.times.tobytes() == dense.times.tobytes()
            assert abs(density.mean_a - dense.mean_a) <= 1e-9
            assert abs(density.mean_b - dense.mean_b) <= 1e-9
            assert density.total == pytest.approx(dense.total, rel=1e-12, abs=0.0)
            dt = dense.times[1] - dense.times[0]
            for marginal, axis in ((density.marginal_a, 1), (density.marginal_b, 0)):
                expected = dense.density.sum(axis=axis) * dt
                assert np.abs(marginal - expected).max() <= 1e-12 * expected.max()
        assert read == (2 if n == 256 else len(rods))

    def test_the_largest_grid_holds_no_square_array(self):
        # One n x n complex array at n = 8192 is 1 GiB; the marginals are
        # read in blocks of 8 rows.
        config = replace(preset("fig3a_peak"), grid=GridSpec(n=8192))
        tracemalloc.start()
        try:
            density = arrival_time_joint(config, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(density.times) == 8192
        assert density.mean_b - density.mean_a == pytest.approx(630.0, abs=1e-9)
        assert peak < 8 * 2**20


class TestRefinement:
    @pytest.mark.parametrize("d", [0.0, 300.0])
    def test_default_grid_is_converged(self, fig3a_dip, d):
        assert refine_check(fig3a_dip, d) < 1e-6

    def test_coarse_grid_still_reasonable(self, fig3a_dip):
        coarse = replace(fig3a_dip, grid=GridSpec(n=64))
        assert refine_check(coarse, 300.0) < 1e-3

    def test_flat_configuration_converged(self):
        assert refine_check(preset("fig4c"), 0.0) < 1e-6

    def test_doubles_the_planned_grid(self, fig3a_dip, monkeypatch):
        # 14000 fs aliases at the requested n = 256, so the rate is read at
        # n = 512 and checked against n = 1024, not against itself.
        built = []
        build = scan.build_jsa

        def recorded(params, grid):
            built.append(grid.n)
            return build(params, grid)

        monkeypatch.setattr(scan, "build_jsa", recorded)
        assert 0.0 < refine_check(fig3a_dip, 14000.0) < 1e-6
        assert built == [512, 1024]

    def test_doubling_past_the_grid_ceiling_is_refused_before_any_jsa(self, fig3a_dip,
                                                                    monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("the doubled grid must be checked first")

        monkeypatch.setattr(scan, "build_jsa", unexpected)
        message = "refining the rate at d = 0 fs needs a grid of n = 16384"
        with pytest.raises(ConfigurationError, match=message):
            refine_check(replace(fig3a_dip, grid=GridSpec(n=8192)), 0.0)


class TestRateKernel:
    PATHS = [PathAmplitude("x", 1.0, 0.0, 0.0, swapped) for swapped in (False, True)]

    def sums(self, kernel):
        return [kernel.pair_sum(p, q) for p in self.PATHS for q in self.PATHS]

    def test_symmetric_jsa_shares_one_kernel(self, default_jsa):
        kernel = RateKernel(default_jsa)
        sums = self.sums(kernel)
        assert all(s is sums[0] for s in sums)
        assert len(kernel._diagonals) == 1

    def test_asymmetric_jsa_keeps_separate_kernels(self):
        # Crossed and uncrossed pairs keep separate sums; a pair and its
        # mirror image, both swaps flipped, read the same ones at the other
        # port's delay.
        jsa = build_jsa(SpectralParams(asymmetry_ratio=2.0))
        kernel = RateKernel(jsa)
        sums = self.sums(kernel)
        assert sums[3] is sums[0] and sums[2] is sums[1]
        assert len(kernel._diagonals) == 2
        assert not np.array_equal(sums[0], sums[1])
        # Transposing the amplitude transposes the kernel, which reverses its
        # diagonals.
        unswapped = self.PATHS[0]
        g1, g2, pump = jsa.factors
        transposed = RateKernel(JointSpectralAmplitude(jsa.grid, factors=(g2, g1, pump)))
        reversed_sums = transposed.pair_sum(unswapped, unswapped)[::-1]
        assert np.allclose(reversed_sums, sums[0], rtol=0.0, atol=1e-15)

    @staticmethod
    def count_walks(monkeypatch):
        """The (crossed, shifts) of each reduction walk from now on."""
        walks = []
        reduce = RateKernel._diagonal_sums

        def counted(self, crossed, shifts):
            walks.append((crossed, tuple(shifts)))
            return reduce(self, crossed, shifts)

        monkeypatch.setattr(RateKernel, "_diagonal_sums", counted)
        return walks

    @pytest.mark.parametrize("name", ["fig3a_dip", "fig4c"])
    def test_an_asymmetric_scan_makes_two_reductions(self, monkeypatch, name):
        config = replace(preset(name), spectral=SpectralParams(asymmetry_ratio=2.0))
        kernel = RateKernel(build_jsa(config.spectral, config.frequency_grid()))
        walks = self.count_walks(monkeypatch)
        scan_delay(config, kernel=kernel)
        assert len(walks) == 2 and {crossed for crossed, _ in walks} == {False, True}
        # The swapped self pair reads the unswapped one's sums at D = 0.
        rr, tt = enumerate_paths(config)
        assert rr.swapped != tt.swapped
        assert kernel.at_rest(tt, tt).tobytes() == kernel.at_rest(rr, rr).tobytes()

    @pytest.mark.parametrize("rho, walks", [(1.0, 1), (2.0, 2)])
    def test_a_fig4c_scan_makes_one_walk_per_crossed(self, monkeypatch, rho, walks):
        # The cross pair of fig4c has U != 0. A symmetric amplitude reduces
        # it with the self pairs' U = 0 in one uncrossed walk; an asymmetric
        # one crosses it and walks twice.
        config = replace(preset("fig4c"), spectral=SpectralParams(asymmetry_ratio=rho))
        rr, tt = enumerate_paths(config)
        shift = rr.delay_a - tt.delay_a + rr.delay_b - tt.delay_b
        assert shift != 0.0
        counted = self.count_walks(monkeypatch)
        scan_delay(config)
        assert len(counted) == walks
        assert sorted(s for _, shifts in counted for s in shifts) == sorted([0.0, shift])
        assert {crossed for crossed, _ in counted} == ({False} if rho == 1.0 else {False, True})

    @pytest.mark.parametrize("rho", [1.0, 2.0])
    def test_a_fig4c_rate_reads_the_self_terms_once(self, monkeypatch, rho):
        # Both self pairs read (False, 0) at the slope +0, so a rate makes one
        # _at call for them and one for the cross pair.
        config = replace(preset("fig4c"), spectral=SpectralParams(asymmetry_ratio=rho))
        kernel = RateKernel(build_jsa(config.spectral, config.frequency_grid()))
        at = RateKernel._at
        slopes = []

        def counted(self, sums, x):
            slopes.append(len(x))
            return at(self, sums, x)

        monkeypatch.setattr(RateKernel, "_at", counted)
        kernel.rate(enumerate_paths(config), np.linspace(-1500.0, 1500.0, 151))
        assert slopes == [1, 151]

    @pytest.mark.parametrize("name, calls", [("fig3a_dip", 0), ("fig4c", 1)])
    def test_only_a_walk_with_a_phased_shift_forms_phases(self, monkeypatch, name, calls):
        # Every pair of fig3a_dip reads U = 0, so its walk forms no phases;
        # the cross pair of fig4c has U != 0, and its one walk forms them once.
        angles = []
        phase_angles = scan._phase_angles

        def counted(*args):
            angles.append(args)
            return phase_angles(*args)

        monkeypatch.setattr(scan, "_phase_angles", counted)
        scan_delay(preset(name))
        assert len(angles) == calls

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("tau_p", [60.0, 120.0, 6300.0])
    def test_factors_and_dense_values_give_the_same_sums(self, monkeypatch, rho, tau_p):
        # The second kernel reads its sums off the dense reference's n x n
        # values instead of the factors, through the same normalization.
        spectral = SpectralParams(asymmetry_ratio=rho, pump_coherence_time=tau_p)
        jsa = build_jsa(spectral)
        dense = RateKernel(jsa)
        reduced = []

        def dense_walk(crossed, shifts):
            reduced.extend((crossed, shift) for shift in shifts)
            return dense_sums(amplitude_values(jsa), jsa.grid, crossed, shifts)

        monkeypatch.setattr(dense, "_diagonal_sums", dense_walk)
        kernels = RateKernel(jsa), dense
        delays = np.linspace(-1500.0, 1500.0, 41)
        for name in PRESET_NAMES:
            paths = enumerate_paths(replace(preset(name), spectral=spectral))
            level = sum(abs(p.coefficient) ** 2 for p in paths)
            for p in paths:
                for q in paths:
                    from_factors, from_values = (k.pair_sum(p, q) for k in kernels)
                    assert np.abs(from_factors - from_values).max() <= 1e-13
            rates = [k.rate(paths, delays) for k in kernels]
            assert np.abs(rates[0] - rates[1]).max() <= 1e-13 * level
        # Every sum of the dense kernel was read off the values.
        assert reduced and sorted(reduced) == sorted(dense._diagonals)

    def test_a_scan_holds_no_square_array(self):
        # One n x n float64 array at n = 2048 is 32 MiB; building the
        # amplitude and scanning it stays below an eighth of that.
        config = replace(
            preset("fig4c"),
            spectral=SpectralParams(pump_coherence_time=6300.0),
            grid=GridSpec(n=2048),
        )
        n = config.frequency_grid().n
        assert n == 2048
        tracemalloc.start()
        try:
            result = scan_delay(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.kind == "dip"
        assert peak < n * n * 8 / 8

    def test_an_amplitude_that_underflows_is_refused(self):
        # On 64 points every value of the filter 1e4 times narrower than the
        # other underflows to zero, so the amplitude has no norm to divide by.
        params = SpectralParams(asymmetry_ratio=100.0)
        jsa = build_jsa(params, FrequencyGrid(64, 6.0 * params.sigma_max))
        with pytest.raises(ContractViolation, match="normalize"):
            RateKernel(jsa).rate(enumerate_paths(preset("fig3a_dip")), [0.0])
        for read in (amplitude_values, lambda jsa: scan._time_marginals([], jsa)):
            with pytest.raises(ContractViolation, match="normalize"):
                read(jsa)


# 2 pi to 40 significant digits.
TWO_PI = Fraction("6.283185307179586476925286766559005768394")


@cache
def column_phases(grid: FrequencyGrid, shifts: tuple[float, ...]) -> np.ndarray:
    """e^{i nu_j U}, one row per j and one column per U in ``shifts``, at
    the grid's uniform points nu_j = nu_0 + j h, h its spacing: each angle
    is formed and reduced mod 2 pi exactly from the floats nu_0, h and U,
    and rounded to float64 once."""
    nu = [Fraction(grid.points[0].item()) + j * Fraction(grid.weight) for j in range(grid.n)]
    angles = [[float(x * Fraction(shift) % TWO_PI) for shift in shifts] for x in nu]
    phases = np.exp(1j * np.array(angles))
    phases.setflags(write=False)
    return phases


def dense_sums(values, grid, crossed, shifts):
    """sum_{i-j=k} v(i,j) v_c(i,j) e^{i nu_j U} for k = 1 - n, ..., n - 1,
    one array per U in ``shifts``: the traces of the explicit kernel of the
    real n x n ``values`` on ``grid``, v_c their transpose when
    ``crossed``. Uncrossed at U = 0 they are real.

    The kernel is written once into a sheared array, diagonal k = i - j in
    column k + n - 1, and all shifts are read from it in one product."""
    n = grid.n
    sheared = np.zeros((n, 2 * n - 1), dtype=values.dtype)
    size = sheared.itemsize
    # Row j of the view, column j of the kernel v v_c, is row j of the
    # sheared array from column n - 1 - j on: element (2 n - 1) j + i
    # - j + n - 1 of the flat array for row i of the kernel.
    view = np.lib.stride_tricks.as_strided(
        sheared.reshape(-1)[n - 1 :], shape=(n, n), strides=((2 * n - 2) * size, size)
    )
    np.multiply(values.T, values if crossed else values.T, out=view)
    phases = column_phases(grid, tuple(shifts)).T
    # The real kernel is read by the real and imaginary parts of the
    # phases, so that it is not cast to complex.
    parts = np.concatenate((phases.real, phases.imag)) @ sheared
    sums = parts[: len(shifts)] + 1j * parts[len(shifts) :]
    return [row.real if shift == 0 and not crossed else row for row, shift in zip(sums, shifts)]


def same_bits(x, y):
    """Equal values, dtypes and signs of zero, in both parts."""
    return (
        x.dtype == y.dtype
        and np.array_equal(x, y)
        and np.array_equal(np.signbit(x.real), np.signbit(y.real))
        and np.array_equal(np.signbit(np.imag(x)), np.signbit(np.imag(y)))
    )


def full_width(monkeypatch):
    """Make the factored reduction write every column of every block."""
    monkeypatch.setattr(scan, "_support", lambda values: (0, len(values) - 1))


class TestPumpBand:
    """Outside the grid sums on which Q = pump^2 is non-zero, every kernel
    entry is an exact zero, so the reduction skips those columns; the
    sums keep their bits."""

    # The shifts U of every walk: no column phase, the phase of fig4c's
    # cross pair, and one of delays D_a0 = 100, D_b0 = 250.
    SHIFTS = (0.0, -1260.0, 350.0)

    def all_sums(self, jsa):
        """The sums of every shift, crossed and uncrossed, one walk each."""
        kernel = RateKernel(jsa)
        return [s for crossed in (False, True) for s in kernel._diagonal_sums(crossed, self.SHIFTS)]

    @pytest.mark.parametrize("name", ["fig4c", "fig3a_dip"])
    @pytest.mark.parametrize("tau_p", [630.0, 6300.0])
    @pytest.mark.parametrize("rho", [1.0, 2.0])
    def test_band_gives_the_bits_of_the_full_width(self, monkeypatch, name, tau_p, rho):
        config = replace(
            preset(name), spectral=SpectralParams(asymmetry_ratio=rho, pump_coherence_time=tau_p)
        )
        jsa = build_jsa(config.spectral, config.frequency_grid())
        n = jsa.grid.n
        pump = jsa.factors[2]
        lo, hi = scan._support(pump * pump)
        assert 0 < lo and hi < 2 * n - 2
        paths = enumerate_paths(config)
        delays = np.linspace(-1500.0, 1500.0, 61)

        def run():
            kernel = RateKernel(jsa)
            pairs = [kernel.pair_sum(p, q) for p in paths for q in paths]
            return [*pairs, kernel.rate(paths, delays), *self.all_sums(jsa)]

        banded = run()
        full_width(monkeypatch)
        assert all(same_bits(x, y) for x, y in zip(banded, run(), strict=True))

    @pytest.mark.parametrize(
        "nonzero",
        [
            [300, 304],  # narrower than one block of 64 rows
            [200, 201, 202, 203],
            list(range(0, 41)),  # touches the low grid edge
            list(range(470, 511)),  # touches the high grid edge
            [0],
            [510],
            [100, 400],  # zeros inside the support stay in
        ],
        ids=["narrow", "narrow-even", "low-edge", "high-edge", "corner-0", "corner-2n-2", "gap"],
    )
    def test_custom_supports_keep_the_bits(self, monkeypatch, nonzero):
        # Signed filter factors with exact zeros of both signs put +0.0
        # and -0.0 into the skipped entries of the full-width kernel.
        params = SpectralParams()
        grid = FrequencyGrid(256, 6.0 * params.sigma_max)
        rng = np.random.default_rng(len(nonzero))
        g1, g2 = rng.normal(size=(2, 256))
        g1[3::17], g2[5::19] = 0.0, -0.0
        pump = np.zeros(511)
        pump[nonzero] = rng.normal(size=len(nonzero))
        jsa = JointSpectralAmplitude(grid, factors=(g1, g2, pump))
        banded = self.all_sums(jsa)
        full_width(monkeypatch)
        assert all(same_bits(x, y) for x, y in zip(banded, self.all_sums(jsa), strict=True))
        assert any(np.any(x) for x in banded)

    def test_a_pump_whose_square_underflows_is_refused(self):
        params = SpectralParams()
        grid = FrequencyGrid(256, 6.0 * params.sigma_max)
        g = np.ones(256)
        pump = np.full(511, 1e-170)
        assert not np.any(pump * pump)
        jsa = JointSpectralAmplitude(grid, factors=(g, g, pump))
        with pytest.raises(ContractViolation, match="normalize"):
            RateKernel(jsa).rate(enumerate_paths(preset("fig3a_dip")), [0.0])


class TestDiagonalSums:
    """The pair sums against the traces of the explicit kernel
    F(i,j) F_c(i,j) e^{i nu_j U}, diagonal k = i - j, F_c the transpose of
    F for a crossed pair."""

    @staticmethod
    def supports(n):
        """Grid sums on which the pump is non-zero: all, one even, one odd,
        either corner and both corners."""
        even, odd = (n - 1) // 2 * 2, (n - 2) // 2 * 2 + 1
        return [range(2 * n - 1), [even], [odd], [0], [2 * n - 2], [0, 2 * n - 2]]

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
    @pytest.mark.parametrize("source", ["factors", "dense"])
    def test_sums_are_the_traces_of_the_kernel(self, n, source):
        # Random signed factors, and equal filter factors. The traces are
        # those of the product of the factors, or of the dense reference's
        # n x n values, rescaled by the norm S w^2.
        params = SpectralParams()
        grid = FrequencyGrid(n, 6.0 * params.sigma_max)
        rng = np.random.default_rng(n)
        g1, g2 = rng.normal(size=(2, n))
        for support in self.supports(n):
            pump = np.zeros(2 * n - 1)
            pump[list(support)] = rng.normal(size=len(support))
            # Equal filter factors make the uncrossed kernel symmetric, and
            # the crossed kernel always is, so those walks are mirrored.
            for factors in ((g1, g2, pump), (g1, g1, pump)):
                kernel = RateKernel(JointSpectralAmplitude(grid, factors=factors))
                if source == "factors":
                    f1, f2, f3 = factors
                    values = np.outer(f1, f2) * np.lib.stride_tricks.sliding_window_view(f3, n)
                    scale = 1.0
                else:
                    values = amplitude_values(kernel.jsa)
                    scale = kernel._total * grid.weight**2
                for crossed in (False, True):
                    walk = kernel._diagonal_sums(crossed, TestPumpBand.SHIFTS)
                    reference = dense_sums(values, grid, crossed, TestPumpBand.SHIFTS)
                    for sums, expected in zip(walk, reference, strict=True):
                        expected = expected * scale
                        assert sums.shape == (2 * n - 1,)
                        error = np.abs(sums - expected).max()
                        assert error <= 1e-14 * np.abs(expected).sum()

    def test_a_symmetric_walk_forms_half_the_block_products(self, monkeypatch):
        # The a views of a walk's blocks hold one element per product a b.
        # A walk with a == b, every crossed one among them, forms only those
        # of k >= 0; one with a != b forms them all.
        n = 256
        grid = FrequencyGrid(n, 6.0 * SpectralParams().sigma_max)
        rng = np.random.default_rng(n)
        g1, g2 = rng.normal(size=(2, n))
        pump = rng.normal(size=2 * n - 1)
        lattice = scan._lattice
        products = []

        def counted(flat, start, strides, shape):
            if strides == (1, 1, 1):
                products[-1] += math.prod(shape)
            return lattice(flat, start, strides, shape)

        monkeypatch.setattr(scan, "_lattice", counted)
        walks = [(False, g1, g1), (False, g1, g2), (True, g1, g2)]
        for crossed, f1, f2 in walks:
            products.append(0)
            kernel = RateKernel(JointSpectralAmplitude(grid, factors=(f1, f2, pump)))
            kernel._diagonal_sums(crossed, TestPumpBand.SHIFTS)
        symmetric, full, crossed = products
        assert full > n * n
        # Half the products, up to the t = 0 column of each u and parity.
        assert symmetric == crossed
        assert abs(2 * symmetric - full) <= 2 * n

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 128, 256, 1024, 8192])
    def test_a_walk_takes_at_most_3_sqrt_n_phases_per_shift(self, monkeypatch, n):
        # The weight and sum phases of all n steps are products of fine and
        # coarse phases, instead of 2 n angles, n cos, n sin and n exp per U.
        params = SpectralParams()
        kernel = RateKernel(build_jsa(params, FrequencyGrid(n, 6.0 * params.sigma_max)))
        counts = {"angles": 0, "exp": 0, "cos": 0, "sin": 0}

        def counted(name, call):
            def wrapper(*args, **kwargs):
                out = call(*args, **kwargs)
                if name != "exp" or np.iscomplexobj(out):
                    counts[name] += np.size(out)
                return out

            return wrapper

        monkeypatch.setattr(scan, "_phase_angles", counted("angles", scan._phase_angles))
        for name in ("exp", "cos", "sin"):
            monkeypatch.setattr(scan.np, name, counted(name, getattr(np, name)))
        shifts = TestPumpBand.SHIFTS
        for crossed in (False, True):
            kernel._diagonal_sums(crossed, shifts)
        bound = 2 * (len(shifts) - 1) * (3 * math.ceil(math.sqrt(n)) + 2)
        assert 0 < counts["angles"] <= bound
        assert 0 < counts["exp"] <= bound
        assert counts["cos"] == counts["sin"] == 0

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 128, 256, 1024, 8192])
    def test_sum_phases_match_one_exp_per_step(self, n):
        # The walk's phase of t, e^{i (nu_0 + (n/2 - t) h) U} at t + n // 2,
        # against one exp of each angle reduced in np.longdouble.
        params = SpectralParams()
        kernel = RateKernel(build_jsa(params, FrequencyGrid(n, 6.0 * params.sigma_max)))
        grid = kernel.grid
        rng = np.random.default_rng(n)
        shifts = list(rng.uniform(-2e4, 2e4, size=4))
        _, _, (fine, coarse), _ = kernel._walk(False, False, shifts)
        steps = n - np.arange(n)
        direct = np.exp(1j * scan._phase_angles(grid.points[0], steps, grid.weight, shifts))
        for m in range(len(shifts)):
            error = np.abs(scan._outer_phases(coarse[m], fine[m]) - direct[m]).max()
            assert error <= 2e-15

    def test_working_memory_does_not_grow_with_the_band(self):
        # fig4c at n = 8192: the pump band is every grid sum at 120 fs and
        # a few hundred at 6300 fs. A walk holds O(n) arrays and one block
        # of 2 _BLOCK entries; a kernel as wide as the band would add to it.
        # At rho = 2 the self and the cross pair walk apart, (False, 0) and
        # (True, U); at rho = 1 one walk reduces (False, 0) and (False, U).
        n = 8192
        peaks = {}
        for tau_p in (120.0, 6300.0):
            for rho in (1.0, 2.0):
                params = SpectralParams(asymmetry_ratio=rho, pump_coherence_time=tau_p)
                kernel = RateKernel(build_jsa(params, FrequencyGrid(n, 6.0 * params.sigma_max)))
                rr, tt = enumerate_paths(replace(preset("fig4c"), spectral=params))
                keys = {kernel._key(rr, rr), kernel._key(rr, tt)}
                for crossed in sorted({crossed for crossed, _ in keys}):
                    shifts = sorted(shift for c, shift in keys if c == crossed)
                    tracemalloc.start()
                    try:
                        out = kernel._diagonal_sums(crossed, shifts)
                        _, peak = tracemalloc.get_traced_memory()
                    finally:
                        tracemalloc.stop()
                    peaks[tau_p, rho, crossed] = peak - sum(sums.nbytes for sums in out)
        assert {key[1:] for key in peaks} == {(1.0, False), (2.0, False), (2.0, True)}
        assert max(peaks.values()) <= 2 * 2**20
        for _, rho, crossed in peaks:
            assert abs(peaks[120.0, rho, crossed] - peaks[6300.0, rho, crossed]) <= 16 * n

    def test_overlaps_hold_no_square_array(self):
        # fig4c at n = 8192, where one n x n float64 array is 512 MiB: each
        # overlap reads two pair sums, O(n) apiece.
        n = 8192
        params = SpectralParams(asymmetry_ratio=2.0, pump_coherence_time=6300.0)
        jsa = build_jsa(params, FrequencyGrid(n, 6.0 * params.sigma_max))
        paths = enumerate_paths(replace(preset("fig4c"), spectral=params))
        for overlap in (lambda: path_overlap(paths, jsa), lambda: jsa_swap_distance(jsa)):
            tracemalloc.start()
            try:
                overlap()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 8 * 2**20


class TestRealEngine:
    """The delay read of the pair sums, with the phases factored out of
    the kernel."""

    # The scan slopes, +-0 and a slope far outside any scan. Each phase is
    # the product of a coarse and a fine phase, and the sums run in another
    # order, so they match a full exp table to rounding, not bit for bit.
    SLOPES = np.concatenate([np.linspace(-1500.0, 1500.0, 151), [0.0, -0.0, 2.5e4]])

    @pytest.fixture(
        scope="class",
        params=[(120.0, 256, 1.0), (6300.0, 1024, 1.0), (120.0, 128, 1.0), (6300.0, 8192, 2.0)],
        ids=["n256", "n1024", "n128", "n8192"],
    )
    def fig4c_pairs(self, request):
        tau_p, n, rho = request.param
        params = SpectralParams(asymmetry_ratio=rho, pump_coherence_time=tau_p)
        # At n = 128, an odd power of two, there are twice as many coarse
        # steps as fine ones.
        kernel = RateKernel(build_jsa(params, FrequencyGrid(n, 6.0 * params.sigma_max)))
        rr, tt = enumerate_paths(replace(preset("fig4c"), spectral=params))
        return kernel, [kernel.pair_sum(p, q) for p, q in ((rr, rr), (rr, tt), (tt, rr))]

    def test_phase_table_is_close_to_a_full_exp_table(self, fig4c_pairs):
        # The folds at c = 1 and c = -i read the real and imaginary parts of T.
        kernel, pairs = fig4c_pairs
        n = kernel.grid.n
        lags = np.arange(1 - n, n) * kernel.grid.weight
        for sums in pairs:
            full = [(np.exp(1j * (x * lags)) * sums).sum() for x in self.SLOPES]
            for c in (1.0, -1j):
                direct = (c * np.array(full)).real
                error = np.abs(kernel._at(scan._fold(sums, c), self.SLOPES) - direct).max()
                assert error <= 1e-14 * np.abs(sums).sum()

    @pytest.mark.parametrize("n", [2, 4, 8, 128, 256])
    def test_the_folded_read_is_the_real_part_of_the_weighted_sum(self, n):
        # Random complex sums and coefficients: the n folded lags read
        # Re(c sum_k P_k e^{i x k h}) over all 2 n - 1 lags. Every lag of a
        # random sum weighs alike, so the angles k (x h) of the reference are
        # reduced in np.longdouble; a float64 x (k h) rounds by up to 2.6e-14
        # of sum_k |P_k| over these slopes at n = 8.
        params = SpectralParams()
        kernel = RateKernel(build_jsa(params, FrequencyGrid(n, 6.0 * params.sigma_max)))
        steps = np.arange(1 - n, n)
        rng = np.random.default_rng(n)
        for _ in range(3):
            sums = rng.normal(size=2 * n - 1) + 1j * rng.normal(size=2 * n - 1)
            c = complex(*rng.normal(size=2))
            direct = []
            for x in self.SLOPES:
                angles = scan._phase_angles(0.0, steps, x * kernel.grid.weight, [1.0])[0]
                direct.append((c * (np.exp(1j * angles) * sums).sum()).real)
            error = np.abs(kernel._at(scan._fold(sums, c), self.SLOPES) - direct).max()
            assert error <= 1e-14 * abs(c) * np.abs(sums).sum()

    def test_signed_zero_slopes_give_the_bits_of_zero(self, fig4c_pairs):
        kernel, pairs = fig4c_pairs
        for sums in pairs:
            for c in (1.0, -1j, 0.3 - 0.8j):
                lags = scan._fold(sums, c)
                at_rest = kernel._at(lags, np.array([0.0]))
                both = kernel._at(lags, np.array([0.0, -0.0]))
                assert at_rest.tobytes() * 2 == both.tobytes()

    def test_a_slope_gives_the_same_bits_alone_and_in_a_batch(self, fig4c_pairs):
        kernel, pairs = fig4c_pairs
        # Slopes per block, 4 x n / B complex elements each: the batch
        # spans more than one.
        slopes = np.tile(self.SLOPES, 4)
        assert len(slopes) > scan._BLOCK // (4 * kernel._steps[1])
        for sums in pairs:
            lags = scan._fold(sums, 0.3 - 0.8j)
            batch = kernel._at(lags, slopes)
            alone = [kernel._at(lags, self.SLOPES[i : i + 1]) for i in range(len(self.SLOPES))]
            assert np.tile(np.concatenate(alone), 4).tobytes() == batch.tobytes()

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 128, 256, 512, 1024, 8192])
    def test_a_slope_costs_about_log2_n_complex_exps(self, monkeypatch, n):
        # The fine and coarse phases are doubled from those of the base
        # lags, instead of one exp per fine and coarse step, 2 sqrt(n).
        params = SpectralParams()
        kernel = RateKernel(build_jsa(params, FrequencyGrid(n, 6.0 * params.sigma_max)))
        rng = np.random.default_rng(n)
        lags = rng.normal(size=n) + 1j * rng.normal(size=n)
        exp = np.exp
        elements = []

        def counted(x, *args, **kwargs):
            if np.iscomplexobj(x):
                elements.append(np.size(x))
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(scan.np, "exp", counted)
        kernel._at(lags, self.SLOPES)
        assert elements and sum(elements) <= (math.ceil(math.log2(n)) + 2) * len(self.SLOPES)

    @pytest.mark.parametrize("n", [256, 8192])
    def test_working_memory_does_not_grow_with_the_slopes(self, n):
        # The padded lags, n complex elements, and a block of slopes, under
        # 2 _BLOCK; a phase table or ufunc buffers as wide as the lags would
        # add to it.
        params = SpectralParams(asymmetry_ratio=2.0, pump_coherence_time=6300.0)
        kernel = RateKernel(build_jsa(params, FrequencyGrid(n, 6.0 * params.sigma_max)))
        rr, tt = enumerate_paths(replace(preset("fig4c"), spectral=params))
        lags = scan._fold(kernel.pair_sum(rr, tt), 1.0)
        for count in (151, 100_000):
            slopes = np.linspace(-1500.0, 1500.0, count)
            tracemalloc.start()
            try:
                out = kernel._at(lags, slopes)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - out.nbytes <= 16 * (n + 2 * scan._BLOCK)

    def test_real_amplitude_keeps_self_sums_real(self, default_jsa):
        kernel = RateKernel(default_jsa)
        rr, tt = enumerate_paths(preset("fig4c"))
        assert kernel._diagonal_sums(False, [0.0])[0].dtype == np.float64
        assert kernel.pair_sum(rr, rr).dtype == np.float64
        assert kernel.pair_sum(rr, tt).dtype == np.complex128


class TestAliasBound:
    """Delays whose grid rate would read an image of the interference term
    one alias period 2 pi / h away are refused on a kernel's fixed grid,
    and read on a raised grid without one."""

    @staticmethod
    def period(config):
        return 2.0 * math.pi / config.frequency_grid().weight

    @staticmethod
    def kernel(config):
        return RateKernel(build_jsa(config.spectral, config.frequency_grid()))

    @staticmethod
    def assert_matches_oracle(config, delays):
        # The floor of test_engine_matches_oracle, for the bottom of a dip.
        floor = 1e-2 * sum(abs(p.coefficient) ** 2 for p in enumerate_paths(config))
        for d, rate in zip(delays, coincidence_rate(config, delays)):
            reference = oracle_rate(config, d)
            assert abs(rate - reference) <= 1e-3 * max(reference, floor)

    def test_matched_rods_accept_up_to_three_widths_below_the_period(self, fig3a_dip):
        edge = self.period(fig3a_dip) - DEFAULT_WING_FACTOR * interference_width(
            fig3a_dip.spectral
        )
        assert edge == pytest.approx(13244.0, abs=1.0)
        kernel = self.kernel(fig3a_dip)
        for d in (edge - 1.0, -(edge - 1.0)):
            assert coincidence_rate(fig3a_dip, d, kernel) == pytest.approx(
                oracle_rate(fig3a_dip, d), rel=1e-3
            )
        past = (edge + 1.0, -(edge + 1.0), 13548.07)
        for d in past:
            with pytest.raises(ConfigurationError, match="alias"):
                coincidence_rate(fig3a_dip, d, kernel)
        self.assert_matches_oracle(fig3a_dip, past)

    def test_the_planner_doubles_the_grid_it_holds(self, monkeypatch):
        # The ridge rule raises fig4c at a 6300 fs pump to n = 1024, the grid
        # of the requests 256, 512 and 1024 alike; each grid is checked once.
        config = replace(preset("fig4c"), spectral=SpectralParams(pump_coherence_time=6300.0))
        assert config.frequency_grid().n == 1024
        checked = []
        alias = scan._alias

        def recorded(spectral, paths, d_min, d_max, grid):
            checked.append(grid.n)
            return alias(spectral, paths, d_min, d_max, grid)

        monkeypatch.setattr(scan, "_alias", recorded)
        assert scan._rate_grid(config, -1500.0, 60000.0).n == 2048
        assert checked == [1024, 2048]

    def test_scan_is_refused_before_building_anything(self, fig3a_dip, monkeypatch):
        import biphoton.scan as scan_module

        def unexpected(*args, **kwargs):
            raise AssertionError("the delays must be checked first")

        monkeypatch.setattr(scan_module, "build_jsa", unexpected)
        # 500000 fs is past the alias period of the largest grid, 435185 fs.
        with pytest.raises(ConfigurationError, match="alias"):
            scan_delay(fig3a_dip, -1500.0, 500000.0)

    def test_long_pump_half_period_image(self):
        # Near the pump-ridge sampling limit the image one period away in
        # both ports is only a few pump widths off along nu1 + nu2, so even
        # matched rods alias at half a period (by about 2% here).
        config = replace(preset("fig3a_dip"), spectral=SpectralParams(pump_coherence_time=6300.0))
        half = self.period(config) / 2.0
        kernel = self.kernel(config)
        with pytest.raises(ConfigurationError, match="alias"):
            coincidence_rate(config, -half, kernel)
        with pytest.raises(ConfigurationError, match="alias"):
            scan_delay(config, -30000.0, 1500.0, kernel=kernel)
        self.assert_matches_oracle(config, [-half])
        self.assert_matches_oracle(config, np.linspace(-30000.0, 1500.0, 151))

    def test_mixed_rods_alias_along_the_pump_direction(self):
        # fig4c shifts the sum of the port delays by twice the rod delay. At
        # 378 mm the image one period away in both ports lies within a pump
        # width of it, and the grid rate read 0.12 where the closed form
        # gives 0.25.
        spectral = SpectralParams(pump_coherence_time=1000.0)
        near = replace(preset("fig4c"), spectral=spectral, rod_length=200.0)
        assert coincidence_rate(near, 0.0) == pytest.approx(oracle_rate(near, 0.0), rel=1e-3)
        far = replace(near, rod_length=378.0)
        with pytest.raises(ConfigurationError, match="alias"):
            coincidence_rate(far, 0.0, self.kernel(far))
        self.assert_matches_oracle(far, [0.0])

    @pytest.mark.parametrize("rod_length", [1e150, 1e300])
    def test_huge_rods_are_refused(self, rod_length):
        config = replace(preset("fig4c"), rod_length=rod_length)
        with pytest.raises(ConfigurationError, match="alias"):
            scan_delay(config)


class TestPairSums:
    """The diagonal form of the pair sums against the assembled amplitude,
    on asymmetric amplitudes, whose crossed kernels differ from their
    uncrossed ones: at a short and a long pump on 64 points, and at the
    default pump on the planned grid."""

    @pytest.fixture(
        scope="class",
        params=[(1.5, 60.0), (1.5, 6300.0), (2.0, None)],
        ids=["rho=1.5,tau_p=60", "rho=1.5,tau_p=6300", "rho=2"],
    )
    def asymmetric(self, request):
        rho, tau_p = request.param
        if tau_p is None:
            return build_jsa(SpectralParams(asymmetry_ratio=rho))
        params = SpectralParams(asymmetry_ratio=rho, pump_coherence_time=tau_p)
        return build_jsa(params, FrequencyGrid(64, 6.0 * params.sigma_max))

    @pytest.mark.parametrize("name", ["fig3a_dip", "fig3b_peak", "fig4c"])
    def test_rates_match_assembled_amplitude(self, asymmetric, name):
        config = replace(preset(name), analyzer1=30.0, analyzer2=75.0, pair_phase=0.7)
        delays = (-700.0, -90.0, 0.0, 250.0, 1100.0)
        rates = RateKernel(asymmetric).rate(enumerate_paths(config), delays)
        direct = [
            amplitude_rate(assemble_amplitude(enumerate_paths(config, d), asymmetric))
            for d in delays
        ]
        level = sum(abs(p.coefficient) ** 2 for p in enumerate_paths(config))
        assert np.abs(rates - direct).max() <= 1e-12 * level

    def test_swapped_pairs_match_direct_sums(self, asymmetric):
        # pair_sum holds P_k(crossed, U); read at the slope D(d) of the port
        # that p's arm-1 photon reaches, it gives T(p, q) at each delay d.
        paths = [
            PathAmplitude("x", 1.0, delay_a, delay_b, swapped)
            for delay_a, delay_b in ((0.0, 0.0), (120.0, -340.0), (-55.0, 610.0))
            for swapped in (False, True)
        ]
        kernel = RateKernel(asymmetric)
        nu = asymmetric.grid.points
        values = amplitude_values(asymmetric)
        for p in paths:
            for q in paths:
                shift = p.delay_a - q.delay_a + p.delay_b - q.delay_b
                (direct,) = dense_sums(values, asymmetric.grid, p.swapped != q.swapped, [shift])
                sums = kernel.pair_sum(p, q) / asymmetric.grid.weight**2
                assert np.abs(sums - direct).max() <= 1e-12 * np.abs(direct).max()
                s = int(q.swapped) - int(p.swapped)
                f_p = values.T if p.swapped else values
                f_q = values.T if q.swapped else values
                for d in (-300.0, 0.0, 450.0):
                    port_a, port_b = p.delay_a - q.delay_a + s * d, p.delay_b - q.delay_b - s * d
                    full = f_p * f_q * np.exp(1j * np.add.outer(nu * port_a, nu * port_b))
                    slope = port_b if p.swapped else port_a
                    for c in (1.0, -1j):
                        read = kernel._at(scan._fold(sums, c), np.array([slope]))[0]
                        assert abs(read - (c * full.sum()).real) <= 1e-12 * np.abs(full).sum()

    def test_swapped_first_paths_match_assembled_amplitude(self, asymmetric):
        # The first path's arm-1 photon exits port B, and no pair has equal
        # delay differences at the two ports, so the rates are not even in
        # the delay as those of the presets are.
        jsa = asymmetric
        paths = [
            PathAmplitude("p", 0.6, 40.0, -90.0, True),
            PathAmplitude("q", -0.5 + 0.4j, -25.0, 60.0, False),
            PathAmplitude("r", 0.3 - 0.2j, 10.0, 130.0, True),
        ]

        def at_delay(d):
            # The trombone delay rides on the arm-1 photon.
            return [
                replace(p, delay_b=p.delay_b + d) if p.swapped
                else replace(p, delay_a=p.delay_a + d)
                for p in paths
            ]

        delays = (-700.0, -90.0, 35.0, 250.0, 1100.0)
        rates = RateKernel(jsa).rate(paths, delays)
        direct = [amplitude_rate(assemble_amplitude(at_delay(d), jsa)) for d in delays]
        level = sum(abs(p.coefficient) ** 2 for p in paths)
        assert np.abs(rates - direct).max() <= 1e-12 * level
        assert np.ptp(direct) > 1e-2 * level


class TestScanBounds:
    def test_rejects_too_many_steps_before_building_anything(self, fig3a_dip, monkeypatch):
        import biphoton.scan as scan_module

        def unexpected(*args, **kwargs):
            raise AssertionError("the step count must be checked first")

        monkeypatch.setattr(scan_module, "build_jsa", unexpected)
        monkeypatch.setattr(scan_module.np, "linspace", unexpected)
        with pytest.raises(ConfigurationError, match=str(MAX_SCAN_STEPS)):
            scan_delay(fig3a_dip, steps=MAX_SCAN_STEPS + 1)
        with pytest.raises(ConfigurationError):
            scan_delay(fig3a_dip, steps=2_000_000_000)

    # The last pair of edges is finite, but its span overflows to inf.
    @pytest.mark.parametrize("edges", [(-math.inf, 1500.0), (-1500.0, math.inf),
                                       (math.nan, 1500.0), (-1e308, 1e308)])
    def test_rejects_non_finite_edges(self, fig3a_dip, edges):
        with pytest.raises(ConfigurationError):
            scan_delay(fig3a_dip, *edges)

    @pytest.mark.parametrize("steps", [151.0, True, "151", None])
    def test_rejects_a_step_count_that_is_not_an_integer(self, fig3a_dip, steps):
        with pytest.raises(ConfigurationError, match="steps must be an integer"):
            scan_delay(fig3a_dip, steps=steps)

    @pytest.mark.parametrize("edges", [("-1500", 1500.0), (-1500.0, None), (False, 1500.0)])
    def test_rejects_edges_that_are_not_real_numbers(self, fig3a_dip, edges):
        with pytest.raises(ConfigurationError, match="edges must be real numbers"):
            scan_delay(fig3a_dip, *edges)

    def test_numpy_numbers_are_accepted(self, fig3a_dip):
        result = scan_delay(fig3a_dip, np.float32(-1500.0), np.float64(1500.0), np.int64(31))
        assert result.rates.tobytes() == scan_delay(fig3a_dip, steps=31).rates.tobytes()


class TestRateInvariants:
    def test_outcome_completeness(self, fig3a_dip, default_jsa):
        kernel = RateKernel(default_jsa)
        delays = (-900.0, -250.0, 0.0, 250.0, 900.0)
        totals = np.zeros(len(delays))
        for off1 in (0.0, 90.0):
            for off2 in (0.0, 90.0):
                config = replace(fig3a_dip, analyzer1=30.0 + off1, analyzer2=75.0 + off2)
                totals += kernel.rate(enumerate_paths(config), delays)
        mean = totals.mean()
        assert np.abs(totals - mean).max() / mean < 1e-6

    def test_dip_peak_complementarity(self, default_jsa):
        dip = preset("fig3a_dip")
        peak = preset("fig3a_peak")
        kernel = RateKernel(default_jsa)
        delays = (-700.0, -90.0, 0.0, 90.0, 700.0)
        sums = kernel.rate(enumerate_paths(dip), delays)
        sums += kernel.rate(enumerate_paths(peak), delays)
        mean = sums.mean()
        assert np.abs(sums - mean).max() / mean < 1e-6

    @pytest.mark.parametrize("name", ["fig3a_dip", "fig3b_dip"])
    @pytest.mark.parametrize("scale", [1.0, 2.0, 3.7, 7.25])
    def test_ideal_dip_is_exactly_zero(self, default_jsa, name, scale):
        g1, g2, pump = default_jsa.factors
        jsa = JointSpectralAmplitude(default_jsa.grid, factors=(scale * g1, scale * g2, pump))
        assert coincidence_rate(preset(name), 0.0, kernel=RateKernel(jsa)) == 0.0

    def test_normalization_invariance(self, fig3a_dip, default_jsa):
        grid = default_jsa.grid
        g1, g2, pump = default_jsa.factors
        level = sum(abs(p.coefficient) ** 2 for p in enumerate_paths(fig3a_dip))
        for rescaled in (
            JointSpectralAmplitude(grid, factors=(3.7 * g1, 3.7 * g2, pump)),
            JointSpectralAmplitude(grid, factors=(g1, g2, 3.7 * pump)),
            JointSpectralAmplitude(grid, factors=(3.7 * g1, g2, pump)),
        ):
            for d in (0.0, 150.0, 600.0):
                reference = coincidence_rate(fig3a_dip, d, kernel=RateKernel(default_jsa))
                other = coincidence_rate(fig3a_dip, d, kernel=RateKernel(rescaled))
                if rescaled.symmetric:
                    assert abs(other - reference) / max(reference, 1e-12) < 1e-12
                else:
                    # 3.7 g1 != g2 bit for bit, so the dip at d = 0 cancels
                    # only to rounding, not to the exact zero of the reference.
                    assert abs(other - reference) < 1e-12 * level
