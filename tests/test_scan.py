"""Rates, delay scans, visibility and time-domain diagnostics."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from biphoton import (
    PRESET_NAMES,
    ConfigurationError,
    ContractViolation,
    GridSpec,
    JointSpectralAmplitude,
    PathAmplitude,
    SpectralParams,
    amplitude_rate,
    arrival_time_joint,
    assemble_amplitude,
    build_grid,
    build_jsa,
    coincidence_rate,
    enumerate_paths,
    interference_width,
    oracle_rate,
    preset,
    refine_check,
    scan_delay,
    time_joint_density,
)
from biphoton import scan
from biphoton.scan import DEFAULT_WING_FACTOR, MAX_SCAN_STEPS, RateKernel
from biphoton.spectral import _construct_grid


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
        rates = [coincidence_rate(config, d, jsa=jsa) for d in (-800.0, 0.0, 350.0, 1200.0)]
        spread = (max(rates) - min(rates)) / max(rates)
        assert spread < 1e-9

    def test_matches_direct_amplitude_sum(self, fig3a_dip, default_jsa):
        d = 300.0
        expanded = coincidence_rate(fig3a_dip, d, jsa=default_jsa)
        assembled = amplitude_rate(
            assemble_amplitude(enumerate_paths(fig3a_dip, d), default_jsa)
        )
        assert expanded == pytest.approx(assembled, rel=1e-12)


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


class TestVisibility:
    def test_ideal_dip_reads_one(self, fig3a_dip):
        result = scan_delay(fig3a_dip)
        assert result.visibility == pytest.approx(1.0, abs=1e-6)
        assert 0.0 <= result.visibility <= 1.0

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
        assert np.all(density.density >= 0.0)

    def test_fig3b_reverses_the_order(self):
        density = arrival_time_joint(preset("fig3b_peak"), 0.0)
        assert density.mean_a - density.mean_b == pytest.approx(630.0, abs=5.0)

    def test_parseval(self):
        config = preset("fig3a_peak")
        jsa = build_jsa(config.spectral)
        amp = assemble_amplitude(enumerate_paths(config, 140.0), jsa)
        density = time_joint_density(amp)
        assert density.total == pytest.approx(amplitude_rate(amp), rel=1e-6)

    def test_fig4c_paths_overlap_in_difference_but_not_pair_time(self):
        config = preset("fig4c")
        jsa = build_jsa(config.spectral)
        centers = {}
        for path in enumerate_paths(config):
            density = time_joint_density(assemble_amplitude([path], jsa))
            centers[path.label] = (
                density.mean_a - density.mean_b,
                0.5 * (density.mean_a + density.mean_b),
            )
        diff_rr, pair_rr = centers["rr"]
        diff_tt, pair_tt = centers["tt"]
        assert diff_rr == pytest.approx(diff_tt, abs=5.0)
        assert abs(pair_tt - pair_rr) == pytest.approx(630.0, abs=5.0)

    def test_requires_fine_enough_grid(self, fig3a_dip):
        coarse = replace(fig3a_dip, grid=GridSpec(n=64))
        with pytest.raises(ConfigurationError):
            arrival_time_joint(coarse, 0.0)

    def test_long_rods_inside_the_time_window_read_their_delay(self):
        density = arrival_time_joint(replace(preset("fig3a_peak"), rod_length=200.0), 0.0)
        assert density.mean_b - density.mean_a == pytest.approx(6300.0, abs=1.0)

    @pytest.mark.parametrize("rod_length, d", [(215.0, 0.0), (300.0, 0.0), (200.0, 500.0)])
    def test_arrival_times_past_the_window_are_refused(self, monkeypatch, rod_length, d):
        # The window of the default grid is +-6774 fs; these delays used to
        # wrap around it and report the wrong detector firing first.
        import biphoton.scan as scan_module

        def unexpected(*args, **kwargs):
            raise AssertionError("the amplitude was built before the window check")

        monkeypatch.setattr(scan_module, "build_jsa", unexpected)
        config = replace(preset("fig3a_peak"), rod_length=rod_length)
        with pytest.raises(ConfigurationError, match="time window"):
            arrival_time_joint(config, d)

    def test_pump_width_counts_against_the_window(self):
        # 170 mm rods at tau_p = 630 fs: the port delay of 5355 fs sits 3
        # filter-only widths (215 fs) inside the window but not 3 widths that
        # include the pump, and the density wraps enough to read 13 fs short.
        config = replace(
            preset("fig3a_peak"), rod_length=170.0,
            spectral=SpectralParams(pump_coherence_time=630.0),
        )
        with pytest.raises(ConfigurationError, match="time window"):
            arrival_time_joint(config, 0.0)

    def test_a_finer_grid_widens_the_window(self):
        for rod_length in (215.0, 300.0):
            config = replace(preset("fig3a_peak"), rod_length=rod_length, grid=GridSpec(n=512))
            density = arrival_time_joint(config, 0.0)
            assert density.mean_b - density.mean_a == pytest.approx(31.5 * rod_length, abs=1.0)


class TestRefinement:
    @pytest.mark.parametrize("d", [0.0, 300.0])
    def test_default_grid_is_converged(self, fig3a_dip, d):
        assert refine_check(fig3a_dip, d) < 1e-6

    def test_coarse_grid_still_reasonable(self, fig3a_dip):
        coarse = replace(fig3a_dip, grid=GridSpec(n=64))
        assert refine_check(coarse, 300.0) < 1e-3

    def test_flat_configuration_converged(self):
        assert refine_check(preset("fig4c"), 0.0) < 1e-6


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
        jsa = build_jsa(SpectralParams(asymmetry_ratio=2.0))
        kernel = RateKernel(jsa)
        sums = self.sums(kernel)
        assert len({id(s) for s in sums}) == len(sums)
        assert not np.array_equal(sums[0], sums[1])
        # Swapping both paths transposes the kernel, which reverses its diagonals.
        assert np.allclose(sums[3], sums[0][::-1], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("tau_p", [60.0, 120.0, 6300.0])
    def test_factors_and_dense_values_give_the_same_sums(self, rho, tau_p):
        spectral = SpectralParams(asymmetry_ratio=rho, pump_coherence_time=tau_p)
        factored = build_jsa(spectral)
        dense = JointSpectralAmplitude(factored.grid, factored.values)
        assert dense.factors is None
        kernels = RateKernel(factored), RateKernel(dense)
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
        jsa = build_jsa(params, build_grid(params, n=64))
        with pytest.raises(ContractViolation, match="normalize"):
            RateKernel(jsa).rate(enumerate_paths(preset("fig3a_dip")), [0.0])
        with pytest.raises(ContractViolation, match="normalize"):
            jsa.values

    def test_a_scan_leaves_the_values_unbuilt(self, fig3a_dip):
        jsa = build_jsa(fig3a_dip.spectral)
        scan_delay(fig3a_dip, jsa=jsa, steps=31)
        assert jsa._values is None
        assert not jsa.values.flags.writeable
        assert jsa.values is jsa.values


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

    SWAPS = [(False, False), (False, True), (True, False), (True, True)]
    # No column phase, the phase of fig4c's cross pair, and one with both
    # port phases.
    DELTAS = [(0.0, 0.0), (-630.0, -630.0), (100.0, 250.0)]

    def all_sums(self, jsa):
        kernel = RateKernel(jsa)
        return [
            kernel._diagonal_sums(*swaps, *deltas) for swaps in self.SWAPS for deltas in self.DELTAS
        ]

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
        grid = build_grid(params, n=256)
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
        grid = build_grid(params, n=256)
        g = np.ones(256)
        pump = np.full(511, 1e-170)
        assert not np.any(pump * pump)
        jsa = JointSpectralAmplitude(grid, factors=(g, g, pump))
        with pytest.raises(ContractViolation, match="normalize"):
            RateKernel(jsa).rate(enumerate_paths(preset("fig3a_dip")), [0.0])


class TestRealEngine:
    """A real amplitude runs through the same code as a complex one, with
    the phases factored out of the kernel."""

    # The scan slopes, +-0 and a slope far outside any scan. The phase
    # table is the product of a coarse and a fine table, so it matches a
    # full exp table to rounding, not bit for bit.
    SLOPES = np.concatenate([np.linspace(-1500.0, 1500.0, 151), [0.0, -0.0, 2.5e4]])

    @pytest.fixture(
        scope="class",
        params=[(120.0, 256), (6300.0, 1024), (120.0, 100)],
        ids=["n256", "n1024", "n100"],
    )
    def fig4c_pairs(self, request):
        tau_p, n = request.param
        params = SpectralParams(pump_coherence_time=tau_p)
        # A grid of 100 points, not a power of two, pads the coarse table.
        kernel = RateKernel(build_jsa(params, _construct_grid(params, n, 6.0)))
        rr, tt = enumerate_paths(replace(preset("fig4c"), spectral=params))
        return kernel, [kernel.pair_sum(p, q) for p, q in ((rr, rr), (rr, tt), (tt, rr))]

    def test_phase_table_is_close_to_a_full_exp_table(self, fig4c_pairs):
        kernel, pairs = fig4c_pairs
        n = kernel.grid.n
        lags = np.arange(1 - n, n) * kernel.grid.weight
        table = np.exp(1j * np.multiply.outer(self.SLOPES, lags))
        for sums in pairs:
            error = np.abs(kernel._at(sums, self.SLOPES) - (table * sums).sum(axis=1)).max()
            assert error <= 1e-14 * np.abs(sums).sum()

    def test_signed_zero_slopes_give_the_bits_of_zero(self, fig4c_pairs):
        kernel, pairs = fig4c_pairs
        for sums in pairs:
            at_rest = kernel._at(sums, np.array([0.0]))
            both = kernel._at(sums, np.array([0.0, -0.0]))
            assert at_rest.tobytes() * 2 == both.tobytes()

    def test_a_slope_gives_the_same_bits_alone_and_in_a_batch(self, fig4c_pairs):
        kernel, pairs = fig4c_pairs
        # Rows per block of the phase table: the batch spans more than one.
        assert len(self.SLOPES) > scan._BLOCK // (2 * kernel.grid.n - 1)
        for sums in pairs:
            batch = kernel._at(sums, self.SLOPES)
            alone = [kernel._at(sums, self.SLOPES[i : i + 1]) for i in range(len(self.SLOPES))]
            assert np.concatenate(alone).tobytes() == batch.tobytes()

    @pytest.mark.parametrize("rho", [1.0, 2.0])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_real_and_complex_amplitudes_give_the_same_rates(self, name, rho):
        config = replace(preset(name), spectral=SpectralParams(asymmetry_ratio=rho))
        jsa = build_jsa(config.spectral)
        as_complex = JointSpectralAmplitude(jsa.grid, jsa.values.astype(np.complex128))
        paths = enumerate_paths(config)
        delays = np.linspace(-1500.0, 1500.0, 61)
        real = RateKernel(jsa).rate(paths, delays)
        complex_ = RateKernel(as_complex).rate(paths, delays)
        level = sum(abs(p.coefficient) ** 2 for p in paths)
        assert np.abs(real - complex_).max() <= 1e-13 * level

    def test_real_amplitude_keeps_self_sums_real(self, default_jsa):
        kernel = RateKernel(default_jsa)
        rr, tt = enumerate_paths(preset("fig4c"))
        assert kernel._factored_rows(False, False, None)[1] == np.float64
        assert kernel.pair_sum(rr, rr).dtype == np.float64
        assert kernel.pair_sum(rr, tt).dtype == np.complex128


class TestAliasBound:
    """Delays whose grid rate would read an image of the interference term
    one alias period 2 pi / h away are refused."""

    @staticmethod
    def period(config):
        return 2.0 * math.pi / config.frequency_grid().weight

    def test_matched_rods_accept_up_to_three_widths_below_the_period(self, fig3a_dip):
        edge = self.period(fig3a_dip) - DEFAULT_WING_FACTOR * interference_width(
            fig3a_dip.spectral
        )
        for d in (edge - 1.0, -(edge - 1.0)):
            assert coincidence_rate(fig3a_dip, d) == pytest.approx(
                oracle_rate(fig3a_dip, d), rel=1e-3
            )
        for d in (edge + 1.0, -(edge + 1.0), 13548.07):
            with pytest.raises(ConfigurationError, match="alias"):
                coincidence_rate(fig3a_dip, d)

    def test_scan_is_refused_before_building_anything(self, fig3a_dip, monkeypatch):
        import biphoton.scan as scan_module

        def unexpected(*args, **kwargs):
            raise AssertionError("the delays must be checked first")

        monkeypatch.setattr(scan_module, "build_jsa", unexpected)
        with pytest.raises(ConfigurationError, match="alias"):
            scan_delay(fig3a_dip, -1500.0, 15000.0)

    def test_long_pump_half_period_image(self):
        # Near the pump-ridge sampling limit the image one period away in
        # both ports is only a few pump widths off along nu1 + nu2, so even
        # matched rods alias at half a period (by about 2% here).
        config = replace(preset("fig3a_dip"), spectral=SpectralParams(pump_coherence_time=6300.0))
        half = self.period(config) / 2.0
        with pytest.raises(ConfigurationError, match="alias"):
            coincidence_rate(config, -half)
        with pytest.raises(ConfigurationError, match="alias"):
            scan_delay(config, -30000.0, 1500.0)

    def test_mixed_rods_alias_along_the_pump_direction(self):
        # fig4c shifts the sum of the port delays by twice the rod delay. At
        # 378 mm the image one period away in both ports lies within a pump
        # width of it, and the grid rate read 0.12 where the closed form
        # gives 0.25.
        spectral = SpectralParams(pump_coherence_time=1000.0)
        near = replace(preset("fig4c"), spectral=spectral, rod_length=200.0)
        assert coincidence_rate(near, 0.0) == pytest.approx(oracle_rate(near, 0.0), rel=1e-3)
        with pytest.raises(ConfigurationError, match="alias"):
            coincidence_rate(replace(near, rod_length=378.0), 0.0)

    @pytest.mark.parametrize("rod_length", [1e150, 1e300])
    def test_huge_rods_are_refused(self, rod_length):
        config = replace(preset("fig4c"), rod_length=rod_length)
        with pytest.raises(ConfigurationError, match="alias"):
            scan_delay(config)


class TestPairSums:
    """The diagonal form of the pair sums against the assembled amplitude,
    on a chirped, asymmetric amplitude whose kernels are complex and whose
    rates are not even in the delay."""

    @pytest.fixture(scope="class")
    def chirped(self):
        params = SpectralParams(asymmetry_ratio=1.5)
        jsa = build_jsa(params, build_grid(params, n=64))
        nu = jsa.grid.points
        chirp = np.exp(1j * 4000.0 * nu[:, None] ** 2 + 1j * 150.0 * nu[None, :])
        return JointSpectralAmplitude(jsa.grid, jsa.values * chirp)

    @pytest.mark.parametrize("name", ["fig3a_dip", "fig3b_peak", "fig4c"])
    def test_rates_match_assembled_amplitude(self, chirped, name):
        config = replace(preset(name), analyzer1=30.0, analyzer2=75.0, pair_phase=0.7)
        delays = (-700.0, -90.0, 0.0, 250.0, 1100.0)
        rates = RateKernel(chirped).rate(enumerate_paths(config), delays)
        direct = [
            amplitude_rate(assemble_amplitude(enumerate_paths(config, d), chirped)) for d in delays
        ]
        level = sum(abs(p.coefficient) ** 2 for p in enumerate_paths(config))
        assert np.abs(rates - direct).max() <= 1e-12 * level
        assert abs(direct[1] - amplitude_rate(
            assemble_amplitude(enumerate_paths(config, 90.0), chirped)
        )) > 1e-6 * level

    def test_swapped_pairs_match_direct_sums(self, chirped):
        paths = [
            PathAmplitude("x", 1.0, delay_a, delay_b, swapped)
            for delay_a, delay_b in ((0.0, 0.0), (120.0, -340.0), (-55.0, 610.0))
            for swapped in (False, True)
        ]
        kernel = RateKernel(chirped)
        nu = chirped.grid.points
        lags = (np.arange(nu.size)[:, None] - np.arange(nu.size)[None, :]).ravel()
        for p in paths:
            for q in paths:
                f_p = chirped.values.T if p.swapped else chirped.values
                f_q = chirped.values.T if q.swapped else chirped.values
                summand = f_p * np.conj(f_q)
                summand = summand * np.exp(1j * nu[:, None] * (p.delay_a - q.delay_a))
                summand = summand * np.exp(1j * nu[None, :] * (p.delay_b - q.delay_b))
                direct = np.bincount(lags + nu.size - 1, weights=summand.real.ravel())
                direct = direct + 1j * np.bincount(
                    lags + nu.size - 1, weights=summand.imag.ravel()
                )
                sums = kernel.pair_sum(p, q) / chirped.grid.weight**2
                assert np.abs(sums - direct).max() <= 1e-12 * np.abs(direct).max()


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

    @pytest.mark.parametrize("edges", [(-math.inf, 1500.0), (-1500.0, math.inf),
                                       (math.nan, 1500.0)])
    def test_rejects_non_finite_edges(self, fig3a_dip, edges):
        with pytest.raises(ConfigurationError):
            scan_delay(fig3a_dip, *edges)


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
        from biphoton import JointSpectralAmplitude, normalize

        jsa = normalize(JointSpectralAmplitude(default_jsa.grid, default_jsa.values * scale))
        assert coincidence_rate(preset(name), 0.0, jsa=jsa) == 0.0

    def test_normalization_invariance(self, fig3a_dip, default_jsa):
        from biphoton import JointSpectralAmplitude, normalize

        rescaled = normalize(
            JointSpectralAmplitude(default_jsa.grid, default_jsa.values * 3.7)
        )
        for d in (0.0, 150.0, 600.0):
            reference = coincidence_rate(fig3a_dip, d, jsa=default_jsa)
            other = coincidence_rate(fig3a_dip, d, jsa=rescaled)
            assert abs(other - reference) / max(reference, 1e-12) < 1e-12
