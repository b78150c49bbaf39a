"""Spectral model: unit conversions, grids and the Gaussian joint amplitude."""

import math

import numpy as np
import pytest

from biphoton import (
    ConfigurationError,
    ContractViolation,
    GridSpec,
    JointSpectralAmplitude,
    PathAmplitude,
    SpectralParams,
    build_jsa,
    coherence_time_from_filter,
    enumerate_paths,
    interference_width,
    jsa_swap_distance,
    path_overlap,
    preset,
    sigma_from_coherence_time,
)
from biphoton.scan import RateKernel
from biphoton.spectral import FrequencyGrid, auto_grid, pump_ridge_sigma
from dense_reference import amplitude_values, dense_overlap

C_NM_FS = 299.792458


def l2_norm(jsa) -> float:
    """sqrt(sum |f|^2) w of the amplitude's n x n values."""
    return math.sqrt(float((np.abs(amplitude_values(jsa)) ** 2).sum())) * jsa.grid.weight


def swap_overlap_closed_form(params: SpectralParams) -> float:
    """Independent exchange-overlap formula from the Gaussian integral
    tables: P = sqrt((t^2 A + a1 a2) / (t^2 A + A^2/4)), A = a1 + a2."""
    a1 = 1.0 / (2.0 * params.sigma1**2)
    a2 = 1.0 / (2.0 * params.sigma2**2)
    t2 = params.pump_coherence_time**2
    total = a1 + a2
    return math.sqrt((t2 * total + a1 * a2) / (t2 * total + total**2 / 4.0))


class TestCoherenceTime:
    def test_reference_filter(self):
        value = coherence_time_from_filter(20.0, 780.0)
        assert value == pytest.approx(780.0**2 / (C_NM_FS * 20.0), rel=1e-15)
        assert abs(value - 100.0) < 2.0

    def test_inverse_proportionality(self):
        assert coherence_time_from_filter(40.0, 780.0) == pytest.approx(
            coherence_time_from_filter(20.0, 780.0) / 2.0, rel=1e-15
        )

    def test_pump_filter_case(self):
        # 390^2 / (c * 10) evaluated by hand: 152100 / 2997.92458
        assert coherence_time_from_filter(10.0, 390.0) == pytest.approx(50.7351, abs=1e-4)

    @pytest.mark.parametrize("fwhm,center", [(0.0, 780.0), (-1.0, 780.0), (20.0, 0.0)])
    def test_rejects_nonpositive(self, fwhm, center):
        with pytest.raises(ConfigurationError):
            coherence_time_from_filter(fwhm, center)


class TestSigmaConvention:
    def test_definition(self):
        assert sigma_from_coherence_time(120.0) == 1.0 / 120.0
        assert sigma_from_coherence_time(100.0) == 0.01

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            sigma_from_coherence_time(0.0)

    def test_autocorrelation_round_trip(self):
        # Independent oracle: sample the amplitude spectrum, build the field
        # autocorrelation magnitude by quadrature, locate the 1/sqrt(e)
        # point and compare with the nominal coherence time.
        t_c = 120.0
        sigma = sigma_from_coherence_time(t_c)
        nu = np.linspace(-12.0 * sigma, 12.0 * sigma, 40001)
        intensity = np.exp(-(nu**2) / (2.0 * sigma**2))
        norm = np.trapezoid(intensity, nu)

        def autocorr(tau: float) -> float:
            return abs(np.trapezoid(intensity * np.exp(1j * nu * tau), nu)) / norm

        target = math.exp(-0.5)
        lo, hi = 0.0, 5.0 * t_c
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if autocorr(mid) > target:
                lo = mid
            else:
                hi = mid
        recovered = 0.5 * (lo + hi)
        assert abs(recovered - t_c) / t_c < 0.01


class TestSpectralParams:
    def test_defaults(self):
        p = SpectralParams()
        assert p.pump_coherence_time == 120.0
        assert p.filter_fwhm == 20.0
        assert p.filter_center == 780.0
        assert p.asymmetry_ratio == 1.0

    def test_sigma_split(self):
        p = SpectralParams(asymmetry_ratio=2.0)
        assert p.sigma1 == pytest.approx(2.0 * p.sigma_filter, rel=1e-15)
        assert p.sigma2 == pytest.approx(p.sigma_filter / 2.0, rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pump_coherence_time": 0.0},
            {"filter_fwhm": -3.0},
            {"asymmetry_ratio": 0.0},
            {"asymmetry_ratio": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            SpectralParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pump_coherence_time": math.inf},
            {"pump_coherence_time": math.nan},
            {"filter_center": -math.inf},
            {"filter_fwhm": math.inf},
            {"asymmetry_ratio": math.nan},
        ],
    )
    def test_rejects_non_finite_values(self, kwargs):
        with pytest.raises(ConfigurationError, match="finite"):
            SpectralParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            # Widths that underflow to 0 or overflow once squared.
            {"filter_fwhm": 1e-300},
            {"filter_center": 1e200},
            {"pump_coherence_time": 1e200},
            {"asymmetry_ratio": 1e300},
            {"asymmetry_ratio": 1e-300},
            {"filter_fwhm": 1e300},
            {"filter_center": 1e-300},
        ],
    )
    def test_rejects_degenerate_widths(self, kwargs):
        with pytest.raises(ConfigurationError, match="out of range"):
            SpectralParams(**kwargs)


class TestGrid:
    def test_default_construction(self, default_params):
        grid = FrequencyGrid(256, 6.0 * default_params.sigma_max)
        pts = grid.points
        assert grid.n == 256
        assert pts.shape == (256,)
        spacing = np.diff(pts)
        assert np.all(spacing > 0)
        expected = 2.0 * 6.0 * default_params.sigma_max / 255
        assert spacing == pytest.approx(expected, rel=1e-12)
        assert grid.weight == pytest.approx(expected, rel=1e-12)
        assert np.allclose(pts + pts[::-1], 0.0, atol=1e-15)

    def test_minimal_n_accepted(self, default_params):
        assert FrequencyGrid(64, 6.0 * default_params.sigma_max).n == 64

    @pytest.mark.parametrize("n", [50, 32, 100, 63])
    def test_bad_n_rejected(self, default_params, n):
        with pytest.raises(ConfigurationError):
            auto_grid(default_params, n=n)

    @pytest.mark.parametrize("n", [16384, 1 << 40])
    def test_n_above_the_ceiling_rejected(self, default_params, n):
        with pytest.raises(ConfigurationError, match="from 64 to 8192, got"):
            auto_grid(default_params, n=n)
        with pytest.raises(ConfigurationError, match="from 64 to 8192, got"):
            GridSpec(n=n)

    def test_ceiling_accepted(self, default_params):
        assert FrequencyGrid(8192, 6.0 * default_params.sigma_max).n == 8192
        assert auto_grid(default_params, n=8192).n == 8192
        assert GridSpec(n=8192).n == 8192

    @pytest.mark.parametrize("kwargs", [{"n": 100}, {"n": 32}, {"span_sigma": 3.0}])
    def test_grid_spec_checks_its_request(self, kwargs):
        with pytest.raises(ConfigurationError, match="grid"):
            GridSpec(**kwargs)

    def test_undersized_span_rejected(self, default_params):
        with pytest.raises(ConfigurationError):
            auto_grid(default_params, span_sigma=3.0)

    @pytest.mark.parametrize("span", [math.inf, math.nan])
    def test_non_finite_span_rejected(self, default_params, span):
        with pytest.raises(ConfigurationError):
            auto_grid(default_params, span_sigma=span)

    def test_unresolvable_ridge_rejected(self):
        # A ridge some 1e149 grid steps narrower than the span.
        params = SpectralParams(pump_coherence_time=1e150)
        with pytest.raises(ConfigurationError, match="8192"):
            auto_grid(params)
        # One whose span over its width overflows a float.
        params = SpectralParams(filter_fwhm=9e156, pump_coherence_time=9e153)
        with pytest.raises(ConfigurationError, match="needs inf grid intervals, n = inf, past"):
            auto_grid(params)

    def test_unresolvable_photon_ridge_names_its_width(self):
        # At the default 120 fs pump the narrower photon of a 50:1 pair
        # binds the ridge: 12027 intervals of the span, not the pump's fault.
        params = SpectralParams(asymmetry_ratio=50.0)
        message = (
            r"ridge, 0\.000393 rad/fs wide on a span of \+-2\.96 rad/fs, needs 12026\.8 grid "
            r"intervals, n = 16384, past the largest grid, n = 8192; "
        )
        with pytest.raises(ConfigurationError, match=message):
            auto_grid(params)

    def test_auto_grid_keeps_default_resolution(self, default_params):
        assert auto_grid(default_params).n == 256

    def test_auto_grid_resolves_pump_ridge(self):
        params = SpectralParams(pump_coherence_time=6300.0)
        grid = auto_grid(params)
        assert grid.n > 256
        assert grid.n & (grid.n - 1) == 0
        assert grid.weight <= 1.25 * pump_ridge_sigma(params)


class TestGaussianJsa:
    def test_normalized(self, default_jsa):
        assert abs(l2_norm(default_jsa) - 1.0) < 1e-9

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("tau_p", [60.0, 120.0, 6300.0])
    def test_normalization_matrix(self, rho, tau_p):
        params = SpectralParams(asymmetry_ratio=rho, pump_coherence_time=tau_p)
        assert abs(l2_norm(build_jsa(params)) - 1.0) < 1e-9

    def test_exchange_symmetric_exactly(self, default_jsa):
        v = amplitude_values(default_jsa)
        assert np.array_equal(v, v.T)
        assert np.abs(v - v.T).max() <= 1e-12

    def test_exchange_symmetric_exactly_on_a_refined_grid(self):
        v = amplitude_values(build_jsa(SpectralParams(pump_coherence_time=6300.0)))
        assert v.shape == (1024, 1024)
        assert np.array_equal(v, v.T)

    # The Hankel pump sums nu1 + nu2 as nu[a] + nu[b] with a + b = i + j,
    # which rounds differently from nu[i] + nu[j]; tau_p^2 amplifies that
    # in the exponent, hence the looser bound for the longest pump.
    @pytest.mark.parametrize("tau_p,bound", [(60.0, 1e-14), (120.0, 1e-14), (630.0, 1e-14),
                                             (6300.0, 1e-13)])
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_real_and_equal_to_the_direct_formula(self, rho, tau_p, bound):
        params = SpectralParams(asymmetry_ratio=rho, pump_coherence_time=tau_p)
        jsa = build_jsa(params)
        assert amplitude_values(jsa).dtype == np.float64
        nu = jsa.grid.points
        direct = (
            np.exp(-0.5 * (tau_p * (nu[:, None] + nu[None, :])) ** 2)
            * np.exp(-(nu[:, None] ** 2) / (4.0 * params.sigma1**2))
            * np.exp(-(nu[None, :] ** 2) / (4.0 * params.sigma2**2))
        )
        direct /= math.sqrt(float((direct**2).sum())) * jsa.grid.weight
        assert np.abs(amplitude_values(jsa) - direct).max() <= bound * direct.max()
        assert l2_norm(jsa) == pytest.approx(1.0, abs=1e-14)

    def test_asymmetric_is_not_symmetric(self):
        jsa = build_jsa(SpectralParams(asymmetry_ratio=2.0))
        v = amplitude_values(jsa)
        assert not np.array_equal(v, v.T)

    @pytest.mark.parametrize("rho", [1.0, 2.0])
    def test_difference_marginal_variance(self, rho):
        # Closed-form variance of |f|^2 along nu1 - nu2 from the quadratic
        # form in sum/difference coordinates (derived independently and
        # cross-checked by quadrature while freezing this test).
        params = SpectralParams(asymmetry_ratio=rho)
        b1 = 1.0 / (8.0 * params.sigma1**2)
        b2 = 1.0 / (8.0 * params.sigma2**2)
        alpha = params.pump_coherence_time**2 + b1 + b2
        beta = b1 + b2
        gamma = b1 - b2
        expected = alpha / (2.0 * (alpha * beta - gamma**2))

        jsa = build_jsa(params)
        nu = jsa.grid.points
        w2 = jsa.grid.weight**2
        density = np.abs(amplitude_values(jsa)) ** 2
        diff = nu[:, None] - nu[None, :]
        variance = float((diff**2 * density).sum()) * w2
        assert variance == pytest.approx(expected, rel=1e-6)

    def test_cw_limit_concentrates_on_antidiagonal(self):
        params = SpectralParams(pump_coherence_time=1e5)
        grid = FrequencyGrid(256, 6.0 * params.sigma_max)
        jsa = build_jsa(params, grid)
        nu = grid.points
        total = np.abs(amplitude_values(jsa)) ** 2
        near = np.abs(nu[:, None] + nu[None, :]) <= 2.0 * grid.weight
        assert float(total[near].sum()) / float(total.sum()) > 0.999

    def test_grid_too_small_rejected(self, default_params):
        grid = FrequencyGrid(256, 6.0 * default_params.sigma_max)
        wide = SpectralParams(asymmetry_ratio=3.0)
        with pytest.raises(ConfigurationError):
            build_jsa(wide, grid)


class TestFactoredAmplitude:
    def test_build_gives_read_only_factors(self, default_jsa):
        g1, g2, pump = default_jsa.factors
        n = default_jsa.grid.n
        assert (g1.shape, g2.shape, pump.shape) == ((n,), (n,), (2 * n - 1,))
        assert not any(f.flags.writeable for f in default_jsa.factors)
        assert np.array_equal(g1, g2)

    def test_filter_factors_need_finite_fourth_powers(self, default_jsa):
        # The rate engine forms a(i) b(j), a product of four filter factors,
        # before it weighs it with pump^2; where that is 0 the product must
        # be finite, or inf * 0 would put nan into the sums.
        grid = default_jsa.grid
        g1, g2, pump = default_jsa.factors
        with pytest.raises(ContractViolation, match="fourth powers"):
            JointSpectralAmplitude(grid, factors=(g1, np.where(g2 > 0.5, 1e100, g2), pump))
        JointSpectralAmplitude(grid, factors=(g1, g2, np.where(pump > 0.5, 1e100, pump)))

    def test_factors_need_the_grid_lengths_and_finite_squares(self, default_jsa):
        grid = default_jsa.grid
        g1, g2, pump = default_jsa.factors
        with pytest.raises(ContractViolation, match="2n - 1"):
            JointSpectralAmplitude(grid, factors=(g1, g2, pump[1:]))
        for bad in (np.inf, np.nan, 1e200, 1e200j, complex(np.nan, 0.0)):
            with pytest.raises(ContractViolation, match="finite squares"):
                JointSpectralAmplitude(grid, factors=(g1, np.where(g2 > 0.5, g2, bad), pump))
        # A spectral phase on either photon, or on the pump, is a complex
        # factor; the engine conjugates where the kernel needs it.
        chirp = np.exp(1j * 150.0 * grid.points)
        for complex_ in ((g1 * chirp, g2, pump), (g1, g2 * chirp, pump), (g1, g2, pump + 0j)):
            jsa = JointSpectralAmplitude(grid, factors=complex_)
            assert [f.dtype for f in jsa.factors] == [f.dtype for f in complex_]

    def test_arrays_must_be_float_or_complex(self, default_jsa):
        # Integer squares wrap (2^40 squared sums to 0 in int64), and bool
        # arrays have no meaningful norm.
        grid = default_jsa.grid
        g1, g2, pump = default_jsa.factors
        n = grid.n
        for bad in (np.full(n, 2**40, dtype=np.int64), np.ones(n, dtype=bool)):
            with pytest.raises(ContractViolation, match=str(bad.dtype)):
                JointSpectralAmplitude(grid, factors=(g1, bad, pump))
        # Narrower floats are kept as float64 and complex128.
        single = JointSpectralAmplitude(grid, factors=(g1.astype(np.complex64), g2, pump))
        assert single.factors[0].dtype == np.complex128
        assert l2_norm(single) == pytest.approx(1.0, abs=1e-6)


class TestNormalize:
    """The n x n values are the factors' product divided by its L2 norm."""

    def test_rescales_any_positive_factor(self, default_jsa):
        g1, g2, pump = default_jsa.factors
        scaled = JointSpectralAmplitude(default_jsa.grid, factors=(17.5 * g1, g2, pump))
        assert abs(l2_norm(scaled) - 1.0) < 1e-12

    def test_complex_amplitude_counts_both_parts(self, default_jsa):
        g1, g2, pump = default_jsa.factors
        chirp = np.exp(1j * 3000.0 * default_jsa.grid.points**2)
        chirped = JointSpectralAmplitude(default_jsa.grid, factors=(g1 * chirp, g2, pump))
        assert l2_norm(chirped) == pytest.approx(1.0, abs=1e-14)
        scaled = JointSpectralAmplitude(chirped.grid, factors=(4.5 * g1 * chirp, g2, pump))
        assert l2_norm(scaled) == pytest.approx(1.0, abs=1e-14)

    def test_zero_amplitude_rejected(self, default_jsa):
        g1, g2, pump = default_jsa.factors
        zero = JointSpectralAmplitude(default_jsa.grid, factors=(g1, g2, np.zeros_like(pump)))
        with pytest.raises(ContractViolation):
            amplitude_values(zero)
        with pytest.raises(ContractViolation):
            RateKernel(zero)._total


class TestSwapDistance:
    def test_symmetric_is_exactly_zero(self, default_jsa):
        assert jsa_swap_distance(default_jsa) == 0.0

    def test_a_zero_amplitude_is_refused_however_symmetric(self, default_jsa):
        # Equal filter factors make the amplitude symmetric bit for bit; its
        # zero pump leaves nothing to normalize, as for the path overlap.
        g, _, pump = default_jsa.factors
        zero = JointSpectralAmplitude(default_jsa.grid, factors=(g, g, np.zeros_like(pump)))
        assert zero.symmetric
        paths = enumerate_paths(preset("fig3a_dip"))
        for overlap in (lambda: jsa_swap_distance(zero), lambda: path_overlap(paths, zero)):
            with pytest.raises(ContractViolation, match="normalize"):
                overlap()

    def test_matches_closed_form(self):
        params = SpectralParams(asymmetry_ratio=2.0)
        distance = jsa_swap_distance(build_jsa(params))
        assert distance == pytest.approx(1.0 - swap_overlap_closed_form(params), abs=1e-8)
        assert 0.0 < distance < 1.0

    def test_agrees_with_the_dense_reference(self, reference_jsa):
        unswapped = PathAmplitude("unswapped", 1.0, 0.0, 0.0, False)
        swapped = PathAmplitude("swapped", 1.0, 0.0, 0.0, True)
        expected = 1.0 - abs(dense_overlap([unswapped, swapped], reference_jsa))
        assert abs(jsa_swap_distance(reference_jsa) - expected) <= 1e-12

    def test_increases_with_log_ratio(self):
        distances = [
            jsa_swap_distance(build_jsa(SpectralParams(asymmetry_ratio=rho)))
            for rho in (1.0, 1.25, 1.5, 2.0, 3.0)
        ]
        assert all(b > a for a, b in zip(distances, distances[1:]))

    def test_reciprocal_ratio_matches(self):
        d_half = jsa_swap_distance(build_jsa(SpectralParams(asymmetry_ratio=0.5)))
        d_two = jsa_swap_distance(build_jsa(SpectralParams(asymmetry_ratio=2.0)))
        assert d_half == pytest.approx(d_two, rel=1e-9)

    def test_scale_of_the_factors_does_not_matter(self):
        jsa = build_jsa(SpectralParams(asymmetry_ratio=2.0))
        g1, g2, pump = jsa.factors
        scaled = JointSpectralAmplitude(jsa.grid, factors=(2.0 * g1, g2, 3.0 * pump))
        assert jsa_swap_distance(scaled) == pytest.approx(jsa_swap_distance(jsa), abs=1e-15)


def test_interference_width_equals_filter_time_for_symmetric_pair(default_params):
    assert interference_width(default_params) == pytest.approx(
        default_params.filter_coherence_time, rel=1e-12
    )
