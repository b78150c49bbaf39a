"""Closed-form reference: cross-checked against direct quadrature."""

import math
from dataclasses import replace

import numpy as np
import pytest

from biphoton import (
    PRESET_NAMES,
    ContractViolation,
    SpectralParams,
    build_jsa,
    coincidence_rate,
    enumerate_paths,
    jsa_swap_distance,
    oracle_rate,
    oracle_visibility,
    path_overlap,
    preset,
)


def brute_force_rate(config, d, n=1601, span=9.0):
    """Independent trapezoid quadrature of the defining rate integral,
    written from scratch for this test (no engine code paths)."""
    p = config.spectral
    half = span * max(p.sigma1, p.sigma2)
    nu = np.linspace(-half, half, n)
    n1 = nu[:, None]
    n2 = nu[None, :]
    f = np.exp(
        -0.5 * (p.pump_coherence_time * (n1 + n2)) ** 2
        - n1**2 / (4.0 * p.sigma1**2)
        - n2**2 / (4.0 * p.sigma2**2)
    )
    norm = np.trapezoid(np.trapezoid(np.abs(f) ** 2, nu, axis=1), nu)
    f = f / math.sqrt(norm)

    total = np.zeros((n, n), dtype=complex)
    for path in enumerate_paths(config, d):
        base = f.T if path.swapped else f
        phases = np.exp(1j * (n1 * path.delay_a + n2 * path.delay_b))
        total = total + path.coefficient * base * phases
    return float(np.trapezoid(np.trapezoid(np.abs(total) ** 2, nu, axis=1), nu))


@pytest.mark.parametrize(
    "name,rho,tau_p,d",
    [
        ("fig3a_dip", 1.0, 120.0, 0.0),
        ("fig3a_dip", 1.0, 120.0, 80.0),
        ("fig3a_peak", 1.0, 120.0, -150.0),
        ("fig3b_dip", 1.7, 120.0, 60.0),
        ("fig4c", 1.0, 120.0, 0.0),
        ("fig4c", 1.0, 250.0, 200.0),
        ("fig3a_dip", 0.6, 90.0, 40.0),
    ],
)
def test_oracle_matches_brute_quadrature(name, rho, tau_p, d):
    config = replace(
        preset(name),
        spectral=SpectralParams(asymmetry_ratio=rho, pump_coherence_time=tau_p),
    )
    assert oracle_rate(config, d) == pytest.approx(brute_force_rate(config, d), rel=1e-6)


class TestClosedFormValues:
    def test_ideal_dip_is_zero(self, fig3a_dip):
        for config in (fig3a_dip, preset("fig3b_dip")):
            assert oracle_visibility(config) == 1.0
            assert oracle_rate(config, 0.0) == 0.0

    def test_wings_reach_the_baseline(self, fig3a_dip):
        # At 1e9 fs the cross factor is exactly 0, leaving the baseline.
        baseline = oracle_rate(fig3a_dip, 1e9)
        assert baseline == pytest.approx(0.25, rel=1e-15)
        assert oracle_rate(fig3a_dip, 2000.0) == pytest.approx(baseline, rel=1e-12)

    def test_pump_clock_suppression(self):
        config = preset("fig4c")
        p = config.spectral
        s = 1.0 / (4.0 * p.sigma1**2) + 1.0 / (4.0 * p.sigma2**2)
        bound = math.exp(-(630.0**2) / (2.0 * (2.0 * p.pump_coherence_time**2 + s)))
        # Balanced coefficients and an extremal delay of 0: the visibility
        # is the cross factor at d = 0.
        overlap = oracle_visibility(config)
        assert overlap == pytest.approx(bound, rel=1e-12)
        assert overlap < 0.02

    def test_cw_limit_restores_interference(self):
        config = replace(
            preset("fig4c"), spectral=SpectralParams(pump_coherence_time=1e5)
        )
        assert oracle_visibility(config) >= 0.9

    def test_rate_nonnegative_on_a_lattice(self):
        for name in ("fig3a_dip", "fig3a_peak", "fig4c"):
            config = preset(name)
            for d in np.linspace(-1200.0, 1200.0, 9):
                assert oracle_rate(config, float(d)) >= 0.0


class TestOracleVisibility:
    def test_symmetric_pair_is_ideal(self, fig3a_dip):
        assert oracle_visibility(fig3a_dip) == pytest.approx(1.0, abs=1e-12)

    def test_asymmetry_matches_swap_distance_and_overlap(self):
        config = replace(preset("fig3a_dip"), spectral=SpectralParams(asymmetry_ratio=2.0))
        v = oracle_visibility(config)
        jsa = build_jsa(config.spectral)
        assert v == pytest.approx(1.0 - jsa_swap_distance(jsa), abs=1e-8)
        assert v == pytest.approx(abs(path_overlap(enumerate_paths(config), jsa)), abs=1e-9)

    def test_fig4c_defaults_suppressed(self):
        assert oracle_visibility(preset("fig4c")) < 0.02

    def test_analyzer_at_zero_kills_reflected_path(self, fig3a_dip):
        config = replace(fig3a_dip, analyzer1=0.0, analyzer2=0.0)
        # Only tt is left: no cross term, so the rate is its weight at every delay.
        assert oracle_visibility(config) == 0.0
        rates = oracle_rate(config, np.linspace(-1500.0, 1500.0, 31))
        assert set(rates.tolist()) == {oracle_rate(config, 0.0)}
        assert oracle_rate(config, 0.0) == pytest.approx(0.5, rel=1e-12)


def test_engine_matches_oracle_on_asymmetric_jsa():
    config = replace(preset("fig3a_dip"), spectral=SpectralParams(asymmetry_ratio=2.0))
    for d in (-300.0, 0.0, 90.0, 500.0):
        engine = coincidence_rate(config, d)
        reference = oracle_rate(config, d)
        assert abs(engine - reference) < 1e-3 * oracle_rate(config, 1e9)


def test_engine_matches_oracle_spot_checks():
    config = replace(
        preset("fig3a_dip"),
        spectral=SpectralParams(asymmetry_ratio=1.3, pump_coherence_time=200.0),
    )
    for d in (0.0, -120.0, 120.0, 400.0):
        engine = coincidence_rate(config, d)
        reference = oracle_rate(config, d)
        assert engine == pytest.approx(reference, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("rod_length", [1e150, 1e300])
def test_huge_rod_delays_saturate_the_cross_factor(rod_length):
    # |Delta_a + Delta_b| is past 1e154, where squaring with ** overflows.
    config = replace(preset("fig4c"), rod_length=rod_length)
    # The extremal delay of fig4c is 0, so the visibility is the cross
    # factor there; the rate is the baseline of the preset's own rods.
    assert oracle_visibility(config) == 0.0
    assert oracle_rate(config, 0.0) == oracle_rate(preset("fig4c"), 1e9)
    assert math.isfinite(oracle_rate(config, 0.0))


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
def test_oracle_rates_equal_oracle_rate_exactly(name, rho):
    config = replace(
        preset(name), spectral=SpectralParams(asymmetry_ratio=rho, pump_coherence_time=630.0)
    )
    rng = np.random.default_rng(PRESET_NAMES.index(name))
    delays = np.concatenate((rng.uniform(-5000.0, 5000.0, 40), np.linspace(-1500.0, 1500.0, 151)))
    singles = [oracle_rate(config, float(d)) for d in delays]
    from_numpy = [oracle_rate(config, d) for d in delays]
    assert {type(rate) for rate in singles + from_numpy} == {float}
    assert from_numpy == singles
    for given in (delays, delays.tolist(), tuple(delays.tolist())):
        rates = oracle_rate(config, given)
        assert isinstance(rates, np.ndarray)
        assert rates.dtype == np.float64 and rates.shape == delays.shape
        assert rates.tobytes() == np.array(singles).tobytes()

