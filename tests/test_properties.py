"""Randomized invariants of the rate engine, beyond the fixed verify lattice.

Each property draws the pair's asymmetry, the pump coherence time (kept to
grids of n <= 1024), the rod geometry, both analyzers, the source phase
and the trombone delays. The examples are derandomized, so every run
checks the same inputs.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from biphoton import (
    PRESET_NAMES,
    SpectralParams,
    auto_grid,
    build_jsa,
    coincidence_rate,
    enumerate_paths,
    oracle_rate,
    preset,
    scan_delay,
)
from biphoton.scan import RateKernel

PROPERTY_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

angles = st.floats(-180.0, 180.0, allow_nan=False)
delays = st.floats(-1500.0, 1500.0, allow_nan=False)


@st.composite
def configs(draw):
    spectral = SpectralParams(
        asymmetry_ratio=draw(st.floats(0.5, 2.0)),
        pump_coherence_time=math.exp(draw(st.floats(math.log(30.0), math.log(6300.0)))),
    )
    grid = auto_grid(spectral)
    assume(grid.n <= 1024)
    config = replace(
        preset(draw(st.sampled_from(PRESET_NAMES))),
        spectral=spectral,
        analyzer1=draw(angles),
        analyzer2=draw(angles),
        pair_phase=draw(st.floats(0.0, 2.0 * math.pi)),
    )
    return config, build_jsa(spectral, grid)


def _level(config) -> float:
    """The non-interfering rate: the sum of the squared path coefficients."""
    return sum(abs(p.coefficient) ** 2 for p in enumerate_paths(config))


@PROPERTY_SETTINGS
@given(configs(), st.lists(st.integers(0, 40), min_size=1, max_size=3))
def test_scan_points_match_single_rates(drawn, indices):
    config, jsa = drawn
    result = scan_delay(config, -1500.0, 1500.0, 41, jsa=jsa)
    for i in indices:
        assert result.rates[i] == coincidence_rate(config, float(result.delays[i]), jsa=jsa)


@PROPERTY_SETTINGS
@given(configs(), st.lists(delays, min_size=1, max_size=4))
def test_engine_matches_oracle(drawn, ds):
    # Relative to the rate, floored at 1% of the non-interfering level:
    # near a perfect dip the relative error of a cancelled difference
    # measures rounding, not the engine.
    config, jsa = drawn
    rates = RateKernel(jsa).rate(enumerate_paths(config), ds)
    floor = 1e-2 * _level(config)
    for d, engine in zip(ds, rates):
        reference = oracle_rate(config, d)
        assert abs(engine - reference) <= 1e-3 * max(reference, floor)


@PROPERTY_SETTINGS
@given(configs(), st.lists(delays, min_size=2, max_size=5))
def test_dip_plus_peak_is_constant(drawn, ds):
    # Turning analyzer 2 by -90 deg, as from fig3a_dip to fig3a_peak,
    # flips the sign of the cross term only.
    config, jsa = drawn
    kernel = RateKernel(jsa)
    peak = replace(config, analyzer2=config.analyzer2 - 90.0)
    totals = kernel.rate(enumerate_paths(config), ds) + kernel.rate(enumerate_paths(peak), ds)
    level = _level(config) + _level(peak)
    assume(level > 0.0)
    assert np.ptp(totals) <= 1e-9 * level


@PROPERTY_SETTINGS
@given(configs(), st.lists(delays, min_size=2, max_size=5))
def test_analyzer_completeness(drawn, ds):
    # Summed over both outcomes of both analyzers, the rate is the pair
    # rate itself, whatever the delay.
    config, jsa = drawn
    kernel = RateKernel(jsa)
    totals = np.zeros(len(ds))
    for turn1 in (0.0, 90.0):
        for turn2 in (0.0, 90.0):
            rotated = replace(
                config, analyzer1=config.analyzer1 + turn1, analyzer2=config.analyzer2 + turn2
            )
            totals += kernel.rate(enumerate_paths(rotated), ds)
    assert totals == pytest.approx(np.full(len(ds), 1.0), rel=1e-9)
