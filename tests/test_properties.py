"""Randomized invariants of the rate engine, beyond the fixed verify lattice.

Each property draws the pair's asymmetry, the pump coherence time (kept to
grids of n <= 1024), the rod geometry, both analyzers, the source phase
and the trombone delays; one more draws from the whole input space the
command line accepts, and one the dtypes, lengths and entries of the
factors an amplitude is built from. The examples are derandomized, so
every run checks the same inputs.
"""

import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from biphoton import (
    PRESET_NAMES,
    ConfigurationError,
    ContractViolation,
    ExperimentConfig,
    FrequencyGrid,
    GridSpec,
    JointSpectralAmplitude,
    RodAxis,
    SpectralParams,
    auto_grid,
    build_jsa,
    coincidence_rate,
    enumerate_paths,
    oracle_rate,
    preset,
    scan_delay,
)
from biphoton import scan
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
    result = scan_delay(config, -1500.0, 1500.0, 41, kernel=RateKernel(jsa))
    for i in indices:
        single = coincidence_rate(config, float(result.delays[i]), kernel=RateKernel(jsa))
        assert result.rates[i] == single


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


def log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


@st.composite
def accepted_inputs(draw):
    """A config from the whole input space that a config file accepts, and
    1 to 5 delays within +-1500, +-5000, +-15000 or +-50000 fs: rods that
    move the pair emission time, raised grids, and delays past the alias
    period of the default grid, which raise the planned one."""
    spectral = SpectralParams(
        asymmetry_ratio=draw(log_uniform(0.25, 4.0)),
        pump_coherence_time=draw(log_uniform(20.0, 20000.0)),
    )
    config = ExperimentConfig(
        qr1_axis=draw(st.sampled_from(RodAxis)),
        qr2_axis=draw(st.sampled_from(RodAxis)),
        rod_length=draw(st.floats(0.0, 80.0)),
        analyzer1=draw(angles),
        analyzer2=draw(angles),
        pair_phase=draw(st.floats(0.0, 2.0 * math.pi)),
        spectral=spectral,
        grid=GridSpec(n=draw(st.sampled_from([256, 512, 2048]))),
    )
    reach = draw(st.sampled_from([1500.0, 5000.0, 15000.0, 50000.0]))
    ds = draw(st.lists(st.floats(-reach, reach), min_size=1, max_size=5))
    return config, ds


def assert_smallest_grid(config, ds, grid):
    """``grid`` passes the alias bound of the delays ``ds``, and when it is
    finer than both the request and the ridge rule ask, half of it does not."""
    paths = enumerate_paths(config)
    assert scan._alias(config.spectral, paths, min(ds), max(ds), grid) is None
    if grid.n > max(config.grid.n, config.frequency_grid().n):
        half = replace(config, grid=GridSpec(n=grid.n // 2)).frequency_grid()
        assert scan._alias(config.spectral, paths, min(ds), max(ds), half) is not None


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(accepted_inputs())
def test_the_planned_grid_is_the_smallest_that_reads_no_alias(drawn):
    # Planning builds nothing, so many more draws than the oracle check's.
    config, ds = drawn
    try:
        grid = scan._rate_grid(config, min(ds), max(ds))
    except ConfigurationError as exc:
        # Only past the largest grid, naming the alias or the ridge rule.
        assert "n = 8192" in str(exc) and ("alias" in str(exc) or "ridge" in str(exc))
        return
    assert_smallest_grid(config, ds, grid)


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(accepted_inputs())
def test_accepted_inputs_match_the_oracle(drawn):
    # Either the delays are refused before any amplitude is built, or every
    # rate matches the closed form, with the floor of test_engine_matches_oracle,
    # on the smallest grid that the alias bound accepts.
    config, ds = drawn
    with mock.patch.object(scan, "build_jsa", wraps=scan.build_jsa) as built:
        try:
            rates = coincidence_rate(config, ds)
        except ConfigurationError:
            assert not built.called
            return
    assert_smallest_grid(config, ds, built.call_args.args[1])
    floor = 1e-2 * _level(config)
    for d, engine in zip(ds, rates):
        reference = oracle_rate(config, d)
        assert abs(engine - reference) <= 1e-3 * max(reference, floor)


INEXACT_DTYPES = [np.float16, np.float32, np.float64, np.complex64, np.complex128]


@st.composite
def factor_tuples(draw):
    """The factors of a Gaussian amplitude on 64 points, each chirped or
    not and of a drawn float or complex dtype, a complex one refused; one
    of them may instead be of an integer or bool dtype, one off in length,
    or hold a non-finite or huge entry."""
    params = SpectralParams(asymmetry_ratio=draw(st.sampled_from([0.5, 1.0, 2.0])))
    grid = FrequencyGrid(64, 6.0 * params.sigma_max)
    factors = []
    for base in build_jsa(params, grid).factors:
        size = len(base)
        factors.append(base * np.exp(1j * draw(st.floats(-3.0, 3.0)) * np.arange(size) ** 2 / size))
    dtypes = [draw(st.sampled_from(INEXACT_DTYPES)) for _ in factors]
    index = draw(st.integers(0, 2))
    fault = draw(st.sampled_from([None, None, "dtype", "length", "entry"]))
    if fault == "dtype":
        dtypes[index] = draw(st.sampled_from([np.int64, np.bool_]))
    elif fault == "length":
        f = factors[index]
        factors[index] = f[:-1] if draw(st.booleans()) else np.append(f, f[-1])
    elif fault == "entry":
        entry = draw(st.integers(0, len(factors[index]) - 1))
        factors[index][entry] = draw(st.sampled_from([math.nan, math.inf, 1e200, 1e200j]))
    # Casts drop imaginary parts, wrap or overflow here on purpose.
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return grid, tuple(f.astype(dtype) for f, dtype in zip(factors, dtypes))


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(factor_tuples())
def test_factors_are_accepted_or_refused_with_a_contract_violation(drawn):
    # An accepted amplitude is real and normalizes; any other exception, a
    # warning from the suite's filters included, fails the property.
    grid, factors = drawn
    try:
        total = RateKernel(JointSpectralAmplitude(grid, factors=factors))._total
    except ContractViolation:
        return
    assert not any(np.iscomplexobj(f) for f in factors)
    assert total > 0.0 and math.isfinite(total)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    n=st.one_of(st.integers(-2, 1 << 15), st.sampled_from([1 << k for k in range(16)])),
    half_width=st.one_of(st.floats(), st.floats(1e-320, 1e308), st.sampled_from([1e-323, 1e308])),
)
@example(n=100, half_width=1.0)
@example(n=16384, half_width=1.0)
def test_a_grid_is_accepted_exactly_on_its_contract(n, half_width):
    # A power of two from 2 to 8192 and a positive half-width whose spacing
    # 2 half_width / (n - 1) neither overflows nor underflows to zero.
    power = 2 <= n <= 8192 and n & (n - 1) == 0
    if not (power and 0.0 < 2.0 * half_width / (n - 1) < math.inf):
        with pytest.raises(ContractViolation, match="grid (n|half-width) .* (is not|gives no)"):
            FrequencyGrid(n, half_width)
        return
    grid = FrequencyGrid(n, half_width)
    assert (grid.n, grid.half_width) == (n, half_width)
    assert grid.points.tobytes() == np.linspace(-half_width, half_width, n).tobytes()
    assert not grid.points.flags.writeable
    assert grid.weight == 2.0 * half_width / (n - 1)
