"""Named experiment configurations and parameter-sweep helpers.

The port naming convention lives here: beamsplitter port A feeds detector
D2 (analyzer 2), port B feeds detector D1 (analyzer 1). With both rod axes
vertical this puts the port-A photon ahead of the port-B photon by the rod
group delay, i.e. D2 fires first.

The default scan window of +-1500 fs with 151 points is an artifact
default chosen to resolve the ~100 fs interference structure and leave
generous wings for baseline estimation; it is not a measured quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Iterable

from .elements import RodAxis
from .errors import ConfigurationError, ContractViolation
from .scan import (
    DEFAULT_SCAN_MAX,
    DEFAULT_SCAN_MIN,
    DEFAULT_SCAN_STEPS,
    MAX_SWEEP_ROWS,
    RateKernel,
    _rate_grid,
    _scan_delays,
    scan_delay,
)
from .spectral import (
    FrequencyGrid, SpectralParams, _check_field_types, _check_grid_request, auto_grid, build_jsa
)


@dataclass(frozen=True)
class GridSpec:
    """Requested grid resolution: n a power of two from 64 to 8192 and a
    span of at least 4 sigma, checked on construction. The engine may raise
    n (power-of-two steps) when the spectral model needs finer sampling."""

    n: int = 256
    span_sigma: float = 6.0

    def __post_init__(self) -> None:
        _check_field_types(self)
        _check_grid_request(self.n, self.span_sigma)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full interferometer description.

    Units: rod_length in mm, analyzer angles in degrees, pair_phase in
    radians. The half-wave plate of arm 1 is fixed at 45 deg, and the
    trombone delay is not part of the configuration: scans and rates take
    it as an argument. Defaults are the reference setup: 20 mm rods, both
    analyzers at 45 deg, 120 fs pump coherence, 20 nm filters at 780 nm.
    """

    qr1_axis: RodAxis = RodAxis.VERTICAL
    qr2_axis: RodAxis = RodAxis.VERTICAL
    rod_length: float = 20.0
    analyzer1: float = 45.0
    analyzer2: float = 45.0
    pair_phase: float = 0.0
    spectral: SpectralParams = SpectralParams()
    grid: GridSpec = GridSpec()

    def __post_init__(self) -> None:
        _check_field_types(self)
        if self.rod_length < 0:
            raise ConfigurationError(f"rod_length must be >= 0 mm, got {self.rod_length}")

    @property
    def analyzer_port_a(self) -> float:
        """Analyzer angle at port A, which feeds detector D2."""
        return self.analyzer2

    @property
    def analyzer_port_b(self) -> float:
        """Analyzer angle at port B, which feeds detector D1."""
        return self.analyzer1

    def frequency_grid(self) -> FrequencyGrid:
        return auto_grid(self.spectral, self.grid.n, self.grid.span_sigma)


# The fields in which each preset differs from the reference setup.
_PRESET_FIELDS = {
    "fig3a_dip": dict(qr1_axis=RodAxis.VERTICAL, qr2_axis=RodAxis.VERTICAL),
    "fig3a_peak": dict(qr1_axis=RodAxis.VERTICAL, qr2_axis=RodAxis.VERTICAL, analyzer2=-45.0),
    "fig3b_dip": dict(qr1_axis=RodAxis.HORIZONTAL, qr2_axis=RodAxis.HORIZONTAL),
    "fig3b_peak": dict(qr1_axis=RodAxis.HORIZONTAL, qr2_axis=RodAxis.HORIZONTAL, analyzer2=-45.0),
    "fig4c": dict(qr1_axis=RodAxis.VERTICAL, qr2_axis=RodAxis.HORIZONTAL),
}

PRESET_NAMES = tuple(_PRESET_FIELDS)


def preset(name: str) -> ExperimentConfig:
    """Named configurations.

    fig3a_*: both rods vertical (interference although the photons reach
    the beamsplitter 630 fs apart). fig3b_*: both rods horizontal (same
    curves, reversed firing order). *_dip: analyzers 45/45, *_peak:
    analyzers 45/-45. fig4c: rod 1 vertical, rod 2 horizontal; the photons
    overlap on the beamsplitter but the two paths are distinguishable by
    their pair emission time, so the rate curve stays flat.
    """
    try:
        fields_of_preset = _PRESET_FIELDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
        ) from None
    return ExperimentConfig(**fields_of_preset)


def _config_keys() -> dict[str, tuple[str | None, str, type]]:
    """The keys of ExperimentConfig's own fields, of its SpectralParams and,
    prefixed ``grid_``, of its GridSpec, each mapped to (the field that
    holds the nested dataclass or None, the field name, the value type)."""
    default = ExperimentConfig()
    groups = (
        (None, default, ""),
        ("spectral", default.spectral, ""),
        ("grid", default.grid, "grid_"),
    )
    return {
        prefix + f.name: (group, f.name, type(getattr(owner, f.name)))
        for group, owner, prefix in groups
        for f in fields(owner)
        if not is_dataclass(getattr(owner, f.name))
    }


#: Every settable configuration value, as read from the dataclass fields.
CONFIG_KEYS = _config_keys()

#: The keys a sweep may vary: every real-valued key outside the grid.
SWEEP_AXES = tuple(
    key for key, (group, _, kind) in CONFIG_KEYS.items() if kind is float and group != "grid"
)

#: The sweep axes that set only the path coefficients, so that every row
#: reads the same pair sums off one shared kernel. A rod_length row moves the
#: path delays and would add a cross-pair sum to a shared kernel's cache.
REWEIGHTING_AXES = ("analyzer1", "analyzer2", "pair_phase")


def with_value(config: ExperimentConfig, key: str, value) -> ExperimentConfig:
    """``config`` with the value of one config key replaced."""
    try:
        group, name, _ = CONFIG_KEYS[key]
    except KeyError:
        raise ConfigurationError(f"unknown key {key!r}") from None
    if group is None:
        return replace(config, **{name: value})
    return replace(config, **{group: replace(getattr(config, group), **{name: value})})


@dataclass(frozen=True)
class SweepRow:
    value: float
    visibility: float
    kind: str
    extremum: float
    baseline: float


def run_sweep(
    base: ExperimentConfig,
    axis: str,
    values: Iterable[float],
    d_min: float = DEFAULT_SCAN_MIN,
    d_max: float = DEFAULT_SCAN_MAX,
    steps: int = DEFAULT_SCAN_STEPS,
) -> list[SweepRow]:
    """One delay scan of ``base`` per value of the config key ``axis``, the
    values read once from any iterable and the axis, row count and values
    checked first, rows in input order; a sweep over ``REWEIGHTING_AXES``
    shares one kernel on the finest grid a row needs.

    The package's own errors name the row they came from; any other
    exception propagates unchanged.
    """
    if axis not in SWEEP_AXES:
        raise ConfigurationError(
            f"unknown sweep axis {axis!r}; valid axes: {', '.join(sorted(SWEEP_AXES))}"
        )
    values = tuple(values)
    if not 1 <= len(values) <= MAX_SWEEP_ROWS:
        raise ConfigurationError(
            f"sweep needs between 1 and {MAX_SWEEP_ROWS} values, got {len(values)}"
        )

    def in_row(i, call, *args, **kwargs):
        try:
            return call(*args, **kwargs)
        except (ConfigurationError, ContractViolation) as exc:
            raise type(exc)(f"sweep row {i} ({axis}={values[i]}): {exc}") from exc

    configs = [in_row(i, with_value, base, axis, v) for i, v in enumerate(values)]
    kernel = None
    if axis in REWEIGHTING_AXES:
        # A bad window is refused as such before it is read as aliasing delays.
        in_row(0, _scan_delays, base.spectral, d_min, d_max, steps)
        grids = (in_row(i, _rate_grid, c, d_min, d_max) for i, c in enumerate(configs))
        kernel = RateKernel(build_jsa(base.spectral, max(grids, key=lambda grid: grid.n)))
    rows = []
    for i, (value, config) in enumerate(zip(values, configs)):
        scan = in_row(i, scan_delay, config, d_min, d_max, steps, kernel=kernel)
        rows.append(SweepRow(value, scan.visibility, scan.kind, scan.extremum, scan.baseline))
    return rows
