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

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .elements import ElementChain, QuartzRod, RodAxis
from .errors import ConfigurationError, ContractViolation
from .scan import (
    DEFAULT_SCAN_MAX,
    DEFAULT_SCAN_MIN,
    DEFAULT_SCAN_STEPS,
    scan_delay,
)
from .spectral import FrequencyGrid, SpectralParams, auto_grid


@dataclass(frozen=True)
class GridSpec:
    """Requested grid resolution; the engine may raise n (power-of-two
    steps) when the spectral model needs finer sampling."""

    n: int = 256
    span_sigma: float = 6.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Full interferometer description.

    Units: rod_length in mm, angles in degrees, trombone_delay in fs,
    pair_phase in radians. Defaults are the reference setup: 20 mm rods,
    half-wave plate at 45 deg, both analyzers at 45 deg, 120 fs pump
    coherence, 20 nm filters at 780 nm from a 390 nm pump.
    """

    qr1_axis: RodAxis = RodAxis.VERTICAL
    qr2_axis: RodAxis = RodAxis.VERTICAL
    rod_length: float = 20.0
    hwp_angle: float = 45.0
    analyzer1: float = 45.0
    analyzer2: float = 45.0
    trombone_delay: float = 0.0
    pair_phase: float = 0.0
    spectral: SpectralParams = SpectralParams()
    grid: GridSpec = GridSpec()

    def __post_init__(self) -> None:
        for name in ("rod_length", "hwp_angle", "analyzer1", "analyzer2",
                     "trombone_delay", "pair_phase"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
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

    def element_chain(self) -> ElementChain:
        return ElementChain(
            arm1_rod=QuartzRod(self.qr1_axis, self.rod_length),
            arm2_rod=QuartzRod(self.qr2_axis, self.rod_length),
            trombone_delay=self.trombone_delay,
            hwp_angle=self.hwp_angle,
            analyzer_port_a=self.analyzer_port_a,
            analyzer_port_b=self.analyzer_port_b,
        )

    def frequency_grid(self) -> FrequencyGrid:
        return auto_grid(self.spectral, self.grid.n, self.grid.span_sigma)


PRESET_NAMES = ("fig3a_dip", "fig3a_peak", "fig3b_dip", "fig3b_peak", "fig4c")


def preset(name: str) -> ExperimentConfig:
    """Named configurations.

    fig3a_*: both rods vertical (interference although the photons reach
    the beamsplitter 630 fs apart). fig3b_*: both rods horizontal (same
    curves, reversed firing order). *_dip: analyzers 45/45, *_peak:
    analyzers 45/-45. fig4c: rod 1 vertical, rod 2 horizontal; the photons
    overlap on the beamsplitter but the two paths are distinguishable by
    their pair emission time, so the rate curve stays flat.
    """
    base = ExperimentConfig()
    table = {
        "fig3a_dip": replace(base, qr1_axis=RodAxis.VERTICAL, qr2_axis=RodAxis.VERTICAL),
        "fig3a_peak": replace(
            base, qr1_axis=RodAxis.VERTICAL, qr2_axis=RodAxis.VERTICAL, analyzer2=-45.0
        ),
        "fig3b_dip": replace(base, qr1_axis=RodAxis.HORIZONTAL, qr2_axis=RodAxis.HORIZONTAL),
        "fig3b_peak": replace(
            base, qr1_axis=RodAxis.HORIZONTAL, qr2_axis=RodAxis.HORIZONTAL, analyzer2=-45.0
        ),
        "fig4c": replace(base, qr1_axis=RodAxis.VERTICAL, qr2_axis=RodAxis.HORIZONTAL),
    }
    try:
        return table[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
        ) from None


def _set_spectral(field_name: str) -> Callable[[ExperimentConfig, float], ExperimentConfig]:
    def setter(config: ExperimentConfig, value: float) -> ExperimentConfig:
        return replace(config, spectral=replace(config.spectral, **{field_name: value}))

    return setter


def _set_top(field_name: str) -> Callable[[ExperimentConfig, float], ExperimentConfig]:
    def setter(config: ExperimentConfig, value: float) -> ExperimentConfig:
        return replace(config, **{field_name: value})

    return setter


SWEEP_AXES: dict[str, Callable[[ExperimentConfig, float], ExperimentConfig]] = {
    "asymmetry_ratio": _set_spectral("asymmetry_ratio"),
    "pump_coherence_time": _set_spectral("pump_coherence_time"),
    "filter_fwhm": _set_spectral("filter_fwhm"),
    "filter_center": _set_spectral("filter_center"),
    "rod_length": _set_top("rod_length"),
    "pair_phase": _set_top("pair_phase"),
    "analyzer1": _set_top("analyzer1"),
    "analyzer2": _set_top("analyzer2"),
}


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter over a base configuration, with the per-point
    scan window."""

    base: ExperimentConfig
    axis: str
    values: tuple[float, ...]
    d_min: float = DEFAULT_SCAN_MIN
    d_max: float = DEFAULT_SCAN_MAX
    steps: int = DEFAULT_SCAN_STEPS

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ConfigurationError(
                f"unknown sweep axis {self.axis!r}; valid axes: {', '.join(sorted(SWEEP_AXES))}"
            )
        if len(self.values) == 0:
            raise ConfigurationError("sweep needs at least one value")


@dataclass(frozen=True)
class SweepRow:
    value: float
    visibility: float
    kind: str
    extremum: float
    baseline: float


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """One delay scan per swept value, rows in input order.

    The package's own errors name the row they came from; any other
    exception propagates unchanged.
    """
    setter = SWEEP_AXES[spec.axis]
    rows = []
    for index, value in enumerate(spec.values):
        try:
            config = setter(spec.base, value)
            result = scan_delay(config, spec.d_min, spec.d_max, spec.steps)
        except (ConfigurationError, ContractViolation) as exc:
            raise type(exc)(f"sweep row {index} ({spec.axis}={value}): {exc}") from exc
        rows.append(
            SweepRow(
                value=value,
                visibility=result.visibility,
                kind=result.kind,
                extremum=result.extremum,
                baseline=result.baseline,
            )
        )
    return rows


def pump_coherence_sweep(
    base: ExperimentConfig | None = None,
    values: Sequence[float] = (),
    steps: int = DEFAULT_SCAN_STEPS,
) -> list[float]:
    """Scan visibility versus pump coherence time (fs), ascending values.

    On the mixed-rod geometry this traces the recovery of interference as
    the pump pulse outlives the rod group delay and stops timestamping the
    pair emission.
    """
    if base is None:
        base = preset("fig4c")
    values = tuple(values)
    if not values:
        raise ConfigurationError("pump_coherence_sweep needs at least one value")
    if any(v <= 0 for v in values):
        raise ConfigurationError("pump coherence times must be positive")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigurationError("pump coherence times must be strictly ascending")
    spec = SweepSpec(base=base, axis="pump_coherence_time", values=values, steps=steps)
    return [row.visibility for row in run_sweep(spec)]
