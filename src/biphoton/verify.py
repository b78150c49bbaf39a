"""Invariant suite behind ``biphoton verify``.

Each check reduces to a single scalar compared against a fixed threshold;
the report is machine readable, one line per check, and byte-identical
across runs. Checks run in a fixed order with the cheap ones first, and a
check that raises counts as failed rather than aborting the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .elements import quartz_group_delay
from .oracle import oracle_rate, oracle_visibility
from .pathsum import enumerate_paths
from .presets import PRESET_NAMES, ExperimentConfig, preset
from .scan import (
    RateKernel,
    arrival_time_joint,
    coincidence_rate,
    path_overlap,
    refine_check,
    scan_delay,
)
from .spectral import JointSpectralAmplitude, SpectralParams, build_jsa, coherence_time_from_filter

LATTICE_DELAYS = 21
LATTICE_RHOS = (0.5, 1.0, 2.0)
LATTICE_PUMP_TIMES = (60.0, 120.0, 6300.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        text = (
            f"check={self.name} status={status} "
            f"value={self.value:.6e} threshold={self.threshold:.6e}"
        )
        if self.detail:
            text += f" detail={self.detail.replace(' ', '_')}"
        return text


def check_quartz_delay_calibration() -> CheckResult:
    delay = quartz_group_delay(20.0)
    error = abs(delay - 630.0)
    return CheckResult("quartz_delay_calibration", error == 0.0, error, 0.0)


def check_filter_coherence_time() -> CheckResult:
    value = coherence_time_from_filter(20.0, 780.0)
    error = abs(value - 100.0)
    return CheckResult("filter_coherence_time", error <= 2.0, error, 2.0)


def check_grid_refinement() -> CheckResult:
    config = preset("fig3a_dip")
    worst = max(refine_check(config, d) for d in (0.0, 300.0))
    return CheckResult("grid_refinement", worst < 1e-6, worst, 1e-6)


def check_normalization_invariance() -> CheckResult:
    config = preset("fig3a_dip")
    jsa = build_jsa(config.spectral, config.frequency_grid())
    g1, g2, pump = jsa.factors
    scaled = JointSpectralAmplitude(jsa.grid, (7.25 * g1, g2, pump))
    delays = (0.0, 150.0, 600.0)
    reference = coincidence_rate(config, delays, RateKernel(jsa))
    rescaled = coincidence_rate(config, delays, RateKernel(scaled))
    # The ideal dip is exactly 0 at d = 0, and 7.25 g1 != g2 bit for bit, so
    # the rescaled dip cancels there only to rounding: that point is held to
    # the level sum_p |c_p|^2 instead of to its own rate.
    level = sum(abs(p.coefficient) ** 2 for p in enumerate_paths(config))
    scale = np.where(reference != 0.0, np.abs(reference), level)
    worst = float((np.abs(rescaled - reference) / scale).max())
    return CheckResult("normalization_invariance", worst < 1e-12, worst, 1e-12)


def check_parseval() -> CheckResult:
    """The arrival-time marginals must integrate to the frequency-domain
    rate, which the pair sums give without a transform."""
    worst = 0.0
    for name, d in (("fig3a_peak", 0.0), ("fig3a_dip", 300.0), ("fig4c", 0.0)):
        config = preset(name)
        rate = coincidence_rate(config, d)
        total = arrival_time_joint(config, d).total
        worst = max(worst, abs(total - rate) / max(rate, 1e-12))
    return CheckResult("parseval", worst < 1e-6, worst, 1e-6)


def check_outcome_completeness() -> CheckResult:
    """Summing the rate over a complete analyzer basis removes the
    post-selection, so the result must not depend on the delay."""
    delays = np.linspace(-1500.0, 1500.0, LATTICE_DELAYS)
    worst = 0.0
    base = preset("fig3a_dip")
    kernel = RateKernel(build_jsa(base.spectral, base.frequency_grid()))
    for theta1, theta2 in ((45.0, 45.0), (30.0, 75.0)):
        totals = np.zeros_like(delays)
        for offset1 in (0.0, 90.0):
            for offset2 in (0.0, 90.0):
                config = replace(base, analyzer1=theta1 + offset1, analyzer2=theta2 + offset2)
                totals += coincidence_rate(config, delays, kernel)
        mean = float(totals.mean())
        worst = max(worst, float(np.abs(totals - mean).max()) / mean)
    return CheckResult("outcome_completeness", worst < 1e-6, worst, 1e-6)


def check_dip_peak_complementarity() -> CheckResult:
    delays = np.linspace(-1500.0, 1500.0, LATTICE_DELAYS)
    dip = preset("fig3a_dip")
    peak = preset("fig3a_peak")
    kernel = RateKernel(build_jsa(dip.spectral, dip.frequency_grid()))
    totals = coincidence_rate(dip, delays, kernel) + coincidence_rate(peak, delays, kernel)
    mean = float(totals.mean())
    worst = float(np.abs(totals - mean).max()) / mean
    return CheckResult("dip_peak_complementarity", worst < 1e-6, worst, 1e-6)


def check_visibility_overlap_identity() -> CheckResult:
    """With balanced path coefficients the scan visibility equals the
    magnitude of the normalized path overlap at zero delay. Both come from
    the engine's pair sums, so the overlap is held against the closed-form
    visibility too."""
    worst = 0.0
    for rho in (1.0, 1.5):
        config = replace(
            preset("fig3a_dip"),
            spectral=replace(SpectralParams(), asymmetry_ratio=rho),
        )
        jsa = build_jsa(config.spectral, config.frequency_grid())
        result = scan_delay(config, kernel=RateKernel(jsa))
        paths = enumerate_paths(config)
        overlap = path_overlap(paths, jsa)
        closed_form = abs(abs(overlap) - oracle_visibility(config))
        worst = max(worst, abs(result.visibility - abs(overlap)), closed_form)
    return CheckResult("visibility_overlap_identity", worst < 1e-6, worst, 1e-6)


def check_rod_axis_swap_symmetry() -> CheckResult:
    """Swapping both rod axes must leave the rate curve untouched while
    reversing which detector fires first.

    The timing readout uses the constructive analyzer setting: at the dip
    setting the coincidence amplitude cancels to rounding noise, and the
    paths of both settings share the same delays anyway.
    """
    scan_v = scan_delay(preset("fig3a_dip"))
    scan_h = scan_delay(preset("fig3b_dip"))
    worst = float(np.abs(scan_v.rates - scan_h.rates).max()) / scan_v.baseline
    time_v = arrival_time_joint(preset("fig3a_peak"), 0.0)
    time_h = arrival_time_joint(preset("fig3b_peak"), 0.0)
    diff_v = time_v.mean_b - time_v.mean_a
    diff_h = time_h.mean_b - time_h.mean_a
    reversed_order = diff_v * diff_h < 0 and abs(diff_v + diff_h) < 10.0
    return CheckResult(
        "rod_axis_swap_symmetry",
        worst < 1e-9 and reversed_order,
        worst,
        1e-9,
        detail=f"firing_order_reversed={str(reversed_order).lower()}",
    )


def check_engine_oracle_lattice() -> CheckResult:
    """Grid engine versus closed form over presets x asymmetry x pump
    coherence x delays."""
    delays = np.linspace(-1500.0, 1500.0, LATTICE_DELAYS)
    worst = 0.0
    for rho in LATTICE_RHOS:
        for tau in LATTICE_PUMP_TIMES:
            spectral = replace(
                SpectralParams(), asymmetry_ratio=rho, pump_coherence_time=tau
            )
            scaffold = ExperimentConfig(spectral=spectral)
            kernel = RateKernel(build_jsa(spectral, scaffold.frequency_grid()))
            for name in PRESET_NAMES:
                config = replace(preset(name), spectral=spectral)
                rates = coincidence_rate(config, delays, kernel)
                for engine, reference in zip(rates, oracle_rate(config, delays)):
                    delta = abs(engine - reference) / max(reference, 1e-12)
                    worst = max(worst, delta)
    return CheckResult("engine_oracle_lattice", worst < 1e-3, worst, 1e-3)


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_quartz_delay_calibration,
    check_filter_coherence_time,
    check_grid_refinement,
    check_normalization_invariance,
    check_parseval,
    check_outcome_completeness,
    check_dip_peak_complementarity,
    check_visibility_overlap_identity,
    check_rod_axis_swap_symmetry,
    check_engine_oracle_lattice,
)


def run_all_checks() -> list[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        name = check.__name__.removeprefix("check_")
        try:
            results.append(check())
        except Exception as exc:
            results.append(
                CheckResult(
                    name,
                    False,
                    math.nan,
                    math.nan,
                    detail=f"error:{type(exc).__name__}:{exc}",
                )
            )
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = [result.line() for result in results]
    failed = [result for result in results if not result.passed]
    if failed:
        lines.append(
            f"verdict=fail checks={len(results)} failed={len(failed)} "
            f"first_failed={failed[0].name}"
        )
    else:
        lines.append(f"verdict=pass checks={len(results)} failed=0")
    return "\n".join(lines) + "\n"
