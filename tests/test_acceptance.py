"""Acceptance gate: one test per criterion, each printing a PASS line.

Criterion 3's timing readout uses the constructive analyzer setting: at
the destructive setting the coincidence amplitude cancels to rounding
noise, while the paths of both settings carry identical delays, so the
firing-order statement is the same.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from biphoton import (
    SpectralParams,
    arrival_time_joint,
    coherence_time_from_filter,
    preset,
    quartz_group_delay,
    scan_delay,
)
from biphoton.cli import main
from biphoton.verify import check_engine_oracle_lattice


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_dip_and_peak_visibility():
    worst_runtime = 0.0
    observed = {}
    for name in ("fig3a_dip", "fig3b_dip", "fig3a_peak", "fig3b_peak"):
        start = time.perf_counter()
        result = scan_delay(preset(name))
        worst_runtime = max(worst_runtime, time.perf_counter() - start)
        observed[name] = (result.kind, result.visibility)
    classical_limit = 0.50
    bell_limit = 0.71
    ok = (
        observed["fig3a_dip"][0] == "dip"
        and observed["fig3b_dip"][0] == "dip"
        and observed["fig3a_peak"][0] == "peak"
        and observed["fig3b_peak"][0] == "peak"
        and all(vis >= 0.99 for _, vis in observed.values())
        and all(vis > bell_limit > classical_limit for _, vis in observed.values())
        and worst_runtime < 5.0
    )
    detail = (
        ", ".join(f"{k}={kind},V={vis:.6f}" for k, (kind, vis) in observed.items())
        + f", all above the 0.50 classical and 0.71 Bell-violation thresholds"
        + f", worst runtime {worst_runtime:.2f}s"
    )
    report("criterion-1 dip/peak visibility", ok, detail)


def test_criterion_2_pump_clock_and_recovery():
    start = time.perf_counter()
    flat = scan_delay(preset("fig4c"))
    long_pump = replace(
        preset("fig4c"), spectral=SpectralParams(pump_coherence_time=6300.0)
    )
    recovered = scan_delay(long_pump)
    elapsed = time.perf_counter() - start
    ok = (
        flat.kind == "flat"
        and flat.visibility <= 0.02
        and recovered.visibility >= 0.9
        and elapsed < 10.0
    )
    report(
        "criterion-2 pump clock",
        ok,
        f"fig4c kind={flat.kind} V={flat.visibility:.5f}, "
        f"tau_p=6300fs V={recovered.visibility:.5f}, runtime {elapsed:.2f}s",
    )


def test_criterion_3_interference_without_overlap():
    start = time.perf_counter()
    dip_a = scan_delay(preset("fig3a_dip"))
    dip_b = scan_delay(preset("fig3b_dip"))
    time_a = arrival_time_joint(preset("fig3a_peak"), 0.0)
    time_b = arrival_time_joint(preset("fig3b_peak"), 0.0)
    elapsed = time.perf_counter() - start

    diff_a = time_a.mean_b - time_a.mean_a
    diff_b = time_b.mean_b - time_b.mean_a
    pointwise = float(np.abs(dip_a.rates - dip_b.rates).max()) / dip_a.baseline
    ok = (
        abs(diff_a - 630.0) <= 5.0
        and dip_a.visibility >= 0.99
        and abs(diff_b + 630.0) <= 5.0
        and pointwise < 1e-9
        and elapsed < 10.0
    )
    report(
        "criterion-3 non-overlap",
        ok,
        f"<tb-ta>={diff_a:.3f}fs, V={dip_a.visibility:.6f}, reversed={diff_b:.3f}fs, "
        f"pointwise delta={pointwise:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_4_engine_oracle_equivalence():
    start = time.perf_counter()
    result = check_engine_oracle_lattice()
    elapsed = time.perf_counter() - start
    ok = result.passed and result.value < 1e-3 and elapsed < 60.0
    report(
        "criterion-4 engine/oracle",
        ok,
        f"max relative delta {result.value:.3e} over presets x rho x tau_p, "
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_5_verification_suite(capsys):
    start = time.perf_counter()
    code = main(["verify"])
    elapsed = time.perf_counter() - start
    stdout = capsys.readouterr().out
    with capsys.disabled():
        ok = code == 0 and "verdict=pass" in stdout and elapsed < 120.0
        report(
            "criterion-5 invariant suite",
            ok,
            f"exit={code}, runtime {elapsed:.1f}s",
        )


def test_criterion_6_calibration_constants():
    delay = quartz_group_delay(20.0)
    coherence = coherence_time_from_filter(20.0, 780.0)
    ok = delay == 630.0 and abs(coherence - 100.0) <= 2.0
    report(
        "criterion-6 calibration",
        ok,
        f"rod delay {delay!r} fs (exact), filter coherence {coherence:.3f} fs",
    )
