"""Seeded inputs and output checks for the benchmark workloads.

Every operation is one ``biphoton`` command line. The generator turns a
workload name and a seed into the command lines; the program sees only
those. The checks compare each command's outputs with the closed-form
reference in ``biphoton.oracle`` and with the kinds listed in the README's
preset table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from biphoton.oracle import oracle_rate, oracle_visibility
from biphoton.presets import PRESET_NAMES, ExperimentConfig, preset
from biphoton.scan import DEFAULT_SCAN_MAX, DEFAULT_SCAN_MIN, DEFAULT_SCAN_STEPS
from biphoton.spectral import auto_grid, interference_width

ORACLE_GATE = 1e-3
VISIBILITY_TOLERANCE = 1e-3

# The README's classification rule: the baseline is the mean rate beyond 3
# interference widths, and a curve within 2% of it everywhere is flat.
WING_FACTOR = 3.0
FLAT_THRESHOLD = 0.02

# The "scan result" column of the README's preset table.
README_KINDS = {
    "fig3a_dip": "dip",
    "fig3a_peak": "peak",
    "fig3b_dip": "dip",
    "fig3b_peak": "peak",
    "fig4c": "flat",
}

# Pump coherence times (fs) of the sweep, each drawn within +-10%, with the
# effective grid n and the kind every value in that band must keep.
PUMP_SWEEP_BANDS = ((60.0, 256, "flat"), (120.0, 256, "flat"), (630.0, 256, "dip"),
                    (6300.0, 1024, "dip"))
JITTER = 0.10


@dataclass(frozen=True)
class Expectation:
    """What one scan inside a command must produce."""

    config: ExperimentConfig
    delays: tuple[float, float, int]
    grid_n: int
    kind: str


@dataclass(frozen=True)
class Op:
    """One command: its argv, the files it writes, and what it must show."""

    argv: tuple[str, ...]
    outputs: tuple[Path, ...]
    expect: tuple[Expectation, ...]
    sweep_values: tuple[float, ...] = ()


@dataclass
class Outcome:
    problems: list[str]
    oracle_delta: float = 0.0
    delay_points: int = 0


def _window(rng: random.Random, steps: int) -> tuple[float, float]:
    """Scan edges each within +-10% of the default +-1500 fs.

    The grid keeps d = 0, where every preset has its extremum, so the
    engine's visibility can be held to ``oracle_visibility`` directly.
    """
    span = steps - 1
    d_min = round(DEFAULT_SCAN_MIN * rng.uniform(1.0 - JITTER, 1.0 + JITTER), 2)
    lo, hi = DEFAULT_SCAN_MAX * (1.0 - JITTER), DEFAULT_SCAN_MAX * (1.0 + JITTER)
    zero_indices = [k for k in range(1, span) if lo <= (span - k) * -d_min / k <= hi]
    k = rng.choice(zero_indices)
    return d_min, (span - k) * -d_min / k


def generate(workload: str, seed: int, out_dir: Path) -> list[Op]:
    """The commands of one workload; the same seed gives the same commands."""
    rng = random.Random(f"{workload}:{seed}")
    steps = DEFAULT_SCAN_STEPS
    if workload == "scan_presets":
        names = list(PRESET_NAMES)
        rng.shuffle(names)
        ops = []
        for name in names:
            d_min, d_max = _window(rng, steps)
            csv, svg = out_dir / f"{name}.csv", out_dir / f"{name}.svg"
            config = preset(name)
            ops.append(Op(
                argv=("run", name, f"--d-min={d_min!r}", f"--d-max={d_max!r}",
                      "--out", str(csv), "--svg", str(svg)),
                outputs=(csv, svg),
                expect=(Expectation(config, (d_min, d_max, steps), config.grid.n,
                                    README_KINDS[name]),),
            ))
        return ops
    if workload == "pump_sweep":
        base = preset("fig4c")
        values = tuple(round(tau * rng.uniform(1.0 - JITTER, 1.0 + JITTER), 3)
                       for tau, _, _ in PUMP_SWEEP_BANDS)
        csv = out_dir / "sweep.csv"
        return [Op(
            argv=("sweep", "fig4c", "--axis", "pump_coherence_time",
                  "--values", ",".join(repr(v) for v in values), "--out", str(csv)),
            outputs=(csv,),
            expect=tuple(
                Expectation(replace(base, spectral=replace(base.spectral, pump_coherence_time=v)),
                            (DEFAULT_SCAN_MIN, DEFAULT_SCAN_MAX, steps), n, kind)
                for v, (_, n, kind) in zip(values, PUMP_SWEEP_BANDS)
            ),
            sweep_values=values,
        )]
    if workload == "verify":
        return [Op(argv=("verify",), outputs=(), expect=())]
    raise ValueError(f"unknown workload {workload!r}")


def closed_form_scan(config: ExperimentConfig, delays: tuple[float, float, int]):
    """(baseline, extremum, kind) of the closed-form rates on the scan's delay
    grid, classified by the README's rule."""
    grid = np.linspace(*delays)
    rates = np.array([oracle_rate(config, float(d)) for d in grid])
    wing = WING_FACTOR * interference_width(config.spectral)
    baseline = float(rates[np.abs(grid) > wing].mean())
    rmin, rmax = float(rates.min()), float(rates.max())
    if max(rmax - baseline, baseline - rmin) / baseline < FLAT_THRESHOLD:
        return baseline, (rmax if rmax - baseline >= baseline - rmin else rmin), "flat"
    if baseline - rmin >= rmax - baseline:
        return baseline, rmin, "dip"
    return baseline, rmax, "peak"


def validate_inputs(ops: list[Op]) -> list[str]:
    """Problems with generated inputs, found before any timing: each scan must
    keep its workload's effective grid n and its kind."""
    problems = []
    for op in ops:
        if "--workers" in op.argv:
            problems.append(f"{' '.join(op.argv)}: passes --workers")
        for e in op.expect:
            n = auto_grid(e.config.spectral, e.config.grid.n, e.config.grid.span_sigma).n
            if n != e.grid_n:
                problems.append(f"{' '.join(op.argv)}: effective grid n={n}, expected {e.grid_n}")
            kind = closed_form_scan(e.config, e.delays)[2]
            if kind != e.kind:
                problems.append(f"{' '.join(op.argv)}: closed form gives {kind}, expected {e.kind}")
    return problems


def _fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-12)


def _check_scan(e: Expectation, kind: str, vis: float, problems: list[str], label: str) -> None:
    if kind != e.kind:
        problems.append(f"{label}: kind={kind}, expected {e.kind}")
    reference = oracle_visibility(e.config)
    if not abs(vis - reference) <= VISIBILITY_TOLERANCE:
        problems.append(f"{label}: visibility {vis!r} vs closed form {reference!r}")


def check(op: Op, code: object, stdout: str, files: dict[Path, bytes]) -> Outcome:
    """Check one command's exit code and outputs; problems empty means correct."""
    out = Outcome(problems=[])
    if code != 0:
        out.problems.append(f"exit code {code!r}")
        return out
    try:
        if op.argv[0] == "run":
            _check_run(op, stdout, files, out)
        elif op.argv[0] == "sweep":
            _check_sweep(op, files, out)
        else:
            _check_verify(stdout, out)
    except (KeyError, ValueError, IndexError, StopIteration) as exc:
        out.problems.append(f"unparsable output: {type(exc).__name__}: {exc}")
    if not out.oracle_delta < ORACLE_GATE:
        out.problems.append(f"oracle_max_rel_delta {out.oracle_delta!r} >= {ORACLE_GATE}")
    return out


def _check_run(op: Op, stdout: str, files: dict[Path, bytes], out: Outcome) -> None:
    (e,) = op.expect
    fields = _fields(stdout.strip().splitlines()[-1])
    _check_scan(e, fields["kind"], float(fields["visibility"]), out.problems, op.argv[1])
    out.oracle_delta = float(fields["oracle_max_rel_delta"])
    rows = files[op.outputs[0]].decode().splitlines()[1:]
    if len(rows) != e.delays[2]:
        out.problems.append(f"{len(rows)} CSV rows, expected {e.delays[2]}")
    out.delay_points = len(rows)


def _check_sweep(op: Op, files: dict[Path, bytes], out: Outcome) -> None:
    lines = files[op.outputs[0]].decode().splitlines()
    if lines[0] != "axis_value,visibility,kind,extremum,baseline":
        out.problems.append(f"sweep CSV header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if [row[0] for row in rows] != [f"{v:.9g}" for v in op.sweep_values]:
        out.problems.append(f"sweep rows {[row[0] for row in rows]} differ from inputs")
        return
    for e, (value, vis, kind, extremum, baseline) in zip(op.expect, rows):
        _check_scan(e, kind, float(vis), out.problems, f"row {value}")
        ref_baseline, ref_extremum, _ = closed_form_scan(e.config, e.delays)
        out.oracle_delta = max(out.oracle_delta, _rel(float(baseline), ref_baseline),
                               _rel(float(extremum), ref_extremum))
    out.delay_points = len(rows) * op.expect[0].delays[2]


def _check_verify(stdout: str, out: Outcome) -> None:
    lines = stdout.splitlines()
    if not lines[-1].startswith("verdict=pass "):
        out.problems.append(f"verify: {lines[-1]}")
    lattice = next(_fields(line) for line in lines
                   if line.startswith("check=engine_oracle_lattice "))
    out.oracle_delta = float(lattice["value"])

