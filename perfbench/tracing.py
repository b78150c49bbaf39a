"""Per-layer spans recorded from outside the package.

Each layer's public functions are wrapped where the caller looks them up:
``from .scan import scan_delay`` in ``cli`` makes ``biphoton.cli.scan_delay``
a binding of its own, so every such binding is wrapped. ``RateKernel``
methods are wrapped on the class, and verify checks by swapping
``biphoton.verify.ALL_CHECKS`` for wrappers that keep ``__name__`` (the
report prints check names, so the report bytes stay the same). Wrappers are
installed only around traced commands. Spans stay in memory until the run
ends.

A span's self time is its duration minus the durations of its direct
children, so the self times of one command's spans add up to its root span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import weakref
from collections import Counter
from time import perf_counter

import biphoton.cli
import biphoton.presets
import biphoton.scan
import biphoton.spectral
import biphoton.verify

LAYERS = ("spectral", "pathsum", "scan", "oracle", "presets", "verify", "cli")

VERIFY_CHECKS = (
    "quartz_delay_calibration",
    "filter_coherence_time",
    "grid_refinement",
    "normalization_invariance",
    "parseval",
    "outcome_completeness",
    "dip_peak_complementarity",
    "visibility_overlap_identity",
    "rod_axis_swap_symmetry",
    "engine_oracle_lattice",
)

# (module or class, attribute, span name)
SPAN_TARGETS = (
    (biphoton.presets, "auto_grid", "spectral.auto_grid"),
    (biphoton.spectral, "auto_grid", "spectral.auto_grid"),
    (biphoton.scan, "build_jsa", "spectral.build_jsa"),
    (biphoton.verify, "build_jsa", "spectral.build_jsa"),
    (biphoton.scan, "enumerate_paths", "pathsum.enumerate_paths"),
    (biphoton.scan, "assemble_amplitude", "pathsum.assemble_amplitude"),
    (biphoton.verify, "assemble_amplitude", "pathsum.assemble_amplitude"),
    (biphoton.scan.RateKernel, "_kernel", "scan.kernel_build"),
    (biphoton.scan.RateKernel, "rate", "scan.rate"),
    (biphoton.scan.RateKernel, "pair_sum", "scan.pair_sum"),
    (biphoton.cli, "scan_delay", "scan.scan_delay"),
    (biphoton.presets, "scan_delay", "scan.scan_delay"),
    (biphoton.verify, "scan_delay", "scan.scan_delay"),
    (biphoton.cli, "oracle_rate", "oracle.oracle_rate"),
    (biphoton.verify, "oracle_rate", "oracle.oracle_rate"),
    (biphoton.cli, "run_sweep", "presets.run_sweep"),
    (biphoton.cli, "write_scan_csv", "cli.write_scan_csv"),
    (biphoton.cli, "write_scan_svg", "cli.write_scan_svg"),
    (biphoton.cli, "write_sweep_csv", "cli.write_sweep_csv"),
    (biphoton.cli, "main", "cli.main"),
)

_REQUESTED_N = inspect.signature(biphoton.spectral.auto_grid).parameters["n"].default


# The per-layer metrics of the benchmarked workloads, in report order.
# Counts, times and bytes are means per traced command over whole rounds of
# the workload's inputs.
METRICS = (
    ("spectral.auto_grid.calls", "calls/op"),
    ("spectral.auto_grid.self_s", "s/op"),
    ("spectral.auto_grid.raised", "calls/op"),
    ("spectral.grid_n_max", "n"),
    ("spectral.build_jsa.calls", "calls/op"),
    ("spectral.build_jsa.self_s", "s/op"),
    ("spectral.build_jsa.bytes_computed", "B/op"),
    ("pathsum.enumerate_paths.calls", "calls/op"),
    ("pathsum.enumerate_paths.self_s", "s/op"),
    ("pathsum.assemble_amplitude.calls", "calls/op"),
    ("pathsum.assemble_amplitude.self_s", "s/op"),
    ("scan.kernel.constructed", "kernels/op"),
    ("scan.kernel_build.calls", "calls/op"),
    ("scan.kernel_build.misses", "calls/op"),
    ("scan.kernel_build.self_s", "s/op"),
    ("scan.kernel_cache.hit_ratio", "ratio"),
    ("scan.rates_per_kernel", "rates/kernel"),
    ("scan.rate.calls", "calls/op"),
    ("scan.rate.self_s", "s/op"),
    ("scan.pair_sum.calls", "calls/op"),
    ("scan.pair_sum.self_s", "s/op"),
    ("scan.pair_sum.flops_computed", "flop/op"),
    ("scan.pair_sum.bytes_computed", "B/op"),
    ("scan.scan_delay.calls", "calls/op"),
    ("scan.scan_delay.self_s", "s/op"),
    ("oracle.oracle_rate.calls", "calls/op"),
    ("oracle.oracle_rate.self_s", "s/op"),
    ("presets.run_sweep.calls", "calls/op"),
    ("presets.run_sweep.self_s", "s/op"),
    ("presets.sweep_rows", "rows/op"),
    ("cli.main.self_s", "s/op"),
    ("cli.write_scan_csv.self_s", "s/op"),
    ("cli.write_scan_svg.self_s", "s/op"),
    ("cli.write_sweep_csv.self_s", "s/op"),
    ("cli.bytes_written", "B/op"),
    *((f"{layer}.self_s", "s/op") for layer in LAYERS if layer != "verify"),
    ("trace.unattributed_s", "s/op"),
    ("trace.op_s_p50", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# The verify layer runs only in ``biphoton verify``, which the benchmarked
# workloads do not call; the verify workload reports these as well.
VERIFY_METRICS = (
    *((f"verify.check.{name}.duration_s", "s/op") for name in VERIFY_CHECKS),
    ("verify.self_s", "s/op"),
)


class Recorder:
    """Spans as [name, parent index, start, end, op], plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.grid_n_max = 0
        self.op = -1
        self._stack: list[int] = []
        self._kernel_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(result, *args,
        **kwargs)`` runs once the span has ended."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, perf_counter(), None, self.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = perf_counter()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _after_auto_grid(self, grid, params, n=_REQUESTED_N, *args, **kwargs) -> None:
        self.counts["spectral.auto_grid.raised"] += grid.n > n
        self.grid_n_max = max(self.grid_n_max, grid.n)

    def _after_build_jsa(self, jsa, *args, **kwargs) -> None:
        self.counts["spectral.build_jsa.bytes_computed"] += 16 * jsa.grid.n**2

    def _after_kernel_build(self, result, kernel, swap_p, swap_q) -> None:
        keys = self._kernel_keys.setdefault(kernel, set())
        if (swap_p, swap_q) not in keys:
            keys.add((swap_p, swap_q))
            self.counts["scan.kernel_build.misses"] += 1

    def _after_pair_sum(self, result, kernel, p, q) -> None:
        # One n x n matrix-vector product per einsum: two for a real kernel,
        # four when the kernel has an imaginary part.
        cached = getattr(kernel, "_pair_kernels", {}).get((p.swapped, q.swapped))
        if cached is None:
            self.counts["scan.pair_sum.uncounted"] += 1
            return
        n2 = kernel.grid.n**2
        products = 2 if cached[1] is None else 4
        self.counts["scan.pair_sum.flops_computed"] += 2 * n2 * products
        self.counts["scan.pair_sum.bytes_computed"] += 8 * n2 * products

    def _after_run_sweep(self, rows, *args, **kwargs) -> None:
        self.counts["presets.sweep_rows"] += len(rows)

    def _count_kernels(self, init):
        @functools.wraps(init)
        def wrapper(*args, **kwargs):
            self.counts["scan.kernel.constructed"] += 1
            return init(*args, **kwargs)

        return wrapper

    def replacements(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for every traced binding that exists;
        a binding a later version drops shows up as a layer with no calls."""
        hooks = {
            "spectral.auto_grid": self._after_auto_grid,
            "spectral.build_jsa": self._after_build_jsa,
            "scan.kernel_build": self._after_kernel_build,
            "scan.pair_sum": self._after_pair_sum,
            "presets.run_sweep": self._after_run_sweep,
        }
        found = [
            (owner, attr, self.wrap(name, getattr(owner, attr), hooks.get(name)))
            for owner, attr, name in SPAN_TARGETS
            if hasattr(owner, attr)
        ]
        kernel = biphoton.scan.RateKernel
        found.append((kernel, "__init__", self._count_kernels(kernel.__init__)))
        checks = tuple(
            self.wrap(f"verify.check.{check.__name__.removeprefix('check_')}", check)
            for check in biphoton.verify.ALL_CHECKS
        )
        found.append((biphoton.verify, "ALL_CHECKS", checks))
        return found

    @contextlib.contextmanager
    def installed(self, op: int):
        """Trace the calls made inside the block as command number ``op``."""
        self.op = op
        found = self.replacements()
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in found]
        for owner, attr, wrapper in found:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end, _ in spans]
    for (_, parent, start, end, _) in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(
    recorder: Recorder, traced: dict[int, float], untraced_p50: float, bytes_written: int,
    metrics=METRICS,
) -> tuple[dict[str, float], dict[str, float], list[str]]:
    """Every name in ``metrics`` with its value, the self time of every
    layer, and notes on metrics that the run could not measure. ``traced``
    maps each traced command to its wall time; ``bytes_written`` is their
    total output in bytes."""
    ops = len(traced)
    spans = recorder.spans
    own = self_times(spans)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    duration: Counter = Counter()
    root_time: Counter = Counter()
    for (name, parent, start, end, op), seconds in zip(spans, own):
        calls[name] += 1
        self_s[name] += seconds
        self_s[name.split(".", 1)[0]] += seconds
        duration[name] += end - start
        if parent < 0:
            root_time[op] += end - start
    counts = recorder.counts
    values: dict[str, float] = {}
    for name in calls:
        values[f"{name}.calls"] = calls[name] / ops
        values[f"{name}.self_s"] = self_s[name] / ops
        values[f"{name}.duration_s"] = duration[name] / ops
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer] / ops
    for name in ("spectral.auto_grid.raised", "spectral.build_jsa.bytes_computed",
                 "scan.kernel.constructed", "scan.kernel_build.misses",
                 "scan.pair_sum.flops_computed", "scan.pair_sum.bytes_computed",
                 "presets.sweep_rows"):
        values[name] = counts[name] / ops
    values["spectral.grid_n_max"] = recorder.grid_n_max
    builds = calls["scan.kernel_build"]
    if builds:
        values["scan.kernel_cache.hit_ratio"] = 1.0 - counts["scan.kernel_build.misses"] / builds
    if counts["scan.kernel.constructed"]:
        values["scan.rates_per_kernel"] = calls["scan.rate"] / counts["scan.kernel.constructed"]
    values["cli.bytes_written"] = bytes_written / ops
    values["trace.unattributed_s"] = sum(traced[op] - root_time[op] for op in traced) / ops
    values["trace.op_s_p50"] = statistics.median(traced.values())
    values["trace.overhead_ratio"] = values["trace.op_s_p50"] / untraced_p50

    notes = []
    if counts["scan.pair_sum.uncounted"]:
        notes.append("scan.pair_sum flops/bytes: RateKernel._pair_kernels not found")
    result = {}
    for name, _ in metrics:
        if name in values:
            result[name] = values[name]
        else:
            result[name] = 0.0
            notes.append(f"{name}: not exercised by this workload")
    layer_self_s = {layer: values[f"{layer}.self_s"] for layer in LAYERS}
    return result, layer_self_s, notes

