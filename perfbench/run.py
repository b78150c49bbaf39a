"""Benchmark of the biphoton command line: wall time, memory and accuracy.

    python3 perfbench/run.py --workload scan_presets --seed 1 --seconds 45 --trace 0

The benchmarked workloads are ``scan_presets`` and ``pump_sweep``;
``verify`` runs the same way but is not part of BENCHMARK.json (see
perfbench/NOTES.md). ``--workload all`` runs each of the three in its own
process. Every
operation is one command run through ``biphoton.cli.main(argv)`` in this
process: one client in a closed loop, each command started after the
previous one returned, never with ``--workers``. Outputs go to a temporary
directory under perfbench/.work, the only place the benchmark writes.

One untimed round of the inputs warms caches and lazy set-up first. With
``--trace 0`` the end-to-end metrics are measured with tracing off; with
``--trace 1`` every input runs once untraced and once traced, for the
per-layer metrics and the tracing overhead. Every command's outputs are
checked; the exit code is 0 only when all of them are correct. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORK = BENCH_DIR / ".work"
BENCHMARKED = ("scan_presets", "pump_sweep")
# One verify command takes 12-18 s and streams n=2048 kernels from memory,
# so too few fit in a run for a steady time; see perfbench/NOTES.md.
WORKLOAD_NAMES = (*BENCHMARKED, "verify")

# Forces a fixed grid and bypasses auto_grid, so the workloads would no
# longer compute what they are meant to.
GRID_ENV_VAR = "BIPHOTON_GRID_N"

# Set-up is sampled at even intervals through the timed run, so that its
# median sees the same host conditions as the commands.
SETUP_SAMPLES = 15
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import biphoton.cli; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)
END_TO_END = {"setup_s": "s", "op_s_mean": "s", "delay_points_per_s": "1/s",
              "peak_rss_mib": "MiB"}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> float:
    """Time from starting a fresh interpreter until ``biphoton.cli`` is
    imported. Bytecode is never written, so every start compiles the
    package from source and the checkout stays as it was."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          stdout=subprocess.PIPE, env=env) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed with exit code {proc.returncode}")
    return elapsed


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for library in libraries:
        try:
            lib = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def machine_facts() -> dict[str, object]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "loadavg_1min": os.getloadavg()[0],
        **{var: os.environ.get(var, "unset")
           for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest percentile with at least ten
    samples beyond it, by nearest rank; None for too few samples."""
    ordered = sorted(samples)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100.0 * len(ordered))
        if len(ordered) - rank >= TAIL_BEYOND:
            return percentile, ordered[rank - 1]
    return None


class Runner:
    """Runs commands one at a time and checks each one's outputs."""

    def __init__(self, ops, cli, workloads) -> None:
        self.ops = ops
        self.cli = cli
        self.workloads = workloads
        self.records: list[dict] = []
        self.setup_samples: list[float] = []
        self._first_outputs: dict[int, tuple] = {}

    def run(self, index: int, recorder=None, warmup: bool = False) -> dict:
        op = self.ops[index]
        stdout, stderr = io.StringIO(), io.StringIO()
        for path in op.outputs:
            path.unlink(missing_ok=True)
        gc.collect()
        spans = recorder.installed(len(self.records)) if recorder else contextlib.nullcontext()
        with spans:
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = self.cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = traceback.format_exc()
            seconds = perf_counter() - start
        files = {path: path.read_bytes() for path in op.outputs if path.exists()}
        outcome = self.workloads.check(op, code, stdout.getvalue(), files)
        if code != 0 and stderr.getvalue():
            outcome.problems.append(f"stderr: {stderr.getvalue().strip()}")
        outputs = (stdout.getvalue(), tuple(files.get(path) for path in op.outputs))
        if self._first_outputs.setdefault(index, outputs) != outputs:
            outcome.problems.append("output bytes differ from an earlier run of the same input")
        record = {
            "input": index,
            "warmup": warmup,
            "traced": recorder is not None,
            "seconds": seconds,
            "oracle_delta": outcome.oracle_delta,
            "delay_points": outcome.delay_points,
            "bytes_written": len(stdout.getvalue().encode()) + sum(map(len, files.values())),
            "problems": outcome.problems,
        }
        self.records.append(record)
        return record

    def warm_up(self) -> None:
        """One untimed round; its commands are checked like the others."""
        for index in range(len(self.ops)):
            self.run(index, warmup=True)

    def timed(self, seconds: float) -> None:
        """Commands in a closed loop for ``seconds``, with the set-up
        samples spread evenly over that time."""
        start, count = perf_counter(), 0
        while True:
            elapsed = perf_counter() - start
            if count and elapsed >= seconds:
                break
            taken = len(self.setup_samples)
            if taken < SETUP_SAMPLES and elapsed >= seconds * taken / SETUP_SAMPLES:
                self.setup_samples.append(measure_setup())
            self.run(count % len(self.ops))
            count += 1
        while len(self.setup_samples) < SETUP_SAMPLES:
            self.setup_samples.append(measure_setup())

    def traced(self, seconds: float, recorder) -> None:
        """Whole rounds of the inputs, each run untraced and then traced."""
        start = perf_counter()
        while True:
            for index in range(len(self.ops)):
                self.run(index)
                self.run(index, recorder)
            if perf_counter() - start >= seconds:
                return


def end_to_end(runner: Runner) -> tuple[dict, list[str]]:
    """The BENCHMARK.json end-to-end metrics, and report lines for the
    end-to-end figures that are not defined on every workload or run."""
    records = [r for r in runner.records if not r["warmup"]]
    times = [r["seconds"] for r in records]
    points = sum(r["delay_points"] for r in records)
    values = {
        "setup_s": statistics.median(runner.setup_samples),
        "op_s_mean": statistics.fmean(times),
        "delay_points_per_s": points / sum(times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [f"op_s_p50 {statistics.median(times):.6g} s samples={len(times)}"]
    if not points:
        del values["delay_points_per_s"]
        lines.append("delay_points_per_s absent: verify writes no delay points")
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()
               if name in values}
    high = tail(times)
    if high is None:
        lines.append(f"op_s_tail absent: {len(times)} samples, fewer than "
                     f"{TAIL_BEYOND} beyond the median")
    else:
        lines.append(f"op_s_tail {high[1]:.6g} s p{high[0]:g} samples={len(times)}")
    everything = runner.records
    lines.append(f"oracle_max_rel_delta {max(r['oracle_delta'] for r in everything):.6e} ratio")
    failed = sum(bool(r["problems"]) for r in everything)
    lines.append(f"ops_failed_frac {failed / len(everything):.6g} ratio")
    return metrics, lines


def per_layer(runner: Runner, recorder, tracing, names) -> tuple[dict, list[str], list[str]]:
    """The per-layer metrics in ``names``, notes on those the run could not
    measure, and problems with the span bookkeeping."""
    records = runner.records
    traced = {i: r["seconds"] for i, r in enumerate(records) if r["traced"]}
    untraced_p50 = statistics.median(r["seconds"] for r in records
                                     if not r["traced"] and not r["warmup"])
    bytes_written = sum(r["bytes_written"] for r in records if r["traced"])
    values, layer_self_s, notes = tracing.layer_metrics(recorder, traced, untraced_p50,
                                                        bytes_written, names)
    accounted = sum(layer_self_s.values()) + values["trace.unattributed_s"]
    mean_op = statistics.fmean(traced.values())
    problems = []
    if not math.isclose(accounted, mean_op, rel_tol=1e-9):
        problems.append(f"layer self times {accounted!r} s do not add up to {mean_op!r} s")
    units = dict(names)
    return {name: (value, units[name]) for name, value in values.items()}, notes, problems


def run_workload(args: argparse.Namespace) -> int:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import biphoton.cli as cli
    import tracing
    import workloads

    WORK.mkdir(parents=True, exist_ok=True)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for key, value in machine_facts().items():
        print(f"machine {key}={value}")
    with tempfile.TemporaryDirectory(dir=WORK, prefix="out-") as out_dir:
        ops = workloads.generate(args.workload, args.seed, Path(out_dir))
        for index, op in enumerate(ops):
            print(f"input {index}: biphoton {' '.join(op.argv).replace(out_dir, '<out>')}")
        problems = workloads.validate_inputs(ops)
        if problems:
            for problem in problems:
                print(f"error: generated input: {problem}", file=sys.stderr)
            return 2
        runner = Runner(ops, cli, workloads)
        runner.warm_up()
        if args.trace:
            recorder = tracing.Recorder()
            runner.traced(args.seconds, recorder)
            names = tracing.METRICS
            if args.workload == "verify":
                names += tracing.VERIFY_METRICS
            metrics, lines, problems = per_layer(runner, recorder, tracing, names)
        else:
            runner.timed(args.seconds)
            metrics, lines = end_to_end(runner)
            problems = []
    failed = [r for r in runner.records if r["problems"]]
    for line in lines:
        print(line)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for record in failed[:5]:
        print(f"failed input {record['input']}: {'; '.join(record['problems'])}", file=sys.stderr)
    detail = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({
        "records": runner.records,
        "setup_samples": runner.setup_samples,
        "spans": recorder.spans if args.trace else [],
    }) + "\n", encoding="utf-8")
    correct = not failed and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(runner.records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "biphoton" / "cli.py").is_file():
        print(f"error: no biphoton source under {SRC}", file=sys.stderr)
        return 2
    if GRID_ENV_VAR in os.environ:
        print(f"error: {GRID_ENV_VAR} is set; it bypasses auto_grid", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOAD_NAMES
        ]
        return max(codes)
    sys.dont_write_bytecode = True
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
