"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

sys.dont_write_bytecode = True

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import biphoton.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_self_time_is_duration_minus_direct_children(self):
        spans = [
            ["cli.main", -1, 0.0, 10.0, 0],
            ["scan.scan_delay", 0, 1.0, 4.0, 0],
            ["scan.rate", 1, 2.0, 3.0, 0],
            ["oracle.oracle_rate", 0, 5.0, 9.0, 0],
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 1.0, 4.0])

    def test_self_times_add_up_to_the_root_span(self):
        recorder = tracing.Recorder()
        leaf = recorder.wrap("scan.rate", lambda: sum(range(1000)))
        middle = recorder.wrap("scan.scan_delay", lambda: [leaf() for _ in range(3)])
        root = recorder.wrap("cli.main", lambda: [middle(), leaf()])
        root()
        root_span = recorder.spans[0]
        self.assertEqual([span[1] for span in recorder.spans], [-1, 0, 1, 1, 1, 0])
        self.assertAlmostEqual(sum(tracing.self_times(recorder.spans)),
                               root_span[3] - root_span[2], delta=1e-12)


class InputTest(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        out = Path("out")
        for name in run.WORKLOAD_NAMES:
            self.assertEqual(workloads.generate(name, 7, out), workloads.generate(name, 7, out))
        for name in ("scan_presets", "pump_sweep"):
            self.assertNotEqual(workloads.generate(name, 7, out)[0].argv,
                                workloads.generate(name, 8, out)[0].argv)

    def test_generated_inputs_keep_grid_and_kind(self):
        for seed in range(10):
            for name in run.WORKLOAD_NAMES:
                ops = workloads.generate(name, seed, Path("out"))
                self.assertEqual(workloads.validate_inputs(ops), [], (name, seed))
                self.assertTrue(all("--workers" not in op.argv for op in ops))

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail([1.0] * 19))
        self.assertEqual(run.tail([float(i) for i in range(1, 21)]), (50.0, 10.0))
        self.assertEqual(run.tail([float(i) for i in range(1, 101)])[0], 90.0)


class RunnerTest(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self._dir = tempfile.TemporaryDirectory(dir=run.WORK, prefix="selftest-")
        ops = workloads.generate("scan_presets", 3, Path(self._dir.name))
        self.op = next(op for op in ops if op.argv[1] == "fig4c")

    def tearDown(self):
        self._dir.cleanup()

    def test_wrong_expected_kind_fails_the_command(self):
        wrong = replace(self.op, expect=(replace(self.op.expect[0], kind="dip"),))
        runner = run.Runner([self.op, wrong], biphoton.cli, workloads)
        self.assertEqual(runner.run(0)["problems"], [])
        self.assertIn("fig4c: kind=flat, expected dip", runner.run(1)["problems"])

    def test_traced_outputs_match_untraced(self):
        runner = run.Runner([self.op], biphoton.cli, workloads)
        main = biphoton.cli.main
        recorder = tracing.Recorder()
        runner.run(0)
        traced = runner.run(0, recorder)
        self.assertEqual(traced["problems"], [])
        self.assertIs(biphoton.cli.main, main)
        names = {span[0] for span in recorder.spans}
        self.assertLessEqual({"cli.main", "scan.scan_delay", "scan.pair_sum",
                              "oracle.oracle_rate", "cli.write_scan_svg"}, names)

    def test_changed_output_bytes_fail_the_command(self):
        runner = run.Runner([self.op], biphoton.cli, workloads)
        runner.run(0)
        first = runner._first_outputs[0]
        runner._first_outputs[0] = (first[0] + " ", first[1])
        self.assertIn("output bytes differ from an earlier run of the same input",
                      runner.run(0)["problems"])


class ReportTest(unittest.TestCase):
    def _last_line(self, trace: int) -> dict:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run.main(["--workload", "scan_presets", "--seed", "5", "--seconds", "0",
                             "--trace", str(trace)])
        self.assertEqual(code, 0)
        return json.loads(stdout.getvalue().splitlines()[-1])

    def test_untraced_run_reports_every_end_to_end_metric(self):
        result = self._last_line(0)
        # One warm-up round of the five presets, then one timed command.
        self.assertEqual((result["correct"], result["attempted"], result["failed"]), (True, 6, 0))
        self.assertEqual(list(result["metrics"]), list(run.END_TO_END))

    def test_traced_run_reports_every_per_layer_metric(self):
        result = self._last_line(1)
        self.assertEqual((result["correct"], result["failed"]), (True, 0))
        self.assertEqual(list(result["metrics"]), [name for name, _ in tracing.METRICS])


class DefinitionTest(unittest.TestCase):
    def test_benchmark_json_names_every_reported_metric(self):
        spec = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(tracing.METRICS))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.BENCHMARKED))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END.items()))


if __name__ == "__main__":
    unittest.main()
