"""Self-tests of the benchmark.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

import io
import json
import sys
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
import outcome  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from projnorm import cli  # noqa: E402


def call(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Generation(unittest.TestCase):
    def test_same_seed_same_argv_other_seed_other_argv(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(workloads.generate(workload, 3), workloads.generate(workload, 3))
                self.assertNotEqual(workloads.generate(workload, 3), workloads.generate(workload, 4))

    def test_round_sizes_and_mix_do_not_depend_on_the_seed(self):
        for workload in workloads.WORKLOADS:
            sizes = {len(workloads.generate(workload, seed)) for seed in range(5)}
            self.assertEqual(len(sizes), 1, workload)
        rows = {sum(workloads.expected_rows(a) for a in workloads.generate("scans", s)) for s in range(5)}
        self.assertLess(max(rows) - min(rows), 0.02 * min(rows))

    def test_checks_never_repeat_a_case(self):
        ops = workloads.generate("checks", 0)
        self.assertEqual(len({workloads.case_key(a) for a in ops}), len(ops))

    def test_expected_exit_follows_the_input_rules(self):
        self.assertEqual(workloads.expected_exit(["check", "surface-hyp", "--d", "4", "--r", "3"]), 2)
        self.assertEqual(workloads.expected_exit(["check", "threefold-hyp", "--d", "5", "--r", "3"]), 0)
        self.assertEqual(workloads.expected_exit(["--format", "json", "check", "preset", "quartic-k3", "--r", "1"]), 2)
        self.assertEqual(workloads.expected_exit(["check", "preset", "cubic-threefold"]), 0)
        surface = ["check", "surface", "--h2=1", "--hk=0", "--k2=0", "--chi=1", "--r", "2", "--c1", "1", "--c2=0"]
        self.assertEqual(workloads.expected_exit(surface), 2)  # h = 2 < r + 3
        self.assertEqual(workloads.expected_exit(surface[:2] + ["--h2=5"] + surface[3:]), 0)
        self.assertEqual(workloads.expected_exit(["verify-formulas", "--ranks", "1..2"]), 0)


class Judging(unittest.TestCase):
    OPS = [
        ["check", "surface-hyp", "--d", "4", "--r", "2"],
        ["check", "surface-hyp", "--d", "4", "--r", "3"],
        ["scan", "ci", "--rmax", "5", "--format", "csv"],
    ]

    def results(self):
        return [
            {"code": 0, "digest": "aaaaaaaa", "rows": 28, "stderr": ""},
            {"code": 2, "digest": "e3b0c442", "rows": 0, "stderr": "error: r*(d-1) must be even\n"},
            {"code": 0, "digest": "cccccccc", "rows": 15, "stderr": ""},
        ]

    def failed(self, results, reference=None, first=None):
        return [i for i, why in enumerate(outcome.op_failures(self.OPS, results, reference, first)) if why]

    def test_matching_outcomes_pass(self):
        reference = [r["digest"] for r in self.results()]
        self.assertEqual(self.failed(self.results(), reference, reference), [])

    def test_planted_wrong_digest_is_a_failure(self):
        reference = [r["digest"] for r in self.results()]
        reference[2] = "00000000"
        self.assertEqual(self.failed(self.results(), reference), [2])
        self.assertEqual(self.failed(self.results(), first=reference), [2])

    def test_planted_wrong_exit_code_is_a_failure(self):
        results = self.results()
        results[1]["code"] = 0
        self.assertEqual(self.failed(results), [1])
        results = self.results()
        results[0]["code"] = 2
        results[0]["stderr"] = "error: x\n"
        self.assertEqual(self.failed(results), [0])

    def test_traceback_and_wrong_row_count_are_failures(self):
        results = self.results()
        results[2]["rows"] = 14
        results[1]["stderr"] = "Traceback (most recent call last):\n"
        self.assertEqual(self.failed(results), [1, 2])


class SpotChecks(unittest.TestCase):
    def test_real_output_passes_in_every_format(self):
        for fmt in ("table", "json", "csv"):
            for argv in (
                ["scan", "p3", "--dmax", "9", "--rmax", "5"],
                ["scan", "p4", "--dmax", "9", "--rmax", "5"],
                ["scan", "curve", "--gmax", "6", "--dmax", "12"],
                ["scan", "ci", "--rmax", "9"],
                ["check", "surface-hyp", "--d", "5", "--r", "4"],
                ["check", "threefold-hyp", "--d", "5", "--r", "3"],
                ["check", "preset", "quartic-k3"],
                ["check", "curve", "--g", "5", "--d", "8", "--p", "2"],
                ["verify-formulas", "--ranks", "1..2", "--trials", "2", "--seed", "3"],
            ):
                argv = argv + ["--format", fmt]
                with self.subTest(argv=argv):
                    code, text = call(argv)
                    self.assertEqual(code, 0)
                    self.assertEqual(outcome.spot_check(argv, text), [])
                    rows = outcome.row_count(fmt, text.count("\n"), text.count('"params": {'))
                    self.assertEqual(rows, len(outcome.parse_report(text, fmt)))

    def test_planted_wrong_cells_are_found(self):
        argv = ["scan", "p3", "--dmax", "6", "--rmax", "4"]
        _, text = call(argv)
        self.assertIn("36", text)  # dim S^2 H^0 at d=4, r=2 is C(9, 2)
        self.assertTrue(outcome.spot_check(argv, text.replace("  36  ", "  37  ")))
        argv = ["scan", "curve", "--gmax", "3", "--dmax", "6", "--format", "csv"]
        _, text = call(argv)
        self.assertTrue(outcome.spot_check(argv, text.replace("0,1,false", "0,1,true", 1)))
        argv = ["scan", "ci", "--rmax", "9", "--format", "json"]
        _, text = call(argv)
        doc = json.loads(text)
        del doc["rows"][0]
        self.assertTrue(outcome.spot_check(argv, json.dumps(doc)))


class Tracing(unittest.TestCase):
    def test_self_time_on_a_synthetic_span_tree(self):
        # root [0, 10] with children [1, 4], [3.5, 4.5] (overlapping) and
        # [5, 9]; the last has a child [6, 7]
        start = [0.0, 1.0, 3.5, 5.0, 6.0]
        end = [10.0, 4.0, 4.5, 9.0, 7.0]
        parent = [-1, 0, 0, 0, 3]
        self.assertEqual(tracing.self_times(start, end, parent), [2.5, 3.0, 1.0, 3.0, 1.0])

    def test_child_time_outside_the_parent_is_not_subtracted(self):
        self.assertEqual(tracing.self_times([0.0, 1.0], [2.0, 3.0], [-1, 0]), [1.0, 2.0])

    def test_every_target_has_a_hot_workload(self):
        self.assertEqual(set(tracing.HOT), {name for name, _, _ in tracing.TARGETS})

    def test_install_wraps_every_copy_and_uninstall_restores_it(self):
        import projnorm.cli
        import projnorm.exactalg
        import projnorm.rr

        original = projnorm.exactalg.ring_degree
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(projnorm.cli.ring_degree, original)
            self.assertIsNot(projnorm.rr.ring_degree, original)
            for argv in (["check", "surface-hyp", "--d", "4", "--r", "2"], ["check", "threefold-hyp", "--d", "5", "--r", "3"]):
                self.assertEqual(call(argv)[0], 0)
        finally:
            tracer.uninstall()
        self.assertIs(projnorm.cli.ring_degree, original)
        self.assertIs(projnorm.rr.ring_degree, original)
        metrics = tracer.layer_metrics(1.0)
        self.assertEqual(metrics["rr.solve_ulrich_chern.calls"], 2)
        self.assertEqual(metrics["rr.chi_evals_per_solve"], (4 + 9) / 2)
        self.assertEqual(metrics["cli.build_parser.calls"], 2)
        self.assertGreater(metrics["exactalg.ring_degree.calls"], 0)
        self.assertEqual(metrics["exactalg.elementary_symmetric.calls"], 0)

    def test_benchmark_json_names_only_metrics_the_run_reports(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        tracer = tracing.Tracer()
        produced = set(tracer.layer_metrics(1.0)) | {
            "cli.input_errors", "report.rows_out", "report.bytes_out", "verify.rows", "trace.overhead_ratio"
        }
        self.assertLessEqual({m["name"] for m in spec["per_layer"]}, produced)
        names = {m["name"] for m in spec["end_to_end"]}
        self.assertEqual(names, {"setup_s", "wall_s", "op_ms_p50", "op_ms_tail", "ops_per_s", "cells_per_s", "peak_rss_mb"})


class Metrics(unittest.TestCase):
    def test_tail_percentile_leaves_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(3000), 99)
        self.assertEqual(run.tail_percentile(144), 90)
        self.assertEqual(run.tail_percentile(72), 75)
        self.assertEqual(run.percentile(list(range(100)), 90), (89, 10))

    def test_local_factors_use_the_nearest_slices(self):
        slices = [(i, 0.001) for i in range(10)] + [(i, 0.004) for i in range(10, 20)]
        scale = calibrate.local_factors(20, slices, width=3)
        self.assertEqual(scale[2], calibrate.REFERENCE_SLICE_S / 0.001)
        self.assertEqual(scale[17], calibrate.REFERENCE_SLICE_S / 0.004)


if __name__ == "__main__":
    unittest.main()
