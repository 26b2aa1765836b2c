"""Self-tests of the benchmark harness.

    python3 bench/test_bench.py
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from lrc5.field import Field  # noqa: E402
from stats import highest_tail, percentile  # noqa: E402
from tracing import NullTracer  # noqa: E402


class InputsTest(unittest.TestCase):
    def inputs(self, cls, seed):
        wl = cls(Path(tempfile.gettempdir()))
        rng = random.Random(seed)
        return [wl.make_input(rng) for _ in range(3)]

    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                self.assertEqual(self.inputs(cls, 7), self.inputs(cls, 7))
                self.assertNotEqual(self.inputs(cls, 7), self.inputs(cls, 8))


class PercentileTest(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(percentile(range(1000), 99), 989)
        self.assertIsNone(percentile(range(999), 99))
        self.assertEqual(percentile(range(100), 90), 89)
        self.assertIsNone(percentile(range(99), 90))
        self.assertIsNone(percentile([], 50))

    def test_median_and_highest_tail(self):
        self.assertEqual(percentile([3, 1, 2], 50), 2)
        self.assertEqual(highest_tail(range(1000)), (99, 989))
        self.assertEqual(highest_tail(range(150)), (90, 134))
        self.assertIsNone(highest_tail(range(50)))


class CheckerTest(unittest.TestCase):
    def test_reference_tables_match_the_field(self):
        for p, m in workloads.MODULI:
            field = Field(p, m)
            add, mul = workloads.ref_tables(p, m)
            for a in range(field.q):
                for b in range(field.q):
                    self.assertEqual((add[a][b], mul[a][b]), (field.add(a, b), field.mul(a, b)))

    def test_two_pairs_condition(self):
        ref = workloads.Ref.build(13, 1, [], [])
        self.assertTrue(ref.two_pairs([(5, 6), (6, 12), (10, 12), (11, 6)]))
        self.assertFalse(ref.two_pairs([(5, 6), (6, 12), (10, 12), (12, 6)]))
        self.assertFalse(ref.two_pairs([(5, 6), (6, 6), (10, 12), (11, 1)]))

    def one_op(self, cls):
        wl = cls(Path(tempfile.gettempdir()))
        state = wl.setup(NullTracer())
        ref, checked = wl.prepare(state)
        self.assertEqual(checked.failures, [])
        inp = wl.make_input(random.Random(3))
        return wl, ref, inp, wl.run(state, inp, NullTracer())

    def assert_counted_as_failure(self, wl, ref, inp, out):
        tally = run.Tally()
        with contextlib.redirect_stderr(io.StringIO()) as err:
            tally.add(wl.check(ref, inp, out))
        self.assertGreater(tally.failed, 0)
        self.assertIn("FAILED", err.getvalue())

    def test_corrupted_codeword_is_a_failure(self):
        wl, ref, inp, out = self.one_op(workloads.StoreGF16)
        self.assertEqual(wl.check(ref, inp, out).failures, [])
        out.data["cw"][0] = ref.add[out.data["cw"][0]][1]
        self.assert_counted_as_failure(wl, ref, inp, out)

    def test_unrecovered_trial_is_a_failure(self):
        wl, ref, inp, out = self.one_op(workloads.SimGF9)
        self.assertEqual(wl.check(ref, inp, out).failures, [])
        out.data["result"].fully_recovered_trials -= 1
        self.assert_counted_as_failure(wl, ref, inp, out)

    def test_changed_artifact_fails_its_pin(self):
        self.assertEqual(len(workloads.pin_failures(13, 5, "0\n", "0\n")), 2)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        per_layer = {**{m: "ms" for m in run.PER_LAYER_SPANS}, "trace.overhead_pct": "%",
                     **run.PER_LAYER_COUNTS}
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, per_layer)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))

    def test_exits_nonzero_without_source_tree(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "sim-gf9", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
