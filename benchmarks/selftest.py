"""Checks of the benchmark itself.

    python3 benchmarks/selftest.py

Runs every workload once at minimal size, untraced and twice traced,
and checks the span arithmetic and the input generator. Takes about
a minute on 2 CPUs.
"""

import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LATTICE_WORKLOADS = ("decide_small_g",)
COUNT_KEYS = ("decomp.diag_assignments", "decomp.killed_identity",
              "decomp.killed_transpositions", "fermat.degree.primes_drawn",
              "cli.report_bytes")


def _counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(".calls") or k in COUNT_KEYS}


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 9.0]
        parent = [-1, 0, 1, 0]
        self.assertEqual(tracing.self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_count_once(self):
        # children listed out of order, overlapping on [3, 5]
        start = [0.0, 3.0, 0.0]
        end = [10.0, 8.0, 5.0]
        parent = [-1, 0, 0]
        self.assertEqual(tracing.self_times(start, end, parent), [2.0, 5.0, 5.0])

    def test_child_clipped_to_parent(self):
        self.assertEqual(tracing.self_times([0.0, 2.0], [4.0, 6.0], [-1, 0]), [2.0, 4.0])


class InputTest(unittest.TestCase):
    def _models(self, workload, seed, directory):
        pkg = workloads.Package(run.import_package())
        inputs, _ = workloads.WORKLOADS[workload](pkg, seed, directory)
        names = sorted(os.listdir(directory))
        blobs = []
        for name in names:
            with open(os.path.join(directory, name), "rb") as fh:
                blobs.append(fh.read())
        return inputs, blobs

    def test_same_seed_same_model_json(self):
        os.makedirs(run.OUT, exist_ok=True)
        for workload in LATTICE_WORKLOADS:
            with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
                a = self._models(workload, 7, os.path.join(tmp, "a"))
                b = self._models(workload, 7, os.path.join(tmp, "b"))
                c = self._models(workload, 8, os.path.join(tmp, "c"))
            self.assertTrue(a[1])
            self.assertEqual(a, b, workload)
            self.assertNotEqual(a, c, workload)


class WorkloadTest(unittest.TestCase):
    def test_smoke_untraced(self):
        for workload in workloads.WORKLOADS:
            result, context = run.run(workload, 3, 0.1, 0, small=True, write=False)
            self.assertTrue(result["correct"], context["failures"])
            self.assertEqual(result["failed"], 0)
            self.assertGreater(result["metrics"]["run_s"]["value"], 0)
            self.assertEqual(context["passes"], run.MIN_PASSES)

    def test_traced_counts_repeat_and_bypasses(self):
        for workload in workloads.WORKLOADS:
            runs = [run.run(workload, 5, 0.1, 1, small=True, write=False)
                    for _ in range(2)]
            for result, context in runs:
                self.assertTrue(result["correct"], context["failures"])
                self.assertTrue(context["counts_repeat_across_passes"], workload)
            first, second = (_counts(r) for r, _ in runs)
            self.assertEqual(first, second, workload)
            if workload in LATTICE_WORKLOADS:
                self.assertEqual(first["exact.solve_field.calls"], 0)
                self.assertEqual(first["polyring.MultiNf.inverse.calls"], 0)
            else:
                self.assertEqual(first["cmlat.is_integral.calls"], 0)
            if workload == "decide_small_g":
                self.assertGreater(first["decomp.diag_assignments"], 0)


if __name__ == "__main__":
    unittest.main()
