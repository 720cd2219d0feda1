"""Self-tests of the benchmark itself: ``python3 perfbench/selftest.py``.

They check the harness, not cuberec: the generator is deterministic per seed,
tracing wrappers leave cuberec exactly as they found it, a wrong stored
fingerprint fails its job and the run, a job over its budget is killed and
failed, and BENCHMARK.json names exactly the metrics the harness reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import unittest

import run
import tracing
import workloads

sys.path.insert(0, os.path.join(run.ROOT, "src"))
OUT = os.path.join(run.ROOT, ".perfbench_out", "selftest")


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for name in workloads.WORKLOADS:
            first = workloads.make_jobs(name, 7)
            self.assertEqual(first, workloads.make_jobs(name, 7))
            self.assertNotEqual(first, workloads.make_jobs(name, 8))
            self.assertEqual(len(first), len(workloads.make_jobs(name, 8)))


class TracingTest(unittest.TestCase):
    def snapshot(self):
        import cuberec
        from cuberec import cli, groves, lattice, laurent, recurrence, sequences

        containers = [cuberec, laurent, lattice, recurrence, groves, sequences, cli,
                      laurent.LaurentPoly, lattice.InitialConditions, groves.Grove]
        snap = {(id(c), k): v for c in containers for k, v in vars(c).items()}
        snap.update({("PROPERTIES", k): v for k, v in cli.PROPERTIES.items()})
        return snap

    def test_remove_restores_every_attribute(self):
        before = self.snapshot()
        tracer = tracing.Tracer("selftest")
        tracer.install()
        patched = self.snapshot()
        tracer.remove()
        after = self.snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        changed = [k for k, v in before.items() if patched[k] is not v]
        self.assertGreaterEqual(len(changed), len(tracing.SPANNED) + len(tracing.COUNTED))

    def test_traced_job_reports_layers(self):
        job = next(j for j in run.prepare("evaluate", 0, OUT) if j.get("name") == "standard:4")
        worker = run.Worker(os.path.join(OUT, "worker.err"))
        try:
            result = worker.run(job, True, os.path.join(OUT, "spans"), 60)
        finally:
            worker.close()
        self.assertTrue(result["ok"], result["error"])
        self.assertGreater(result["layers"]["laurent.div_exact.calls"], 0)
        self.assertGreater(result["layers"]["recurrence.f_symbolic.total_s"], 0)


class GateTest(unittest.TestCase):
    def test_wrong_fingerprint_fails_the_run(self):
        jobs = [j for j in run.prepare("evaluate", 0, OUT)
                if j.get("name") == "standard:4" and j["kind"] == "symbolic"]
        bad = dict(jobs[0], id="bad", fingerprint="0" * 64)
        path = os.path.join(OUT, "tampered.json")
        with open(path, "w") as fh:
            json.dump([jobs[0], bad], fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = run.main(["--workload", "evaluate", "--seconds", "0", "--replay", path])
        lines = out.getvalue().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(status, 1)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))
        self.assertIn("fail_ratio = 0.5 ratio (1 of 2 jobs)", lines)


class BudgetTest(unittest.TestCase):
    def test_overrun_is_killed_and_failed(self):
        job = next(j for j in run.prepare("enumerate", 0, OUT) if j.get("name") == "standard:6")
        worker = run.Worker(os.path.join(OUT, "worker.err"))
        try:
            result = worker.run(job, False, os.path.join(OUT, "spans"), 0.2)
        finally:
            worker.close()
        self.assertFalse(result["ok"])
        self.assertEqual(result["job_s"], 0.2)
        self.assertFalse(worker.alive)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], tracing.METRICS)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
