"""Smoke test of the benchmark itself, on one-second runs.

Checks that every workload named in ``BENCHMARK.json`` (and the
ungated ``deep-sweep``) runs, that each run prints every metric the
file names with its unit, and that a planted wrong verdict fails the
run instead of counting as a slow query.  Run it from the root of a
checkout::

    python3 -m pytest perfbench/test_smoke.py -q
    python3 perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# Flips the first SAT answer of the run to UNSAT, as a broken engine
# would, then runs the benchmark in this process.
_PLANT = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {here!r})
from repro.bmc.session import BmcSession
from repro.sat.types import SolveResult
original = BmcSession.check
planted = []

def check(self, *args, **kwargs):
    result = original(self, *args, **kwargs)
    if result.status is SolveResult.SAT and not planted:
        planted.append(True)
        result.status, result.trace = SolveResult.UNSAT, None
    return result

BmcSession.check = check
import run
sys.exit(run.main(sys.argv[1:]))
"""


def _bench(*args, code=None):
    cmd = [sys.executable] + (["-c", code] if code else [RUN])
    proc = subprocess.run(cmd + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), \
        proc.stderr


class BenchmarkSmoke(unittest.TestCase):

    def _check_metrics(self, workload: str, trace: int, names) -> None:
        code, result, err = _bench("--workload", workload, "--seed", "7",
                                   "--seconds", "1", "--trace", str(trace))
        self.assertEqual(code, 0, err)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        for name, unit in names:
            self.assertIn(name, result["metrics"], (workload, trace))
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertIsInstance(result["metrics"][name]["value"],
                                  (int, float))

    def test_every_workload_emits_every_metric_with_its_unit(self):
        end_to_end = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
        per_layer = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
        gated = [w["name"] for w in SPEC["workloads"]]
        # deep-sweep runs on request but is not gated (see run.py).
        for workload in gated + ["deep-sweep"]:
            with self.subTest(workload=workload):
                self._check_metrics(workload, 0, end_to_end)
                self._check_metrics(workload, 1, per_layer)

    def test_planted_wrong_verdict_fails_the_run(self):
        code = _PLANT.format(src=os.path.join(ROOT, "src"),
                             here=os.path.join(ROOT, "perfbench"))
        status, result, err = _bench("--workload", "suite-unroll",
                                     "--seed", "7", "--seconds", "1",
                                     "--trace", "0", code=code)
        self.assertNotEqual(status, 0, err)
        self.assertIsNotNone(result, err)
        self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
