"""Self-test of the benchmark.

Run from the root of a checkout (about a minute):

    python3 bench/selftest.py

It runs every workload, gated by BENCHMARK.json or not, at a small size,
once untraced and twice traced with the same seed, and asserts that each
run's answers pass the oracles, that every metric BENCHMARK.json names is
present with its unit, and that the count metrics (*.calls, *.entries,
*.yielded) repeat exactly between the two traced runs.  It also checks
that the oracles reject wrong answers and that the benchmark refuses to
run where there is no program.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
import unittest

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]

import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from run import WORKLOADS  # noqa: E402
from workloads import Op  # noqa: E402

import branchgroups as bg  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

SEED = 7


def run(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def all_metrics(workload: str, trace: int) -> dict:
    path = os.path.join(ROOT, ".bench_out", f"{workload}-seed{SEED}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["all_metrics"]


class BenchmarkRuns(unittest.TestCase):
    def check_result(self, proc, wanted):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in wanted))
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        if wanted is SPEC["end_to_end"]:
            for m in wanted:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
        # The report names every metric with its unit before the result line.
        for m in wanted:
            self.assertRegex(proc.stdout, rf"(?m)^{re.escape(m['name'])} \S+ {re.escape(m['unit'])}$")

    def test_workloads(self):
        # All four, also those BENCHMARK.json does not gate.
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.check_result(run(name, 0), SPEC["end_to_end"])
                counts = []
                for _ in range(2):
                    self.check_result(run(name, 1), SPEC["per_layer"])
                    counts.append({
                        k: v["value"] for k, v in all_metrics(name, 1).items()
                        if k.endswith((".calls", ".entries", ".yielded"))
                    })
                self.assertTrue(counts[0])
                self.assertEqual(counts[0], counts[1])

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("portrait_sweep", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


class HostSpeedSampler(unittest.TestCase):
    def test_sampler_shares_the_cpu_samples_the_work_and_ends(self):
        with HostSpeed() as speed:
            proc = speed._proc
            self.assertEqual(os.sched_getaffinity(proc.pid), {speed.cpu})
            start, cpu = time.perf_counter(), time.process_time()
            while time.perf_counter() - start < 0.3:
                pass
            end, cpu = time.perf_counter(), time.process_time() - cpu
        self.assertIsNotNone(proc.returncode)
        self.assertGreater(sum(start <= t <= end for t in speed.times), 10)
        self.assertGreater(speed.scaled(cpu, start, end), 0)


class Oracles(unittest.TestCase):
    def test_closed_forms(self):
        self.assertEqual([workloads.grigorchuk_quotient_order(n) for n in range(1, 6)],
                         [2, 8, 128, 4096, 4194304])
        self.assertEqual([workloads.gupta_sidki_quotient_order(n) for n in range(1, 5)],
                         [3, 27, 2187, 1162261467])

    def test_wrong_quotient_order_fails(self):
        wl = workloads.QuotientLadder()
        inputs = [("grigorchuk", 4)]
        self.assertEqual(wl.check(inputs, [Op("g4", 0.0, 0.0, 4096)]), [])
        self.assertEqual(len(wl.check(inputs, [Op("g4", 0.0, 0.0, 2048)])), 1)

    def test_power_oracle_matches_the_word_problem(self):
        for preset, texts in ((bg.grigorchuk_preset(), ["a b", "a c a d", "b a d a c"]),
                              (bg.gupta_sidki_preset(), ["a b", "a b^-1 a b", "a^-1 b a b"])):
            for text in texts:
                w = bg.Word.from_str(preset, text)
                for k in range(1, 20):
                    self.assertEqual(workloads.power_is_identity(w, k), (w**k).is_identity(), (text, k))

    def test_wrong_order_fails(self):
        wl = workloads.LongWords()
        preset = bg.grigorchuk_preset()
        factors = preset.parse_word("a b")  # order 16
        inputs = [("grigorchuk", "random", factors)]
        self.assertEqual(wl.check(inputs, [Op("w", 0.0, 0.0, (False, 16))]), [])
        for wrong in (8, 32, 48):
            self.assertEqual(len(wl.check(inputs, [Op("w", 0.0, 0.0, (False, wrong))])), 1, wrong)

    def test_portrait_disagreement_fails(self):
        wl = workloads.PortraitSweep()
        inputs = [(("a", 1),)]
        self.assertEqual(wl.check(inputs, [Op("w", 0.0, 0.0, (False, False))]), [])
        self.assertEqual(len(wl.check(inputs, [Op("w", 0.0, 0.0, (True, False))])), 1)


if __name__ == "__main__":
    unittest.main()
