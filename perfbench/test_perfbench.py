#!/usr/bin/env python3
"""Self-tests of the repo benchmark, run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They run every workload at test size (--tiny) and check that
  - names in BENCHMARK.json are well formed, and the binary prints exactly
    those metrics, with those units, traced and untraced;
  - each workload runs end to end with zero oracle mismatches and no failed op;
  - a fixed seed yields identical generated inputs and identical deterministic
    counts (msgs_per_*, congestion_per_read, bytes_per_key, sim read p99);
  - the benchmark fails, without a result, outside a repository checkout.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed=1, trace=0, cwd=ROOT):
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                        str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
                       cwd=cwd, capture_output=True, text=True, timeout=900)
    return p


def result(p):
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1])


def determinism(p):
    for line in p.stdout.splitlines():
        if line.startswith("determinism "):
            return json.loads(line[len("determinism "):])
    raise AssertionError("no determinism line")


class Contract(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        b = bench_json()
        names = [w["name"] for w in b["workloads"]]
        names += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))


class Workloads(unittest.TestCase):
    def check_metrics(self, res, defs, nonzero):
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(list(res["metrics"]), [m["name"] for m in defs])
        for m in defs:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if nonzero:
                self.assertNotEqual(got["value"], 0, m["name"])

    def test_each_workload_end_to_end(self):
        b = bench_json()
        for w in b["workloads"]:
            with self.subTest(workload=w["name"]):
                p = run(w["name"])
                self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                self.check_metrics(result(p), b["end_to_end"], nonzero=True)

    def test_each_workload_traced(self):
        b = bench_json()
        for w in b["workloads"]:
            with self.subTest(workload=w["name"]):
                p = run(w["name"], trace=1)
                self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                self.check_metrics(result(p), b["per_layer"], nonzero=False)

    def test_fixed_seed_repeats_inputs_and_counts(self):
        for w in bench_json()["workloads"]:
            with self.subTest(workload=w["name"]):
                a, b, c = run(w["name"], seed=5), run(w["name"], seed=5), run(w["name"], seed=6)
                for p in (a, b, c):
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                self.assertEqual(determinism(a), determinism(b))
                self.assertNotEqual(determinism(a)["inputs_digest"],
                                    determinism(c)["inputs_digest"])


class OutsideCheckout(unittest.TestCase):
    def test_fails_without_the_repository(self):
        build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        os.makedirs(build_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(d, "perfbench"))
            p = run("oned-bign-read", cwd=d)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
