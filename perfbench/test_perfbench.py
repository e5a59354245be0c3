#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py        (from the repo root)

Short runs (one second each) of every workload, so the whole file
takes about a minute plus the first build.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def bench_run(workload, trace, seed=7, seconds=1, extra=()):
    """Run perfbench once; return (exit code, stdout lines, record)."""
    with tempfile.TemporaryDirectory() as tmp:
        results = os.path.join(tmp, "r.jsonl")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--results", results] + list(extra),
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=600)
        record = None
        if os.path.exists(results):
            with open(results) as f:
                record = json.loads(f.read().splitlines()[-1])
    return proc.returncode, proc.stdout.splitlines(), record


class Catalogue(unittest.TestCase):
    def test_benchmark_json_matches_catalogue(self):
        cat = run.CATALOGUE
        for group in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in BENCH[group]}
            self.assertEqual(declared, {n: m["unit"]
                                        for n, m in cat[group].items()})
        self.assertEqual([w["name"] for w in BENCH["workloads"]],
                         list(run.WORKLOADS))
        e2e = set(cat["end_to_end"])
        for name, meta in cat["per_layer"].items():
            self.assertTrue(set(meta["workloads"]) <= set(run.WORKLOADS),
                            name)
            for metric, workload in meta["moves"]:
                self.assertIn(metric, e2e, name)
                self.assertIn(workload, run.WORKLOADS, name)

    def test_unknown_metric_name_is_rejected(self):
        with self.assertRaises(ValueError):
            run.result_line(True, 1, 0, {"latency_typo_s": 1.0})
        line = json.loads(run.result_line(True, 1, 0, {"setup_s": 0.5}))
        self.assertEqual(line["metrics"]["setup_s"],
                         {"value": 0.5, "unit": "s"})


class Comparator(unittest.TestCase):
    @staticmethod
    def records(workload, name, vals):
        return [{"workload": workload, "trace": 0, "seed": i,
                 "correct": True,
                 "metrics": {name: {"value": v, "unit": "s"}}}
                for i, v in enumerate(vals)]

    def test_verdicts(self):
        base = [1.00, 1.01, 0.99, 1.02, 0.98]
        self.assertEqual(compare.verdict(base, base, 0.1, "lower"), "agree")
        slower = [v * 1.5 for v in base]
        self.assertEqual(compare.verdict(base, slower, 0.1, "lower"),
                         "worse")
        self.assertEqual(compare.verdict(base, slower, 0.1, "higher"),
                         "agree")
        noisy = [0.5, 1.5, 1.0, 2.0, 0.7]
        self.assertEqual(compare.verdict(base, noisy, 0.1, "lower"),
                         "unresolved")

    def test_report_has_one_row_per_workload(self):
        bench = {"workloads": [{"name": "a"}, {"name": "b"}],
                 "end_to_end": [{"name": "setup_s", "unit": "s",
                                 "better": "lower", "bound": 0.2}]}
        base = self.records("a", "setup_s", [1.0, 1.02, 0.98]) + \
            self.records("b", "setup_s", [2.0, 2.04, 1.96])
        new = self.records("a", "setup_s", [1.0, 1.01, 0.99]) + \
            self.records("b", "setup_s", [4.0, 4.08, 3.92])

        class Out(list):
            write = list.append

        out = Out()
        failures = compare.compare(base, new, bench, run.CATALOGUE, out)
        rows = "".join(out).splitlines()
        summary = [r for r in rows if not r.startswith(" ")]
        self.assertEqual(len(summary), 2)
        self.assertIn("setup_s=agree", summary[0])
        self.assertIn("setup_s=worse", summary[1])
        self.assertEqual(failures, 1)
        # One set: every metric's spread is held to its bound.
        noisy = self.records("a", "setup_s", [1.0, 1.6, 0.6, 1.3, 0.8])
        out = Out()
        self.assertEqual(compare.compare(noisy, None, bench, run.CATALOGUE,
                                         out), 1)
        self.assertIn("setup_s=SPREAD", "".join(out))


class SelfTimes(unittest.TestCase):
    def test_nested_and_parallel_children(self):
        spans = [[1, 0, 1, "sim.sweep", 0.0, 10.0],
                 [2, 1, 1, "pipeline.run", 1.0, 4.0],
                 [3, 1, 1, "pipeline.run", 2.0, 6.0],
                 [4, 1, 1, "pipeline.run", 8.0, 12.0]]
        st = run.self_times(spans)
        self.assertAlmostEqual(st[1], 10.0 - (5.0 + 2.0))
        self.assertAlmostEqual(st[2], 3.0)

    @staticmethod
    def job(children, root=(0.0, 3.0)):
        """A serve.submit tree measured as sent at 0 and done at 3."""
        spans = [[1, 0, 7, "serve.submit", root[0], root[1]]]
        spans += [[2 + i, 1, 7, "serve.row", t0, t1]
                  for i, (t0, t1) in enumerate(children)]
        return spans, {7: (0.0, 3.0, 1)}

    def test_span_check_accepts_a_tiled_job(self):
        spans, measured = self.job([(0.0, 1.0), (1.0, 2.5), (2.5, 3.0)])
        self.assertEqual(run.span_errors(spans, measured, 1e-6), {})

    def test_span_check_finds_gap_overlap_and_escape(self):
        cases = {
            "gap": ([(0.0, 1.0), (1.5, 3.0)], (0.0, 3.0), 0.5),
            "overlap": ([(0.0, 2.0), (1.5, 3.0)], (0.0, 3.0), 0.5),
            "child outside": ([(0.0, 1.0), (1.0, 3.4)], (0.0, 3.0), 0.8),
            "late root": ([(0.2, 3.0)], (0.2, 3.0), 0.2),
        }
        for name, (children, root, err) in cases.items():
            with self.subTest(case=name):
                spans, measured = self.job(children, root)
                got = run.span_errors(spans, measured, 1e-6)
                self.assertEqual(list(got), [7])
                self.assertAlmostEqual(got[7], err)

    def test_span_check_bounds_parallel_children(self):
        # Two threads: four 1 s points in a 2 s sweep fit, a fifth does
        # not.
        spans = [[1, 0, 3, "sim.sweep", 0.0, 2.0]]
        rows = [(0.0, 1.0), (0.0, 1.0), (1.0, 2.0), (1.0, 2.0)]
        spans += [[2 + i, 1, 3, "pipeline.run", t0, t1]
                  for i, (t0, t1) in enumerate(rows)]
        measured = {3: (0.0, 2.0, 2)}
        self.assertEqual(run.span_errors(spans, measured, 1e-6), {})
        spans.append([9, 1, 3, "pipeline.run", 0.5, 1.5])
        self.assertAlmostEqual(
            run.span_errors(spans, measured, 1e-6)[3], 1.0)


class Runs(unittest.TestCase):
    """End-to-end short runs; they build the benchmark on first use."""

    def check_result(self, workload, trace):
        code, lines, record = bench_run(workload, trace)
        self.assertEqual(code, 0, lines[-5:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        group = "per_layer" if trace else "end_to_end"
        declared = {m["name"]: m["unit"] for m in BENCH[group]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        # A one-second run may be too short for a p95; the record must
        # then say why it was left out.
        missing = set(declared) - set(got)
        self.assertEqual(missing, set() if trace else set(record["omitted"]),
                         workload)
        self.assertTrue(all(n.endswith("_p95") for n in record["omitted"]))
        for name, unit in got.items():
            self.assertEqual(declared[name], unit, name)
        self.assertIn("command", record["provenance"])
        self.assertIn("git_commit", record["provenance"])
        return result, record

    def test_every_workload_emits_every_metric(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_result(workload, trace)

    def test_unknown_workload_is_rejected(self):
        code, lines, record = bench_run("no_such_workload", 0)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(l.startswith("{") for l in lines))
        self.assertIsNone(record)

    def test_traced_self_times_sum_to_span_wall(self):
        # Each traced job's (or sweep's) span tree is held against the
        # interval measured outside the span recorder: the client's
        # send-to-done latency, the harness's sweep wall.
        for workload in ("serve_warm", "offline_sweep"):
            with tempfile.TemporaryDirectory() as tmp, \
                    self.subTest(workload=workload):
                path = os.path.join(tmp, "spans.json")
                code, _, record = bench_run(workload, 1,
                                            extra=("--spans", path))
                self.assertEqual(code, 0)
                self.assertTrue(
                    record["checks"]["spans_account_for_measured_walls"])
                with open(path) as f:
                    dump = json.load(f)
                measured = {m[0]: tuple(m[1:]) for m in dump["measured"]}
                self.assertTrue(measured)
                roots = [s for s in dump["spans"] if s[2] in measured
                         and s[1] == 0]
                self.assertEqual(len(roots), len(measured))
                self.assertEqual(run.span_errors(
                    dump["spans"], measured, dump["span_cost_s"]), {})

    def test_simulated_counts_repeat(self):
        _, lines_a, _ = bench_run("serve_warm", 1, seed=3)
        _, lines_b, _ = bench_run("serve_warm", 1, seed=3)
        a = json.loads(lines_a[-1])["metrics"]
        b = json.loads(lines_b[-1])["metrics"]
        simulated = [n for n, m in run.CATALOGUE["per_layer"].items()
                     if m.get("simulated")]
        self.assertTrue(simulated)
        for name in simulated:
            self.assertEqual(a[name], b[name], name)


if __name__ == "__main__":
    unittest.main()
