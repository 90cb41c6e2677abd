#!/usr/bin/env python3
"""Smoke self-test of the benchmark at toy size.

Runs every workload at toy size (``workloads.TOY``) and checks that every
metric ``BENCHMARK.json`` names is emitted with its unit, that each
correctness check fails when its expected value is made wrong, and that the
benchmark refuses to run without the pubcoord sources.  Run it from the root
of a checkout:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.configure_env()
import workloads  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def wrong(value):
    """``value`` with its first entry changed."""
    if isinstance(value, dict):
        first = next(iter(value))
        return {**value, first: wrong(value[first])}
    if isinstance(value, list):
        return [wrong(value[0]), *value[1:]]
    return value + 1


def toy_run(name: str, trace: bool, spec: dict | None = None) -> dict:
    with contextlib.redirect_stderr(io.StringIO()):
        return run.run_workload(name, seed=1, seconds=0, trace=trace,
                                spec=spec or workloads.TOY[name])


class SelfTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        names = [w["name"] for w in BENCH["workloads"]]
        self.assertLessEqual(set(names), set(run.WORKLOAD_NAMES))
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                res = toy_run(name, trace=True)
                self.assertEqual(res["failed"], 0)
                for section, trace in (("end_to_end", False),
                                       ("per_layer", True)):
                    emitted = run.result_metrics(res, trace)
                    self.assertEqual(
                        {m["name"]: m["unit"] for m in BENCH[section]},
                        {k: v["unit"] for k, v in emitted.items()})
                    for metric, entry in emitted.items():
                        self.assertIsInstance(entry["value"], (int, float),
                                              metric)
                for metric in ("wall_s", "setup_s", "solve_s",
                               "peak_rss_mb"):
                    self.assertGreater(res["e2e"][metric], 0, metric)

    def test_each_check_fails_on_a_wrong_expected_value(self):
        for name, spec in workloads.TOY.items():
            for key in spec["expect"]:
                with self.subTest(workload=name, expect=key):
                    bad = copy.deepcopy(spec)
                    bad["expect"][key] = wrong(bad["expect"][key])
                    res = toy_run(name, trace=False, spec=bad)
                    self.assertGreater(res["failed"], 0)

    def test_refuses_to_run_without_sources(self):
        run.OUT.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "kuhn3-solve", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=bare, capture_output=True, text=True,
                timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
