"""Smoke tests of ``scripts/``: each runs as a user runs it and exits 0."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pubcoord

from test_census import KUHN_ROWS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *argv) -> str:
    """Run ``scripts/<name>`` in a fresh interpreter; returns its stdout."""
    env = dict(os.environ)
    src = str(Path(pubcoord.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(SCRIPTS / name),
                           *map(str, argv)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_census_tables_print_the_kuhn_rows():
    out = run_script("census_tables.py", "--benchmarks", "kuhn3")
    rows = [line.split() for line in out.splitlines()[1:]]
    # game, position, the eight census columns, then two timings
    assert {int(r[1]): tuple(map(int, r[2:10])) for r in rows} == KUHN_ROWS


def test_size_tables_print_every_depth():
    out = run_script("size_tables.py", "--max-depth", "4")
    assert [line.split()[0] for line in out.splitlines()
            if line[:3].strip().isdigit()] == ["1", "2", "3", "4"] * 2


def test_kuhn_convergence_writes_one_csv_per_position(tmp_path):
    out = run_script("kuhn_convergence.py", "--iterations", "20",
                     "--log-every", "10", "--outdir", tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"kuhn_pos{p}_lcfr+.csv" for p in (0, 1, 2)]
    assert out.count("pos ") == 3


def test_oracle_sweep_prints_one_line_per_named_game():
    out = run_script("oracle_sweep.py", "mini-s0-c2", "kuhn3-pos0")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["game"] for r in rows] == ["mini-s0-c2", "kuhn3-pos0"]
    assert [r["plans"] for r in rows] == [[4, 16, 4], [1000, 4096, 729]]
    assert abs(rows[0]["value"] - 1.5) <= 1e-9
    assert abs(rows[1]["value"]) <= 1e-9
    assert all(r["seconds"] >= 0 for r in rows)
