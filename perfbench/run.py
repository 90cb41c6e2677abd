#!/usr/bin/env python3
"""pubcoord benchmark: time to a solution of stated accuracy, and the cost of
building the converted game, on four fixed workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kuhn3-solve --seed 1 --seconds 36 \\
        --trace 0

``--workload all`` runs every workload in turn, each in a fresh process.
A run cycles through the workload's positions in a closed loop (one
client, one operation at a time) until the next one would end after
``--seconds``, and reports per-position medians of speed-normalised times
(see ``speed.py``).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced cycles and prints the
per-layer metrics derived from the traced cycles' spans, plus the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")

WORKLOAD_NAMES = ("kuhn3-solve", "leduc-convert", "kuhn4-cli",
                  "kuhn4-oracle")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s",
                    "peak_rss_mb": "MB"}

# End-to-end figures that apply to some workloads only.  They are printed
# where they apply but are not part of the gated result.
WORKLOAD_UNITS = {"raw_wall_s": "s", "time_to_target_s": "s", "oracle_s": "s",
                  "cli_pipeline_s": "s", "final_exploitability": "chips",
                  "ops_failed_frac": "ratio"}

PER_LAYER_UNITS = {
    "games.gen_s": "s", "games.source_nodes": "count",
    "model.prepare_s": "s", "model.seen_sequences_s": "s",
    "convert.basic_s": "s", "convert.pruned_s": "s", "convert.folded_s": "s",
    "convert.basic_nodes": "count", "convert.pruned_nodes": "count",
    "convert.folded_nodes": "count", "convert.ns_per_node": "ns",
    "convert.blowup": "ratio", "convert.max_active": "count",
    "convert.max_fanout": "count", "convert.safe_ir_s": "s",
    "convert.payoff_equiv_s": "s",
    "census.s": "s",
    "solvers.compile_s": "s", "solvers.cfr_iter_ms": "ms",
    "solvers.cfr_ns_per_node_iter": "ns", "solvers.iters_to_target": "count",
    "solvers.ev_ms": "ms", "solvers.br_coord_ms": "ms",
    "solvers.br_opp_ms": "ms", "solvers.exploitability_ms": "ms",
    "solvers.coord_infosets": "count", "solvers.opp_infosets": "count",
    "solvers.reduced_plans": "count", "solvers.oracle_double_s": "s",
    "io_json.save_s": "s", "io_json.load_s": "s", "io_json.probe_s": "s",
    "io_json.bytes": "B", "io_json.load_mb_per_s": "MB/s",
    "cli.import_s": "s", "cli.gen_s": "s", "cli.convert_s": "s",
    "cli.solve_s": "s", "cli.verify_s": "s", "cli.child_peak_rss_mb": "MB",
    "trace.overhead_s": "s",
}

MAX_COUNTS = ("convert.blowup", "convert.max_active", "convert.max_fanout")
COUNT_METRICS = ("games.source_nodes", "convert.basic_nodes",
                 "convert.pruned_nodes", "convert.folded_nodes",
                 "convert.blowup", "convert.max_active", "convert.max_fanout",
                 "solvers.iters_to_target", "solvers.coord_infosets",
                 "solvers.opp_infosets", "solvers.reduced_plans",
                 "io_json.bytes")


def configure_env() -> None:
    """Pin BLAS/OpenMP pools to one thread for this process and its
    children, and make them import pubcoord from this checkout."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def machine_info() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _merged_counts(units) -> dict:
    out: dict = {}
    for p in units:
        for key, value in p.counts.items():
            if key in MAX_COUNTS:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def _layer_metrics(tracing, spans: list, cycle: list) -> dict:
    """Per-layer metrics of one traced cycle."""
    counts = _merged_counts(cycle)
    layers = tracing.layer_metrics(spans, counts)
    for metric in COUNT_METRICS:
        layers[metric] = counts.get(metric, 0)
    for cmd in ("import", "gen", "convert", "solve", "verify"):
        layers[f"cli.{cmd}_s"] = sum(p.stages[f"cli.{cmd}"] for p in cycle)
    layers["traced_wall"] = sum(p.wall - p.stages["traced_only"]
                                for p in cycle)
    # a child's peak RSS also counts this process's pages when it was
    # started, and the in-process replay makes this process large: only the
    # first traced cycle's reading is clean
    layers["cli.child_peak_rss_mb"] = (resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
    return layers


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict | None = None) -> dict:
    """Run one workload for about ``seconds``; return its metrics,
    operation tallies and spans.

    A cycle runs the workload once at each of its positions.  Untraced, the
    run cycles until the next position would end after ``seconds`` (at
    least one full cycle), and each end-to-end metric is the sum over
    positions of that position's median.  Traced, it runs a warm-up cycle,
    then untraced and traced cycles in turn, and ends after a traced one
    once the next pair would not fit."""
    import tracing
    import workloads
    from speed import SpeedProbe
    fn, default_spec = workloads.WORKLOADS[name]
    spec = default_spec if spec is None else spec
    positions = spec["positions"]
    # one CPU for the run and its CLI children, so the speed probe samples
    # the CPU the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    samples = {pos: [] for pos in positions}   # untraced calls per position
    plain_cycles, traced_cycles, traced_layers, spans = [], [], [], []
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    start = time.perf_counter()

    def out_of_time(raw_s: float) -> bool:
        return time.perf_counter() - start + raw_s > seconds

    def run_position(pos, tracer):
        p = workloads.Pass(seed, workdir, probe, tracer)
        t0, raw0 = probe.now(), time.perf_counter()
        with p.guard(f"{name} position {pos}"):
            fn(p, spec, pos)
        p.wall = probe.now() - t0
        p.raw_wall = time.perf_counter() - raw0
        return p

    try:
        with probe.running():
            while not trace:
                cycle = []
                for pos in positions:
                    if plain_cycles and out_of_time(
                            max(q.raw_wall for q in samples[pos])):
                        break
                    cycle.append(run_position(pos, None))
                    samples[pos].append(cycle[-1])
                if len(cycle) < len(positions):
                    break
                plain_cycles.append(cycle)
            # traced: a warm-up cycle, then untraced and traced in turn
            while trace:
                if len(plain_cycles) <= len(traced_cycles) + 1:
                    cycle = [run_position(pos, None) for pos in positions]
                    plain_cycles.append(cycle)
                    for pos, p in zip(positions, cycle):
                        samples[pos].append(p)
                    continue
                tracer = tracing.Tracer(
                    f"{name}/seed{seed}/cycle{len(traced_cycles)}")
                with tracer.patched(), tracer.span("bench.cycle"):
                    cycle = [run_position(pos, tracer) for pos in positions]
                traced_cycles.append(cycle)
                spans.extend(tracer.spans)
                traced_layers.append(
                    _layer_metrics(tracing, tracer.spans, cycle))
                longest = max(sum(p.raw_wall for p in c)
                              for c in plain_cycles + traced_cycles)
                if out_of_time(2 * longest):
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = [p for pos in positions for p in samples[pos]]
    units += [p for c in traced_cycles for p in c]
    attempted = sum(p.attempted for p in units)
    failed = sum(p.failed for p in units)

    def per_position(value):
        return sum(_median(value(p) for p in samples[pos])
                   for pos in positions)

    def stage(name):
        return per_position(lambda p: p.stages[name])
    usage = resource.getrusage(resource.RUSAGE_CHILDREN
                               if spec.get("subprocesses")
                               else resource.RUSAGE_SELF)
    e2e = {
        "wall_s": per_position(lambda p: p.wall),
        "setup_s": stage("setup"),
        "solve_s": stage("solve"),
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    extra = {
        "raw_wall_s": per_position(lambda p: p.raw_wall),
        "time_to_target_s": stage("target"),
        "oracle_s": stage("oracle"),
        "cli_pipeline_s": stage("cli_pipeline"),
        "final_exploitability": sum(samples[pos][-1].final_exploitability
                                    for pos in positions),
    }
    extra = {k: v for k, v in extra.items()
             if k in spec["reports"] or k == "raw_wall_s"}
    extra["ops_failed_frac"] = failed / max(attempted, 1)
    layers = {}
    if traced_layers:
        for metric in PER_LAYER_UNITS:
            if metric in traced_layers[0]:
                layers[metric] = _median(t[metric] for t in traced_layers)
        layers["cli.child_peak_rss_mb"] = traced_layers[0][
            "cli.child_peak_rss_mb"]
        layers["trace.overhead_s"] = (
            _median(t["traced_wall"] for t in traced_layers)
            - _median(sum(p.wall for p in c) for c in plain_cycles[1:]))
    return {"e2e": e2e, "extra": extra, "layers": layers,
            "attempted": attempted, "failed": failed,
            "cycles": (len(plain_cycles), len(traced_cycles)),
            "spans": spans}


def result_metrics(res: dict, trace: bool) -> dict:
    """The gated metrics of a run: per-layer ones if traced, else
    end-to-end ones, each with its unit."""
    metrics, units = ((res["layers"], PER_LAYER_UNITS) if trace
                      else (res["e2e"], END_TO_END_UNITS))
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    combined, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            combined[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pubcoord" / "__init__.py").is_file():
        print(f"error: no pubcoord sources under {SRC}; run from the root "
              "of a pubcoord checkout", file=sys.stderr)
        return 2
    configure_env()
    if args.workload == "all":
        return run_all(args)

    info = machine_info()
    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    plain, traced = res["cycles"]
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"cycles={plain} untraced + {traced} traced")
    print(f"# machine {json.dumps(info)}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w") as f:
            for name, start, end, parent, run in res["spans"]:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "run": run}) + "\n")
        print(f"# {len(res['spans'])} spans written to "
              f"{path.relative_to(ROOT)}")
    metrics = result_metrics(res, bool(args.trace))
    for name, entry in metrics.items():
        print(f"{name:32s} {entry['value']:>16.6g} {entry['unit']}")
    if not args.trace:
        print("# workload metrics (not gated)")
        for name, value in res["extra"].items():
            print(f"{name:32s} {value:>16.6g} {WORKLOAD_UNITS[name]}")
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
