"""The pubcoord benchmark workloads.

A workload is a function plus a spec: the fixed games, the budgets, and
the expected values its correctness checks compare against.  One call runs
the workload's pipeline once at one adversary position.  Every library
call, CLI command and correctness check counts as one operation; an
operation fails if it raises, exits non-zero or does not match its expected
value.  Games are fixed by the spec; the workload seed feeds only the
payoff-equivalence sampler.
"""
from __future__ import annotations

import importlib
import json
import math
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

from speed import SpeedProbe

from pubcoord import convert, games, io_json, model, solvers

census = importlib.import_module("pubcoord.census")

CLI_TIMEOUT_S = 170
SPEED_PY = str(Path(__file__).resolve().parent / "speed.py")


class Pass:
    """Timings, counts and operation tallies of one workload call.

    ``wall`` and ``stages`` are in seconds of the speed probe's clock;
    ``raw_wall`` is the plain wall time."""

    def __init__(self, seed: int, workdir: Path, probe: SpeedProbe,
                 tracer=None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.probe = probe
        self.tracer = tracer
        self.stages: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.final_exploitability = 0.0
        self.wall = 0.0
        self.raw_wall = 0.0

    @contextmanager
    def stage(self, name: str):
        t0 = self.probe.now()
        try:
            yield
        finally:
            self.stages[name] += self.probe.now() - t0

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def op(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what} {detail}", file=sys.stderr)

    @contextmanager
    def guard(self, what: str):
        """Count an exception as a failed operation and go on."""
        try:
            yield
        except Exception:
            self.failed += 1
            self.attempted = max(self.attempted, self.failed)
            print(f"operation failed in {what}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def cli(self, name: str, args: list, expect_exit: int) -> dict:
        """Run one ``pubcoord`` command as a subprocess, under a speed probe
        of its own; return its JSON summary."""
        report = self.workdir / "speed.json"
        report.unlink(missing_ok=True)
        with self.stage(f"cli.{name}"), self.span(f"cli.{name}"), \
                self.probe.paused() as clock:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, SPEED_PY, str(report), *map(str, args),
                 "--json"],
                capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            raw = time.perf_counter() - t0
            if report.exists():
                child = json.loads(report.read_text())
                # start-up before the child's probe ran is scaled at this
                # process's last speed
                startup = max(raw - child["raw"], 0.0)
                clock["scaled"] = child["scaled"] + startup * self.probe.scale
        self.check(f"pubcoord {name} exit code", proc.returncode
                   == expect_exit, f"got {proc.returncode}: {proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


def _close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def _record_conversion(p: Pass, mode: str, source, cg) -> None:
    nodes = len(cg.game.nodes)
    p.counts[f"convert.{mode}_nodes"] += nodes
    p.counts["convert.blowup"] = max(p.counts["convert.blowup"],
                                     nodes / len(source.nodes))
    p.counts["convert.max_active"] = max(
        p.counts["convert.max_active"],
        max((len(a) for a in cg.active if a is not None), default=0))
    p.counts["convert.max_fanout"] = max(
        p.counts["convert.max_fanout"],
        max((len(n.edges) for n in cg.game.nodes
             if n.player == model.COORDINATOR), default=0))


def _record_infosets(p: Pass, c) -> None:
    p.counts["solvers.coord_infosets"] += c.coordinator_infosets
    p.counts["solvers.opp_infosets"] += c.adversary_infosets


def _record_cfr(p: Pass, cg, iterations: int) -> None:
    p.counts["cfr_iterations"] += iterations
    p.counts["cfr_node_iterations"] += iterations * len(cg.game.nodes)


# ---------------------------------------------------------------------------
# kuhn3-solve: CFR to a target exploitability, checked against the oracle
# ---------------------------------------------------------------------------


def kuhn3_solve(p: Pass, spec: dict, pos: int) -> None:
    expect = spec["expect"]
    with p.stage("setup"):
        g = p.op(games.gen_kuhn3, games.PokerSpec(
            "kuhn", spec["ranks"], adversary_position=pos))
    p.counts["games.source_nodes"] += len(g.nodes)
    with p.stage("oracle"):
        oracle = p.op(solvers.tmecor_bruteforce, g)
    p.counts["solvers.reduced_plans"] += sum(
        p.op(solvers.count_reduced_plans, g, pl) for pl in g.players)
    with p.stage("setup"):
        cg = p.op(convert.convert_folded, g)
        cg = p.op(convert.apply_safe_imperfect_recall, cg)
        p.op(solvers.compile_converted, cg)
    _record_conversion(p, "folded", g, cg)

    snapshots = []

    def hook(it, value, expl):
        snapshots.append((it, p.probe.now() - t0, expl))
    with p.stage("solve"):
        t0 = p.probe.now()
        _, log = p.op(solvers.solve_cfr, cg, "lcfr+",
                      iterations=spec["iterations"],
                      log_every=spec["log_every"], log_hook=hook)
    _record_cfr(p, cg, spec["iterations"])
    hit = next(((it, t) for it, t, e in snapshots
                if e <= spec["target"]), None)
    p.check(f"position {pos} reaches exploitability "
            f"{spec['target']}", hit is not None,
            f"final {log.rows[-1][2]}")
    if hit is not None:
        p.counts["solvers.iters_to_target"] += hit[0]
        p.stages["target"] += hit[1]
    _, value, expl = log.rows[-1]
    p.final_exploitability += expl
    p.check(f"position {pos} CFR value matches the oracle",
            _close(value, oracle.value, spec["value_tol"]),
            f"CFR {value} vs oracle {oracle.value}")

    c = p.op(census.census, cg)
    _record_infosets(p, c)
    p.check(f"position {pos} census total",
            c.total_nodes == expect["census_total"][pos],
            f"got {c.total_nodes}")
    p.check(f"position {pos} coordinator infosets",
            c.coordinator_infosets == expect["coord_infosets"][pos],
            f"got {c.coordinator_infosets}")
    report = p.op(convert.check_payoff_equivalence, g, cg,
                  samples=spec["pe_samples"], seed=p.seed)
    p.check(f"position {pos} payoff equivalence",
            report["max_abs_diff"] == expect["max_abs_diff"],
            f"got {report}")


# ---------------------------------------------------------------------------
# leduc-convert: all three conversions, censuses, a few CFR iterations
# ---------------------------------------------------------------------------


def leduc_convert(p: Pass, spec: dict, pos: int) -> None:
    expect = spec["expect"]
    with p.stage("setup"):
        g = p.op(games.gen_leduc3, games.PokerSpec(
            "leduc", spec["ranks"], spec["raises"],
            adversary_position=pos))
        built = {mode: p.op(getattr(convert, f"convert_{mode}"), g)
                 for mode in ("basic", "pruned", "folded")}
        pruned_ir = p.op(convert.apply_safe_imperfect_recall,
                         built["pruned"])
        folded_ir = p.op(convert.apply_safe_imperfect_recall,
                         built["folded"])
        cens = [p.op(census.census, cg)
                for cg in (*built.values(), pruned_ir, folded_ir)]
        p.op(solvers.compile_converted, folded_ir)
    p.counts["games.source_nodes"] += len(g.nodes)
    for mode, cg in built.items():
        _record_conversion(p, mode, g, cg)
    _record_infosets(p, cens[-1])
    nodes = {mode: len(cg.game.nodes) for mode, cg in built.items()}
    del built
    p.check(f"position {pos} node counts per mode",
            nodes == expect["nodes"][pos], f"got {nodes}")
    p.check(f"position {pos} folded < pruned < basic",
            nodes["folded"] < nodes["pruned"] < nodes["basic"],
            f"got {nodes}")

    with p.stage("solve"):
        profile, _ = p.op(solvers.solve_cfr, folded_ir, "lcfr+",
                          iterations=spec["iterations"])
    _record_cfr(p, folded_ir, spec["iterations"])
    expl = p.op(solvers.exploitability, folded_ir, profile)
    p.check(f"position {pos} exploitability is finite and >= 0",
            math.isfinite(expl) and expl >= -1e-9, f"got {expl}")
    p.final_exploitability += expl
    report = p.op(convert.check_payoff_equivalence, g, folded_ir,
                  samples=spec["pe_samples"], seed=p.seed)
    p.check(f"position {pos} payoff equivalence",
            report["max_abs_diff"] == expect["max_abs_diff"],
            f"got {report}")


# ---------------------------------------------------------------------------
# kuhn4-cli: gen -> convert -> solve -> verify as subprocesses
# ---------------------------------------------------------------------------


def kuhn4_cli(p: Pass, spec: dict, pos: int) -> None:
    expect = spec["expect"]
    w = p.workdir
    game, conv = w / "game.json", w / "converted.json"
    ok = expect["exit_code"]
    with p.stage("setup"):
        p.cli("gen", ["gen", "kuhn", "--ranks", spec["ranks"],
                      "--adv-pos", pos, "--out", game], ok)
        summary = p.cli("convert", ["convert", game, "--mode", "folded",
                                    "--safe-ir", "--out", conv], ok)
    with p.stage("solve"):
        solved = p.cli("solve", [
            "solve", conv, "--iterations", spec["iterations"],
            "--log-every", spec["log_every"], "--csv", w / "log.csv",
            "--strategy", w / "strategy.json"], ok)
    verified = p.cli("verify", ["verify", game, conv, "--samples",
                                spec["pe_samples"], "--seed", p.seed], ok)
    p.stages["cli_pipeline"] = sum(
        p.stages[f"cli.{c}"] for c in ("gen", "convert", "solve",
                                       "verify"))
    p.counts["solvers.coord_infosets"] += summary["coordinator_infosets"]
    p.counts["solvers.opp_infosets"] += summary["adversary_infosets"]
    p.counts["io_json.bytes"] += (game.stat().st_size
                                  + conv.stat().st_size)
    p.final_exploitability = float(solved["exploitability"])
    p.check("verify max_abs_diff",
            verified["max_abs_diff"] == expect["max_abs_diff"],
            f"got {verified}")
    p.check("verify sample count",
            verified["samples"] == spec["pe_samples"], f"got {verified}")
    rows = (w / "log.csv").read_text().strip().splitlines()[1:]
    p.check("solve logs every --log-every iterations",
            len(rows) == spec["iterations"] // spec["log_every"],
            f"got {len(rows)} rows")
    if p.tracer:
        # traced-only work, left out when tracing overhead is computed
        with p.stage("traced_only"):
            with p.stage("cli.import"), p.span("cli.import"), \
                    p.probe.paused():
                proc = subprocess.run(
                    [sys.executable, "-c", "import pubcoord.cli"],
                    capture_output=True, timeout=CLI_TIMEOUT_S)
            p.check("import pubcoord.cli", proc.returncode == 0,
                    proc.stderr.decode())
            _replay_cli(p, spec, pos)


def _replay_cli(p: Pass, spec: dict, pos: int) -> None:
    """Make in-process the library calls each CLI command makes, so the
    traced run splits each command into import, IO and compute."""
    w = p.workdir
    game, conv = w / "replay-game.json", w / "replay-converted.json"
    with p.span("replay.gen"):
        g = p.op(games.gen_kuhn3, games.PokerSpec(
            "kuhn", spec["ranks"], adversary_position=pos))
        p.op(io_json.save_game, g, str(game))
    p.counts["games.source_nodes"] += len(g.nodes)
    with p.span("replay.convert"):
        p.op(io_json.is_converted_file, str(game))
        g = p.op(io_json.load_game, str(game))
        p.op(model.validate_game, g)
        p.op(model.is_public_turn_taking, g)
        cg = p.op(convert.convert_folded, g)
        cg = p.op(convert.apply_safe_imperfect_recall, cg)
        p.op(io_json.save_converted, cg, str(conv))
        p.op(census.census, cg)
    _record_conversion(p, "folded", g, cg)
    p.counts["io_json.bytes_loaded"] += game.stat().st_size
    with p.span("replay.solve"):
        p.op(io_json.is_converted_file, str(conv))
        cg = p.op(io_json.load_converted, str(conv))
        profile, _ = p.op(solvers.solve_cfr, cg, "lcfr+",
                          iterations=spec["iterations"],
                          log_every=spec["log_every"])
        p.op(solvers.expected_value, cg, profile)
        expl = p.op(solvers.exploitability, cg, profile)
    _record_cfr(p, cg, spec["iterations"])
    p.counts["io_json.bytes_loaded"] += conv.stat().st_size
    p.check("in-process exploitability equals the CLI's",
            f"{expl:.12g}" == f"{p.final_exploitability:.12g}",
            f"got {expl} vs {p.final_exploitability}")
    with p.span("replay.verify"):
        p.op(io_json.is_converted_file, str(game))
        g = p.op(io_json.load_game, str(game))
        p.op(io_json.is_converted_file, str(conv))
        cg = p.op(io_json.load_converted, str(conv))
        p.op(convert.check_payoff_equivalence, g, cg,
             samples=spec["pe_samples"], seed=p.seed)
    p.counts["io_json.bytes_loaded"] += (game.stat().st_size
                                         + conv.stat().st_size)


# ---------------------------------------------------------------------------
# kuhn4-oracle: the double-oracle TMECor path
# ---------------------------------------------------------------------------


def kuhn4_oracle(p: Pass, spec: dict, pos: int) -> None:
    expect = spec["expect"]
    # generation is only milliseconds, so set-up is the median of a few
    gen_s = []
    for _ in range(spec["gen_repeats"]):
        with p.stage("gen"):
            g = p.op(games.gen_kuhn3, games.PokerSpec(
                "kuhn", spec["ranks"], adversary_position=pos))
        gen_s.append(p.stages.pop("gen"))
    p.stages["setup"] += statistics.median(gen_s)
    p.counts["games.source_nodes"] += len(g.nodes)
    plans = [p.op(solvers.count_reduced_plans, g, pl) for pl in g.players]
    p.counts["solvers.reduced_plans"] += sum(plans)
    p.check("reduced plans per player", plans == expect["plans"],
            f"got {plans}")
    with p.stage("solve"):
        result = p.op(solvers.tmecor_bruteforce, g)
    p.stages["oracle"] = p.stages["solve"]
    p.check("TMECor value", _close(result.value, expect["value"], 1e-9),
            f"got {result.value}")


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

WORKLOADS = {
    "kuhn3-solve": (kuhn3_solve, {
        "ranks": 3, "positions": (0, 1, 2), "iterations": 250,
        "log_every": 25, "target": 1e-4, "value_tol": 1e-3,
        "pe_samples": 10,
        "reports": ("time_to_target_s", "oracle_s", "final_exploitability"),
        "expect": {"census_total": {0: 2890, 1: 3772, 2: 5776},
                   "coord_infosets": {0: 86, 1: 113, 2: 155},
                   "max_abs_diff": 0.0}}),
    "leduc-convert": (leduc_convert, {
        "ranks": 2, "raises": 1, "positions": (0, 1, 2), "iterations": 5,
        "pe_samples": 3, "reports": ("final_exploitability",),
        # node counts of the seed commit
        "expect": {"nodes": {
            0: {"basic": 67959, "pruned": 31963, "folded": 21537},
            1: {"basic": 94863, "pruned": 36871, "folded": 25507},
            2: {"basic": 168031, "pruned": 45045, "folded": 32575}},
            "max_abs_diff": 0.0}}),
    "kuhn4-cli": (kuhn4_cli, {
        "ranks": 4, "positions": (0,), "iterations": 20, "log_every": 10,
        "pe_samples": 20, "subprocesses": True,
        "reports": ("cli_pipeline_s", "final_exploitability"),
        "expect": {"exit_code": 0, "max_abs_diff": 0.0}}),
    "kuhn4-oracle": (kuhn4_oracle, {
        "ranks": 4, "positions": (0,), "gen_repeats": 5,
        "reports": ("oracle_s",),
        "expect": {"plans": [10000, 65536, 6561], "value": 5 / 132}}),
}

# The same workloads at toy size, for the self-test.
TOY = {
    "kuhn3-solve": {**WORKLOADS["kuhn3-solve"][1], "positions": (0,),
                    "iterations": 60, "log_every": 20, "target": 2e-3,
                    "pe_samples": 2},
    "leduc-convert": {**WORKLOADS["leduc-convert"][1], "positions": (0,),
                      "iterations": 1, "pe_samples": 1},
    "kuhn4-cli": {**WORKLOADS["kuhn4-cli"][1], "ranks": 3, "iterations": 2,
                  "log_every": 1, "pe_samples": 2},
    "kuhn4-oracle": {**WORKLOADS["kuhn4-oracle"][1], "ranks": 3,
                     "gen_repeats": 1,
                     "expect": {"plans": [1000, 4096, 729], "value": 0.0}},
}
