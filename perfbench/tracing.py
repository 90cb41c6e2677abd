"""Spans around pubcoord's public calls, and the per-layer metrics derived
from them.

While a traced pass runs, every function listed in ``TRACED`` is replaced,
in its home module and in every pubcoord module that imported it by name,
by a wrapper that records one span per call.  Calls between modules (for
example ``compile_converted`` calling ``model.seen_sequences``) therefore
nest, and a layer's self time is its spans' duration minus the time their
child spans cover.  Nothing under ``src/`` is modified; the originals are
restored when the pass ends.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (home module, function) pairs that get a span per call.  The span is named
# "<module>.<function>"; best_response spans carry the responder as a suffix.
TRACED = {
    "games": ("gen_kuhn3", "gen_leduc3"),
    "model": ("team_perfect_recall_refinement", "validate_perfect_recall",
              "is_public_turn_taking", "seen_sequences"),
    "convert": ("convert_basic", "convert_pruned", "convert_folded",
                "apply_safe_imperfect_recall", "check_payoff_equivalence"),
    "census": ("census",),
    "solvers": ("compile_converted", "solve_cfr", "expected_value",
                "best_response", "exploitability", "tmecor_bruteforce",
                "count_reduced_plans", "_tmecor_double_oracle"),
    "io_json": ("save_game", "load_game", "save_converted", "load_converted",
                "is_converted_file"),
}

# per-layer metric -> span names whose self time it sums over one pass
SELF_TIME_S = {
    "games.gen_s": ("games.gen_kuhn3", "games.gen_leduc3"),
    "model.prepare_s": ("model.team_perfect_recall_refinement",
                        "model.validate_perfect_recall",
                        "model.is_public_turn_taking"),
    "model.seen_sequences_s": ("model.seen_sequences",),
    "convert.basic_s": ("convert.convert_basic",),
    "convert.pruned_s": ("convert.convert_pruned",),
    "convert.folded_s": ("convert.convert_folded",),
    "convert.safe_ir_s": ("convert.apply_safe_imperfect_recall",),
    "convert.payoff_equiv_s": ("convert.check_payoff_equivalence",),
    "census.s": ("census.census",),
    "solvers.compile_s": ("solvers.compile_converted",),
    "solvers.oracle_double_s": ("solvers._tmecor_double_oracle",),
    "io_json.save_s": ("io_json.save_game", "io_json.save_converted"),
    "io_json.load_s": ("io_json.load_game", "io_json.load_converted"),
    "io_json.probe_s": ("io_json.is_converted_file",),
}

# per-layer metric -> span name whose median inclusive duration per call it
# reports, in milliseconds
PER_CALL_MS = {
    "solvers.ev_ms": "solvers.expected_value",
    "solvers.br_coord_ms": "solvers.best_response.coord",
    "solvers.br_opp_ms": "solvers.best_response.o",
    "solvers.exploitability_ms": "solvers.exploitability",
}


class Tracer:
    """Collects one pass's spans in memory as
    [name, start, end, parent index or None, run id]."""

    def __init__(self, run_id: str) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.run_id = run_id

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.run_id])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, fn, name: str):
        if name == "solvers.best_response":
            def span_name(args, kwargs):
                responder = args[2] if len(args) > 2 else kwargs["responder"]
                return f"{name}.{responder}"
        else:
            def span_name(args, kwargs):
                return name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(span_name(args, kwargs)):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def patched(self):
        """Route every call of a ``TRACED`` function through a span."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pubcoord"
                                         or n.startswith("pubcoord."))]
        undo = []
        for short, names in TRACED.items():
            home = sys.modules[f"pubcoord.{short}"]
            for attr in names:
                original = getattr(home, attr)
                wrapper = self.wrap(original, f"{short}.{attr}")
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
        try:
            yield
        finally:
            for mod, key, original in undo:
                setattr(mod, key, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    """Span-derived per-layer metrics of one traced pass."""
    selfs = self_times(spans)
    self_by_name: dict[str, float] = defaultdict(float)
    durs: dict[str, list[float]] = defaultdict(list)
    for s, own in zip(spans, selfs):
        self_by_name[s[0]] += own
        durs[s[0]].append(s[2] - s[1])
    out = {metric: sum(self_by_name[n] for n in names)
           for metric, names in SELF_TIME_S.items()}
    for metric, name in PER_CALL_MS.items():
        out[metric] = (statistics.median(durs[name]) * 1e3
                       if durs[name] else 0.0)
    cfr_s = self_by_name["solvers.solve_cfr"]
    iters = counts.get("cfr_iterations", 0)
    node_iters = counts.get("cfr_node_iterations", 0)
    out["solvers.cfr_iter_ms"] = cfr_s / iters * 1e3 if iters else 0.0
    out["solvers.cfr_ns_per_node_iter"] = (cfr_s / node_iters * 1e9
                                           if node_iters else 0.0)
    convert_s = sum(out[f"convert.{m}_s"] for m in ("basic", "pruned",
                                                    "folded"))
    built = sum(counts.get(f"convert.{m}_nodes", 0)
                for m in ("basic", "pruned", "folded"))
    out["convert.ns_per_node"] = convert_s / built * 1e9 if built else 0.0
    loaded = counts.get("io_json.bytes_loaded", 0)
    out["io_json.load_mb_per_s"] = (loaded / out["io_json.load_s"] / 1e6
                                    if loaded and out["io_json.load_s"] > 0
                                    else 0.0)
    return out
