"""Solvers: plan enumeration, matrix games, TMECor oracle, CFR family,
best response and exploitability."""
from __future__ import annotations

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pubcoord import PokerSpec, ToySpec, apply_safe_imperfect_recall, \
    convert_basic, convert_folded, convert_pruned, gen_kuhn3, gen_leduc3, \
    gen_toy
from pubcoord.convert import ConvertedTree
from pubcoord.errors import (
    ActionMismatchWithinInfoset,
    EmptyMatrix,
    GameTooLarge,
    IllegalActionInPlan,
    IllegalPrescription,
    ImperfectRecallInput,
    IncompleteProfile,
    InvalidIterationCount,
    InvalidParameter,
    NotPublicTurnTaking,
    SolverFailure,
    UnknownPlayer,
)
from pubcoord.model import (
    CHANCE,
    OPPONENT,
    Edge,
    Node,
    VEFG,
    infosets,
    parse_role,
    validate_game,
)
from pubcoord import solvers
from pubcoord.solvers import (
    ConvergenceLog,
    best_response,
    compile_converted,
    count_reduced_plans,
    expected_value,
    exploitability,
    matrix_game_solve,
    reduced_normal_form_plans,
    solve_cfr,
    tmecor_bruteforce,
)

from conftest import ALL, O, T0, T1, mini_team_game, own_sequence_collision_game

T2 = parse_role("t2")


# ---------------------------------------------------------------------------
# reduced plans
# ---------------------------------------------------------------------------


def test_single_infoset_has_a_plans(mini):
    plans = reduced_normal_form_plans(mini, O)
    # o has 2 infosets (a in {L, R}), 2 actions each, both always reachable
    assert len(plans) == 4
    assert len(plans) == count_reduced_plans(mini, O)


@pytest.mark.parametrize("name", ["t0", "t1", "o"])
def test_reduced_plans_match_exhaustive_enumeration(kuhn0, name):
    player = parse_role(name)
    plans = reduced_normal_form_plans(kuhn0, player)
    assert len(plans) == count_reduced_plans(kuhn0, player)
    got = {tuple(sorted(p.items())) for p in plans}
    assert len(plans) == len(got)
    # independent oracle: exhaustive assignment enumeration filtered down to
    # reachable infosets
    isets = infosets(kuhn0, player)
    keys = sorted(isets)
    assert len(keys) == 12
    axes = [[e.label for e in kuhn0.nodes[isets[k][0]].edges] for k in keys]
    seen = set()
    for combo in itertools.product(*axes):
        full = dict(zip(keys, combo))
        reach = _reachable(kuhn0, player, full)
        seen.add(tuple(sorted((k, full[k]) for k in reach)))
    assert got == seen


def _reachable(g, player, full_plan):
    from pubcoord.model import seen_sequences
    seqs = seen_sequences(g, player)
    out = set()
    stack = [g.root]
    while stack:
        nid = stack.pop()
        node = g.nodes[nid]
        if node.player == player:
            key = seqs[nid]
            out.add(key)
            a = full_plan[key]
            stack.extend(e.child for e in node.edges if e.label == a)
        else:
            stack.extend(e.child for e in node.edges)
    return out


def test_toy_reduced_at_most_normal():
    g = gen_toy(ToySpec(3, 2, 2))
    assert count_reduced_plans(g, g.players[0]) <= 64


def test_imperfect_recall_player_rejected():
    term0, term1 = Node(utility=0), Node(utility=0)
    mid = Node(player=T0, edges=(
        Edge("x", 0, seen_by=frozenset({T1, O})),
        Edge("y", 1, seen_by=frozenset({T1, O}))))
    # the same action labels make the merged infoset well-formed even
    # though the child is reached through t0's own unobserved action
    term2 = Node(utility=0)
    root = Node(player=T0, edges=(
        Edge("x", 2, seen_by=frozenset({T1, O})),
        Edge("y", 4, seen_by=frozenset({T1, O}))))
    g = VEFG("forgetful", ALL, (term0, term1, mid, root, term2), 3)
    validate_game(g)
    with pytest.raises(ImperfectRecallInput):
        reduced_normal_form_plans(g, T0)


def test_own_sequence_collision_is_rejected_by_the_oracle():
    # the converters' perfect-recall rule, with the same error type
    g = own_sequence_collision_game()
    with pytest.raises(ImperfectRecallInput):
        tmecor_bruteforce(g)
    with pytest.raises(ImperfectRecallInput):
        count_reduced_plans(g, T0)
    assert count_reduced_plans(g, O) == 2


def test_oracle_rejects_a_player_blind_to_its_own_move():
    # t0's one infoset is reached once, so only the blind-move clause of
    # the perfect-recall rule rejects the game
    root = Node(player=T0, edges=(
        Edge("a", 0, seen_by=frozenset({T1, O})),
        Edge("b", 1, seen_by=frozenset({T1, O}))))
    g = VEFG("blind", ALL, (Node(utility=1), Node(utility=0), root), 2)
    validate_game(g)
    with pytest.raises(ImperfectRecallInput):
        tmecor_bruteforce(g)
    with pytest.raises(ImperfectRecallInput):
        count_reduced_plans(g, T0)


# ---------------------------------------------------------------------------
# matrix games
# ---------------------------------------------------------------------------


def test_matrix_matching_pennies():
    x, y, v = matrix_game_solve([[1, -1], [-1, 1]])
    assert abs(v) <= 1e-9
    assert np.allclose(x, [0.5, 0.5], atol=1e-7)


def test_matrix_singleton():
    x, y, v = matrix_game_solve([[2.0]])
    assert v == pytest.approx(2.0)
    assert x[0] == pytest.approx(1.0) and y[0] == pytest.approx(1.0)


def test_matrix_2x2_mixed():
    # closed form: (3*2 - 0*1) / (3 + 2 - 0 - 1) = 1.5
    _, _, v = matrix_game_solve([[3, 0], [1, 2]])
    assert v == pytest.approx(1.5, abs=1e-9)


def test_matrix_empty_rejected():
    with pytest.raises(EmptyMatrix):
        matrix_game_solve(np.zeros((0, 3)))


def test_matrix_value_between_maximin_bounds():
    rng = random.Random(5)
    for _ in range(20):
        m = [[rng.uniform(-2, 2) for _ in range(3)] for _ in range(4)]
        _, _, v = matrix_game_solve(m)
        maximin = max(min(row) for row in m)
        minimax = min(max(col) for col in zip(*m))
        assert maximin - 1e-9 <= v <= minimax + 1e-9


def test_matrix_game_solves_one_lp(monkeypatch):
    # the column strategy comes from the duals of the row player's LP
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    real = solvers.linprog
    monkeypatch.setattr(solvers, "linprog", counting)
    for m in ([[1, -1], [-1, 1]], [[3, 0], [1, 2]], [[2.0]]):
        before = len(calls)
        matrix_game_solve(m)
        assert len(calls) - before == 1


def _column_lp_value(u: np.ndarray) -> float:
    """The column player's minimax value of ``u`` by its own LP: min w
    s.t. U y <= w, sum y = 1, y >= 0."""
    from scipy.optimize import linprog
    n, m = u.shape
    res = linprog(np.append(np.zeros(m), 1.0),
                  A_ub=np.hstack([u, -np.ones((n, 1))]), b_ub=np.zeros(n),
                  A_eq=np.append(np.ones(m), 0.0)[None], b_eq=[1.0],
                  bounds=[(0, None)] * m + [(None, None)], method="highs")
    assert res.success
    return float(res.fun)


def _random_matrices():
    rng = np.random.default_rng(2025)
    for _ in range(40):
        n, m = rng.integers(1, 31), rng.integers(1, 41)
        u = rng.uniform(-5, 5, (n, m))
        if rng.random() < 0.5:  # integer payoffs: many ties
            u = np.round(u)
        # duplicate rows and columns
        u = u[rng.integers(0, n, n + rng.integers(0, 4))]
        yield u[:, rng.integers(0, m, m + rng.integers(0, 4))][:30, :40]
    yield np.full((7, 9), 3.25)
    yield np.full((30, 40), -1.0)


@pytest.mark.parametrize("u", list(_random_matrices()),
                         ids=lambda u: "x".join(map(str, u.shape)))
def test_matrix_value_equals_the_column_lp(u):
    x, y, v = matrix_game_solve(u)
    assert v == pytest.approx(_column_lp_value(u), abs=1e-9)
    assert x.sum() == pytest.approx(1.0) and y.sum() == pytest.approx(1.0)
    assert (x >= 0).all() and (y >= 0).all()


@pytest.mark.parametrize("kwargs", [
    {"matrix": [[float("nan"), 1], [0, 1]]},
    {"matrix": [[float("inf"), 1], [0, 1]]},
    {"matrix": [[1, 2], [3]]}, {"matrix": [["a"]]}, {"matrix": [["1"]]},
    {"matrix": [[1j]]}, {"tol": float("nan")}, {"tol": -1}, {"tol": 0},
    {"tol": float("inf")}, {"tol": "x"}, {"tol": True}], ids=repr)
def test_matrix_game_rejects_entries_and_tol_that_are_not_finite_reals(
        monkeypatch, kwargs):
    def no_lp(*args, **kw):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(solvers, "linprog", no_lp)
    with pytest.raises(InvalidParameter):
        matrix_game_solve(**{"matrix": [[1, -1], [-1, 1]], **kwargs})


# ---------------------------------------------------------------------------
# TMECor oracle
# ---------------------------------------------------------------------------


def _pure_value(game: VEFG):
    """A function giving the exact expected utility of a pure profile (a map
    player -> plan dict) by a tree walk."""
    key_of = {p: {nid: key for key, members in infosets(game, p).items()
                  for nid in members} for p in game.players}

    def value(plans: dict) -> Fraction:
        def walk(nid: int) -> Fraction:
            node = game.nodes[nid]
            if node.is_terminal:
                return Fraction(node.utility)
            if node.is_chance:
                return sum(Fraction(e.prob) * walk(e.child)
                           for e in node.edges)
            a = plans[node.player][key_of[node.player][nid]]
            return walk(next(e.child for e in node.edges if e.label == a))
        return walk(game.root)
    return value


def _reference_tmecor(game: VEFG) -> float:
    """TMECor value from the full payoff matrix: every joint team plan (one
    reduced plan per member) against every opponent plan, each cell the
    exact expected utility of a tree walk, solved as one matrix game."""
    team = sorted(game.team_players(), key=lambda r: r.sort_key())
    opp = game.opponent()
    value = _pure_value(game)
    rows = list(itertools.product(
        *(reduced_normal_form_plans(game, p) for p in team)))
    cols = (reduced_normal_form_plans(game, opp) if opp is not None
            else [{}])
    u = [[float(value({**dict(zip(team, row)), opp: col})) for col in cols]
         for row in rows]
    return matrix_game_solve(u)[2]


def _opponent_only_game() -> VEFG:
    """Chance deals o one of two signals; o then picks l or r."""
    nodes: list[Node] = []

    def add(n: Node) -> int:
        nodes.append(n)
        return len(nodes) - 1

    pays = {("c0", "l"): 2, ("c0", "r"): -1, ("c1", "l"): 0, ("c1", "r"): 3}
    deals = [Edge(c, add(Node(player=O, edges=tuple(
        Edge(a, add(Node(utility=Fraction(pays[c, a]))),
             seen_by=frozenset((O,))) for a in "lr"))),
        Fraction(1, 2), frozenset((O,))) for c in ("c0", "c1")]
    root = add(Node(player=CHANCE, edges=tuple(deals)))
    g = VEFG("opponent-only", (O,), tuple(nodes), root)
    validate_game(g)
    return g


def team3_game(seed: int, t2_sees_team: bool = True) -> VEFG:
    """Chance deals a signal seen by t0 and t2; then t0, t1, o and t2 pick
    one of two actions in turn.  t1 and o see every earlier action but not
    the signal; t2 sees the signal, o's action and, if ``t2_sees_team``,
    t0's and t1's.
    Seeded integer payoffs.  With ``t2_sees_team`` t2 has 2**16 reduced
    plans and the full plan matrix 16.7M entries."""
    rng = random.Random(seed)
    nodes: list[Node] = []

    def add(n: Node) -> int:
        nodes.append(n)
        return len(nodes) - 1

    team_seen = frozenset(ALL + (T2,) if t2_sees_team else ALL)

    def turn(hist: tuple) -> int:
        if len(hist) == 5:
            return add(Node(utility=Fraction(rng.randint(-3, 3))))
        player, seen = [(T0, team_seen), (T1, team_seen),
                        (O, frozenset(ALL + (T2,))),
                        (T2, frozenset(ALL + (T2,)))][len(hist) - 1]
        return add(Node(player=player, edges=tuple(
            Edge(a, turn(hist + (a,)), seen_by=seen) for a in "ab")))

    root = add(Node(player=CHANCE, edges=tuple(
        Edge(c, turn((c,)), Fraction(1, 2), frozenset((T0, T2)))
        for c in ("c0", "c1"))))
    g = VEFG(f"team3-s{seed}", ALL + (T2,), tuple(nodes), root)
    validate_game(g)
    return g


@pytest.mark.parametrize("game", [
    *(pytest.param(lambda s=s: mini_team_game(s), id=f"mini-{s}")
      for s in range(6)),
    pytest.param(_opponent_only_game, id="opponent-only"),
    pytest.param(lambda: team3_game(7, t2_sees_team=False), id="team3-7"),
])
def test_tmecor_matches_full_matrix_reference(game):
    g = game()
    assert tmecor_bruteforce(g).value == pytest.approx(
        _reference_tmecor(g), abs=1e-9)


# seed 7 mixes on both sides (3 team and 3 opponent plans); LCFR+ needs
# 5,000 iterations there to be 1e-4 exploitable
@pytest.mark.parametrize("seed,iterations", [
    (0, 1000), (1, 1000), (2, 1000), (3, 1000), (7, 5000)])
def test_tmecor_three_member_team_matches_lcfr_plus(seed, iterations):
    g = team3_game(seed)
    assert [count_reduced_plans(g, p) for p in (T0, T1, T2, O)] == [
        4, 4, 2 ** 16, 16]
    oracle = tmecor_bruteforce(g).value
    cg = apply_safe_imperfect_recall(convert_folded(g))
    profile, _ = solve_cfr(cg, "lcfr+", iterations=iterations)
    assert expected_value(cg, profile) == pytest.approx(oracle, abs=1e-3)
    assert exploitability(cg, profile) <= 1e-4


def test_uncertified_lp_solution_raises(monkeypatch):
    from types import SimpleNamespace
    # a pure "solution" to matching pennies, rows and (by the duals of the
    # column constraints) columns, leaves a best-response gap of 2
    monkeypatch.setattr(solvers, "linprog", lambda c, **kw: SimpleNamespace(
        success=True, x=np.eye(len(c))[0], message="",
        ineqlin=SimpleNamespace(marginals=-np.eye(len(kw["b_ub"]))[0])))
    with pytest.raises(SolverFailure, match="uncertified"):
        matrix_game_solve([[1, -1], [-1, 1]])


def test_failed_lp_raises_solver_failure(monkeypatch):
    from types import SimpleNamespace
    monkeypatch.setattr(solvers, "linprog", lambda c, **kw: SimpleNamespace(
        success=False, x=None, message="infeasible"))
    with pytest.raises(SolverFailure, match="LP failed: infeasible"):
        matrix_game_solve([[1, -1], [-1, 1]])


def test_double_oracle_stall_raises(monkeypatch):
    # a restricted value no best response can reach: neither side adds a
    # new plan, so the oracle stalls on its first round
    monkeypatch.setattr(solvers, "matrix_game_solve", lambda u, tol: (
        np.full(u.shape[0], 1.0 / u.shape[0]),
        np.full(u.shape[1], 1.0 / u.shape[1]), -1e9))
    with pytest.raises(SolverFailure, match="stalled"):
        tmecor_bruteforce(mini_team_game(0), max_entries=100)


def test_tmecor_single_plan_team_is_min_over_opponent():
    # degenerate team: both members have one action everywhere
    nodes = []

    def add(n):
        nodes.append(n)
        return len(nodes) - 1

    t_lo = add(Node(utility=Fraction(-1)))
    t_hi = add(Node(utility=Fraction(3)))
    o_node = add(Node(player=O, edges=(
        Edge("lo", t_lo, seen_by=frozenset(ALL)),
        Edge("hi", t_hi, seen_by=frozenset(ALL)))))
    t0_node = add(Node(player=T0, edges=(
        Edge("only", o_node, seen_by=frozenset(ALL)),)))
    g = VEFG("degenerate", ALL, tuple(nodes), t0_node)
    validate_game(g)
    res = tmecor_bruteforce(g)
    assert res.value == pytest.approx(-1.0)


def test_tmecor_team_only_game_maximizes():
    g = gen_toy(ToySpec(2, 2, 1, payoff_seed=11))
    res = tmecor_bruteforce(g)
    # no opponent: value is the best joint plan's expected utility
    assert res.value == pytest.approx(_reference_tmecor(g), abs=1e-9)
    assert res.opponent_support == [(1.0, dict())]


@pytest.mark.parametrize("kwargs", [
    {"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")}, {"tol": float("inf")},
    {"tol": "x"}, {"max_entries": 0}, {"max_entries": float("nan")},
    {"max_entries": 1.5}, {"max_entries": "5"}, {"max_entries": True}])
def test_tmecor_rejects_bad_arguments_before_any_lp(monkeypatch, kwargs):
    def no_lp(*args, **kw):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(solvers, "linprog", no_lp)
    with pytest.raises(InvalidParameter):
        tmecor_bruteforce(mini_team_game(1), **kwargs)


def test_tmecor_tolerance_floor():
    # the oracle certifies to max(tol, 1e-7), so the default tol=1e-9 is
    # the same computation as tol=1e-7
    g = gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=0))
    fine, floor = (tmecor_bruteforce(g, tol=t) for t in (1e-9, 1e-7))
    assert fine.value == floor.value
    assert fine.team_support == floor.team_support
    assert fine.opponent_support == floor.opponent_support


def test_tmecor_guard_rejects_leduc():
    g = gen_leduc3(PokerSpec("leduc", 3, raises=1))
    with pytest.raises(GameTooLarge):
        tmecor_bruteforce(g)


def test_tmecor_deep_team_only_toy_matches_tree_max():
    # t0 sees the deal and its own moves, so each of its infosets is one node
    # and its best plan maxes node by node; t1 acts once, blind, so the value
    # is a max over t1's plans of that walk.  t0 has 16,381 sequences against
    # 16,384 terminals: a dense (terminals x sequences) float array would
    # take 2 GB
    g = gen_toy(ToySpec(2, 2, 12, payoff_seed=1))
    t0, t1 = sorted(g.team_players(), key=lambda r: r.sort_key())
    assert all(len(m) == 1 for m in infosets(g, t0).values())
    [t1_key] = infosets(g, t1)

    def walk(nid: int, b: str) -> Fraction:
        node = g.nodes[nid]
        if node.is_terminal:
            return Fraction(node.utility)
        if node.is_chance:
            return sum(Fraction(e.prob) * walk(e.child, b)
                       for e in node.edges)
        if node.player == t1:
            return walk(next(e.child for e in node.edges if e.label == b), b)
        return max(walk(e.child, b) for e in node.edges)

    expected = max(walk(g.root, plan[t1_key])
                   for plan in reduced_normal_form_plans(g, t1))
    tracemalloc.start()
    try:
        value = tmecor_bruteforce(g).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(float(expected), abs=1e-12)
    assert peak < 64 << 20


def test_tmecor_row_chunks_do_not_change_the_answer(kuhn0, monkeypatch):
    # one enumerated joint plan per chunk of the team's best response
    whole = tmecor_bruteforce(kuhn0)
    monkeypatch.setattr(solvers, "_CHUNK_ENTRIES", 1)
    assert tmecor_bruteforce(kuhn0) == whole


@pytest.mark.parametrize("game", [
    *(pytest.param(lambda pos=pos: gen_kuhn3(PokerSpec(
        "kuhn", 3, adversary_position=pos)), id=f"kuhn3-{pos}")
      for pos in range(3)),
    *(pytest.param(lambda s=s: mini_team_game(s), id=f"mini-{s}")
      for s in range(6)),
    pytest.param(lambda: team3_game(7, t2_sees_team=False), id="team3-7"),
    pytest.param(_opponent_only_game, id="opponent-only"),
    pytest.param(lambda: gen_toy(ToySpec(2, 2, 1, payoff_seed=11)),
                 id="team-only"),
])
def test_tmecor_supports_realise_the_value(game):
    g = game()
    res = tmecor_bruteforce(g)
    team = sorted(g.team_players(), key=lambda r: r.sort_key())
    opp = g.opponent()
    valid = {p: {tuple(sorted(plan.items()))
                 for plan in reduced_normal_form_plans(g, p)}
             for p in team + ([opp] if opp is not None else [])}
    for _, plans in res.team_support:
        assert len(plans) == len(team)
        for p, plan in zip(team, plans):
            assert tuple(sorted(plan.items())) in valid[p]
    if opp is not None:
        for _, plan in res.opponent_support:
            assert tuple(sorted(plan.items())) in valid[opp]
    value = _pure_value(g)
    mixed = sum(Fraction(px) * Fraction(py)
                * value({**dict(zip(team, tplans)), opp: oplan})
                for px, tplans in res.team_support
                for py, oplan in res.opponent_support)
    assert abs(float(mixed) - res.value) <= 1e-9


def test_tmecor_kuhn4_value():
    g = gen_kuhn3(PokerSpec("kuhn", 4, adversary_position=0))
    assert [count_reduced_plans(g, p) for p in g.players] == [
        10000, 65536, 6561]
    assert tmecor_bruteforce(g).value == pytest.approx(5 / 132, abs=1e-9)


def test_tmecor_supports_are_distributions(kuhn0):
    res = tmecor_bruteforce(kuhn0)
    assert sum(p for p, _ in res.team_support) == pytest.approx(1.0)
    assert sum(p for p, _ in res.opponent_support) == pytest.approx(1.0)
    assert all(p > 0 for p, _ in res.team_support)


# ---------------------------------------------------------------------------
# CFR family
# ---------------------------------------------------------------------------


def _pennies_converted(matched=(1, 1)):
    """Matching pennies with the matcher as a one-member team, which wins
    ``matched[0]`` on heads, ``matched[1]`` on tails and loses 1 on a
    mismatch."""
    players = (T0, O)
    nodes = []

    def add(n):
        nodes.append(n)
        return len(nodes) - 1

    terms = {}
    for a, win in zip("HT", matched):
        for b in "ht":
            u = win if a.lower() == b else -1
            terms[(a, b)] = add(Node(utility=Fraction(u)))
    o_nodes = {a: add(Node(player=O, edges=tuple(
        Edge(b, terms[(a, b)], seen_by=frozenset({O}))
        for b in "ht"))) for a in "HT"}
    root = add(Node(player=T0, edges=tuple(
        Edge(a, o_nodes[a], seen_by=frozenset({T0})) for a in "HT")))
    g = VEFG("pennies", players, tuple(nodes), root)
    validate_game(g)
    return convert_basic(g)


# heads pays 2: both sides play heads with probability 2/5 and the value is
# 1/5, while the uniform start is 0.5 exploitable.  Iterations are 1.5-2.5x
# the first count measured to meet both bounds (40k, 250 and 60): plain
# CFR's average closes the gap at ~1/sqrt(T), the +-variants far faster
@pytest.mark.parametrize("algo,iters", [("cfr", 60_000), ("cfr+", 500),
                                        ("lcfr+", 150)])
def test_cfr_converges_on_matching_pennies(algo, iters):
    cg = _pennies_converted((2, 1))
    start, _ = solve_cfr(cg, algo, iterations=0)
    assert exploitability(cg, start) > 1e-2
    profile, _ = solve_cfr(cg, algo, iterations=iters)
    assert expected_value(cg, profile) == pytest.approx(0.2, abs=1e-2)
    assert exploitability(cg, profile) <= 1e-2


def test_cfr_zero_iterations_uniform():
    cg = _pennies_converted()
    profile, log = solve_cfr(cg, "lcfr+", iterations=0)
    assert log.rows == []
    for side in profile.values():
        for dist in side.values():
            vals = list(dist.values())
            assert vals == pytest.approx([1 / len(vals)] * len(vals))


def test_cfr_rejects_bad_arguments():
    cg = _pennies_converted()
    with pytest.raises(InvalidIterationCount):
        solve_cfr(cg, "mccfr", 10)
    with pytest.raises(InvalidIterationCount):
        solve_cfr(cg, "cfr", -1)


def test_regret_matching_is_distribution():
    def regret_match(r):
        return solvers._normalize_rows(np.maximum(r, 0.0)[None])[0]
    for regs in ([1.0, 2.0, 0.0], [-1.0, -5.0], [0.0, 0.0], [3.0, -2.0]):
        dist = regret_match(np.array(regs))
        assert dist.min() >= 0
        assert dist.sum() == pytest.approx(1.0)
    assert regret_match(np.array([-1.0, -2.0])) == pytest.approx([0.5, 0.5])


def test_cfr_value_matches_oracle_on_mini():
    g = mini_team_game(3)
    oracle = tmecor_bruteforce(g).value
    cg = convert_folded(g)
    profile, _ = solve_cfr(cg, "lcfr+", iterations=2000)
    assert expected_value(cg, profile) == pytest.approx(oracle, abs=1e-3)


def test_convergence_log_csv_format():
    log = ConvergenceLog(rows=[(1, 0.5, 0.25), (2, 0.25, 0.125)])
    lines = log.to_csv().splitlines()
    assert lines[0] == "iteration,team_value,exploitability"
    assert lines[1] == "1,0.5,0.25"


# ---------------------------------------------------------------------------
# best response / exploitability / expected value
# ---------------------------------------------------------------------------


def _uniform_profile(cg):
    from pubcoord.solvers import compile_converted
    c = compile_converted(cg)
    prof = {}
    for side in c.sides:
        prof[side] = {}
        for key, acts in c.iset_actions[side].items():
            prof[side][key] = {a: 1 / len(acts) for a in acts}
    return prof


def test_best_response_uniform_pennies():
    cg = _pennies_converted()
    prof = _uniform_profile(cg)
    v_coord, _ = best_response(cg, prof, "coord")
    v_opp, _ = best_response(cg, prof, "o")
    assert v_coord == pytest.approx(0.0, abs=1e-12)
    assert v_opp == pytest.approx(0.0, abs=1e-12)


def test_best_response_dominates_random_strategies(mini):
    cg = convert_folded(mini)
    prof = _uniform_profile(cg)
    br, _ = best_response(cg, prof, "coord")
    rng = random.Random(0)
    from pubcoord.solvers import compile_converted
    c = compile_converted(cg)
    for _ in range(100):
        alt = dict(prof)
        alt["coord"] = {}
        for key, acts in c.iset_actions["coord"].items():
            w = [rng.random() for _ in acts]
            s = sum(w)
            alt["coord"][key] = {a: x / s for a, x in zip(acts, w)}
        assert br >= expected_value(cg, alt) - 1e-9


def test_exploitability_nonnegative_and_zero_at_equilibrium(mini):
    cg = convert_folded(mini)
    prof = _uniform_profile(cg)
    assert exploitability(cg, prof) >= -1e-12
    profile, _ = solve_cfr(cg, "lcfr+", iterations=3000)
    assert exploitability(cg, profile) <= 1e-2


def _same(a, b) -> bool:
    """Equal field by field, arrays by dtype and content."""
    import dataclasses
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def test_converted_game_compiles_once(mini):
    from dataclasses import replace
    from pubcoord import io_json
    cg = apply_safe_imperfect_recall(convert_pruned(mini))
    saved = io_json.converted_to_dict(cg)
    c = compile_converted(cg)
    assert compile_converted(cg) is c
    # the kept form is not part of the game's value
    copy = replace(cg)
    assert copy == cg and hash(copy) == hash(cg) and repr(copy) == repr(cg)
    assert io_json.converted_to_dict(cg) == saved
    # new objects compile afresh
    assert compile_converted(copy) is not c
    assert compile_converted(apply_safe_imperfect_recall(cg)) is not c
    # solving and evaluating leave the kept arrays as compiled
    profile, _ = solve_cfr(cg, "lcfr+", iterations=20, log_every=10)
    exploitability(cg, profile)
    best_response(cg, profile, "o")
    assert compile_converted(cg) is c
    assert _same(c, compile_converted(replace(cg)))


def test_compile_rejects_action_mismatch_within_infoset():
    from dataclasses import replace
    cg = _pennies_converted()
    nodes = list(cg.game.nodes)
    # the opponent cannot tell its two nodes apart; relabel one of them
    nid = next(i for i, n in enumerate(nodes) if n.player == OPPONENT)
    nodes[nid] = replace(nodes[nid], edges=tuple(
        replace(e, label=e.label + "'") for e in nodes[nid].edges))
    bad = replace(cg, tree=ConvertedTree.from_game(
        replace(cg.game, nodes=tuple(nodes))))
    with pytest.raises(ActionMismatchWithinInfoset):
        compile_converted(bad)


def test_compile_rejects_an_infoset_whose_nodes_differ_in_action_count():
    # one of the opponent's two indistinguishable nodes gets a third action:
    # its slots would spill into the next infoset's, so the partition
    # rejects it as it is made
    from dataclasses import replace
    cg = _pennies_converted()
    nodes = list(cg.game.nodes)
    nid = next(i for i, n in enumerate(nodes) if n.player == OPPONENT)
    extra = replace(nodes[nid].edges[0], label="x", child=len(nodes))
    nodes[nid] = replace(nodes[nid], edges=nodes[nid].edges + (extra,))
    nodes.append(Node(utility=Fraction(0)))
    bad = replace(cg, tree=ConvertedTree.from_game(
        replace(cg.game, nodes=tuple(nodes))))
    with pytest.raises(ActionMismatchWithinInfoset):
        compile_converted(bad)


def test_compile_rejects_a_team_member_decision(mini):
    # a source game's tree given as a converted game: team members act
    from dataclasses import replace
    cg = replace(convert_folded(mini), tree=ConvertedTree.from_game(mini))
    with pytest.raises(UnknownPlayer, match="belongs to"):
        compile_converted(cg)


def test_compile_rejects_infoset_spanning_depths():
    from dataclasses import replace
    from pubcoord.census import census
    from pubcoord.model import COORDINATOR
    # the opponent, seeing nothing, acts at depth 1 after chance "a" and at
    # depth 2 after chance "b" and a coordinator move: one infoset, two depths
    seen_o, seen_c = frozenset({OPPONENT}), frozenset({COORDINATOR})
    terms = [Node(utility=Fraction(u)) for u in (1, -1, 2, -2)]
    o_at = [Node(player=OPPONENT, edges=(Edge("l", k, seen_by=seen_o),
                                         Edge("r", k + 1, seen_by=seen_o)))
            for k in (0, 2)]
    coord = Node(player=COORDINATOR, edges=(Edge("x", 5, seen_by=seen_c),))
    root = Node(player=CHANCE, edges=(
        Edge("a", 4, Fraction(1, 2), seen_c), Edge("b", 6, Fraction(1, 2),
                                                   seen_c)))
    g = VEFG("two-depths", (COORDINATOR, OPPONENT),
             (*terms, *o_at, coord, root), 7)
    validate_game(g)
    cg = replace(_pennies_converted(), tree=ConvertedTree.from_game(g))
    with pytest.raises(NotPublicTurnTaking):
        compile_converted(cg)
    # the census numbers infosets by the compile's rule
    with pytest.raises(NotPublicTurnTaking, match="several depths"):
        census(cg)


def test_census_rejects_action_mismatch_within_infoset():
    from dataclasses import replace
    from pubcoord.census import census
    cg = _pennies_converted()
    nodes = list(cg.game.nodes)
    nid = next(i for i, n in enumerate(nodes) if n.player == OPPONENT)
    nodes[nid] = replace(nodes[nid], edges=tuple(
        replace(e, label=e.label + "'") for e in nodes[nid].edges))
    with pytest.raises(ActionMismatchWithinInfoset):
        census(replace(cg, tree=ConvertedTree.from_game(
            replace(cg.game, nodes=tuple(nodes)))))


@pytest.mark.parametrize("mode,safe_ir", [("basic", False), ("pruned", True),
                                          ("folded", False),
                                          ("folded", True)])
def test_column_readers_agree_with_the_json_round_trip(mode, safe_ir):
    from pubcoord import io_json
    from pubcoord.census import census
    from pubcoord.convert import coordinator_node_keys
    g = gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=1))
    cg = {"basic": convert_basic, "pruned": convert_pruned,
          "folded": convert_folded}[mode](g)
    if safe_ir:
        cg = apply_safe_imperfect_recall(cg)
    back = io_json.converted_from_dict(io_json.converted_to_dict(cg))
    for compact in (False, True):
        assert census(back, compact) == census(cg, compact)
    assert coordinator_node_keys(back) == coordinator_node_keys(cg)
    assert _same(compile_converted(back), compile_converted(cg))
    assert back == cg


def test_cfr_rejects_negative_log_interval():
    with pytest.raises(InvalidIterationCount):
        solve_cfr(_pennies_converted(), "cfr", 10, log_every=-2)


@pytest.mark.parametrize("kwargs", [
    {"iterations": 2.5}, {"iterations": True}, {"iterations": False},
    {"iterations": np.float64(3)}, {"log_every": 1.5}, {"log_every": True},
    {"iterations": "3"}], ids=repr)
def test_cfr_rejects_counts_that_are_not_ints(kwargs):
    with pytest.raises(InvalidIterationCount):
        solve_cfr(_pennies_converted(), "cfr+", **{"iterations": 3, **kwargs})


def test_best_response_rejects_an_unknown_responder():
    cg = _pennies_converted()
    with pytest.raises(InvalidParameter, match="coordinator"):
        best_response(cg, _uniform_profile(cg), "coordinator")


def test_best_response_of_an_absent_opponent_raises():
    cg = convert_folded(gen_toy(ToySpec(2, 2, 1, payoff_seed=1)))
    with pytest.raises(IncompleteProfile, match="no opponent"):
        best_response(cg, _uniform_profile(cg), "o")


def test_a_tie_of_real_arithmetic_gives_zero_regrets():
    # action a is worth 0.1 + 0.2 through chance and b is worth 0.3: equal,
    # though 0.1 + 0.2 != 0.3 in floats.  Without the tie rule a regret is a
    # rounding error off 0, and a positive one makes CFR+ play it alone next
    from dataclasses import replace
    from pubcoord.model import COORDINATOR
    seen = frozenset({COORDINATOR})
    terms = [Node(utility=Fraction(u)) for u in ("0.2", "0.4", "0.3")]
    nodes = (*terms,
             Node(player=CHANCE, edges=(Edge("h", 0, Fraction(1, 2), seen),
                                        Edge("t", 1, Fraction(1, 2), seen))),
             Node(player=CHANCE, edges=(Edge("d", 2, Fraction(1), seen),)),
             Node(player=COORDINATOR, edges=(Edge("a", 3, seen_by=seen),
                                             Edge("b", 4, seen_by=seen))))
    g = VEFG("tie", (COORDINATOR,), nodes, 5)
    validate_game(g)
    cg = replace(_pennies_converted(), tree=ConvertedTree.from_game(g))
    c = compile_converted(cg)
    assert 0.5 * 0.2 + 0.5 * 0.4 != 0.3
    regrets, strat = np.zeros(2), np.zeros(2)
    solvers._traversal(c, "coord")(regrets, strat, None, np.full(2, 0.5))
    assert regrets.tolist() == [0.0, 0.0]
    assert strat.tolist() == [0.5, 0.5]


def test_an_opponent_that_never_acts_is_solved():
    # the opponent's side has no infoset, no sequence but the empty one,
    # and one level with none
    from dataclasses import replace
    from pubcoord.model import COORDINATOR
    seen = frozenset({COORDINATOR})
    g = VEFG("idle opponent", (COORDINATOR, OPPONENT), (
        Node(utility=Fraction(1)), Node(utility=Fraction(-1)),
        Node(player=COORDINATOR, edges=(Edge("a", 0, seen_by=seen),
                                        Edge("b", 1, seen_by=seen)))), 2)
    validate_game(g)
    cg = replace(_pennies_converted(), tree=ConvertedTree.from_game(g))
    assert compile_converted(cg).sides["o"].form.cut == [1, 1]
    profile, _ = solve_cfr(cg, "cfr+", 10)
    # uniform at iteration 1, then "a" alone
    assert profile == {"coord": {(): {"a": 0.95, "b": 0.05}}, "o": {}}
    assert exploitability(cg, profile) == pytest.approx(1 - 0.9)


def _coordinator_only(tree_nodes, root, supports):
    """A converted game of the coordinator alone, with one two-action team
    infoset prescribed at every coordinator node; ``supports`` per
    coordinator node in id order, safe IR applied when they differ."""
    from dataclasses import replace
    from pubcoord.model import COORDINATOR
    g = VEFG("recall", (COORDINATOR,), tuple(tree_nodes), root)
    validate_game(g)
    coord = [i for i, n in enumerate(tree_nodes) if n.player == COORDINATOR]
    per_node = dict(zip(coord, supports))
    return replace(
        _pennies_converted(), mode="folded",
        safe_ir_applied=len(set(supports)) > 1, iset_refs=((T0, ("k",)),),
        iset_actions=(("a", "b"),), tree=ConvertedTree.from_game(g),
        active=tuple((0,) if i in per_node else None
                     for i in range(len(tree_nodes))),
        supports=tuple(per_node.get(i) for i in range(len(tree_nodes))))


def _recall_breaking_games():
    """Two converted games whose perfect-recall partition breaks the
    sequence form: (1) the coordinator does not see its own move x / y, so
    its infoset ("c",) is reached after two own sequences; (2) under safe
    IR, the two nodes of its infoset () carry different supports."""
    from pubcoord.model import COORDINATOR
    seen, hidden = frozenset({COORDINATOR}), frozenset()
    leaves = [Node(utility=Fraction(u)) for u in (1, -1, 2, 0)]
    resolve = [Node(player=CHANCE, edges=(Edge("d", k, Fraction(1), seen),))
               for k in range(4)]                                     # 4-7

    def decide(k):
        return Node(player=COORDINATOR, edges=(
            Edge("l", k, seen_by=seen), Edge("r", k + 1, seen_by=seen)))

    own = [*leaves, *resolve, decide(4), decide(6),                   # 8, 9
           Node(player=CHANCE, edges=(Edge("c", 8, Fraction(1), seen),)),
           Node(player=CHANCE, edges=(Edge("c", 9, Fraction(1), seen),)),
           Node(player=COORDINATOR, edges=(Edge("x", 10, seen_by=hidden),
                                           Edge("y", 11, seen_by=hidden)))]
    merged = [*leaves, *resolve, decide(4), decide(6),
              Node(player=CHANCE, edges=(
                  Edge("p", 8, Fraction(1, 2), hidden),
                  Edge("q", 9, Fraction(1, 2), hidden)))]
    return [(_coordinator_only(own, 12, [(0,)] * 3),
             "reached after several own sequences"),
            (_coordinator_only(merged, 10, [(0,), (1,)]),
             "spans several profile infosets")]


def test_team_plan_map_rejects_illegal_actions_and_split_prescriptions():
    # the coordinator cannot tell its two nodes apart, but they prescribe
    # for the team infosets j and k: a plan playing a at j and b at k
    # prescribes l at one and r at the other
    from dataclasses import replace
    from pubcoord import map_team_to_coordinator
    from pubcoord.model import COORDINATOR
    seen, hidden = frozenset({COORDINATOR}), frozenset()
    nodes = [Node(utility=Fraction(u)) for u in (1, -1, 2, 0)]
    nodes += [Node(player=COORDINATOR, edges=(
        Edge("l", k, seen_by=seen), Edge("r", k + 1, seen_by=seen)))
        for k in (0, 2)]                                              # 4, 5
    nodes.append(Node(player=CHANCE, edges=(
        Edge("p", 4, Fraction(1, 2), hidden),
        Edge("q", 5, Fraction(1, 2), hidden))))
    j, k = (T0, ("j",)), (T0, ("k",))
    cg = replace(_coordinator_only(nodes, 6, [(0,), (0,)]),
                 iset_refs=(j, k), iset_actions=(("a", "b"),) * 2,
                 active=(None,) * 4 + ((0,), (1,), None))
    assert set(map_team_to_coordinator(cg, {j: "b", k: "b"}).values()) == {
        "r"}
    with pytest.raises(IllegalActionInPlan, match="illegal"):
        map_team_to_coordinator(cg, {j: "z"})
    with pytest.raises(IllegalPrescription, match="inconsistent"):
        map_team_to_coordinator(cg, {j: "a", k: "b"})


@pytest.mark.parametrize("case", [0, 1])
def test_compile_rejects_a_partition_the_sequence_form_cannot_use(
        case, tmp_path, capsys):
    from pubcoord import io_json
    from pubcoord.cli import main
    cg, says = _recall_breaking_games()[case]
    for _ in range(2):  # a failed compile keeps no form
        with pytest.raises(ImperfectRecallInput, match=says):
            compile_converted(cg)
    path = tmp_path / "bad.json"
    io_json.save_converted(cg, str(path))
    assert main(["solve", str(path), "--iterations", "1"]) == 4
    assert says in capsys.readouterr().err


def test_expected_value_pure_profile_hits_reached_terminal():
    cg = _pennies_converted()
    prof = {"coord": {}, "o": {}}
    from pubcoord.solvers import compile_converted
    c = compile_converted(cg)
    for side in ("coord", "o"):
        for key, acts in c.iset_actions[side].items():
            prof[side][key] = {acts[0]: 1.0}
    # coordinator prescribes H, opponent plays h: team utility 1
    assert expected_value(cg, prof) == pytest.approx(1.0)


def test_incomplete_profile_rejected(mini):
    cg = convert_folded(mini)
    with pytest.raises(IncompleteProfile):
        expected_value(cg, {"coord": {}, "o": {}})


def test_zero_sum_consistency(mini):
    cg = convert_folded(mini)
    prof = _uniform_profile(cg)
    v = expected_value(cg, prof)
    br_t, _ = best_response(cg, prof, "coord")
    br_o, _ = best_response(cg, prof, "o")
    # both best responses bound the current value from their own side
    assert br_t >= v - 1e-9
    assert br_o >= -v - 1e-9
    assert exploitability(cg, prof) == pytest.approx(
        (br_t - v) + (br_o + v), abs=1e-12)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000))
def test_oracle_equivalence_property(seed):
    g = mini_team_game(seed)
    oracle = tmecor_bruteforce(g).value
    cg = convert_folded(g)
    profile, _ = solve_cfr(cg, "lcfr+", iterations=1500)
    assert expected_value(cg, profile) == pytest.approx(oracle, abs=2e-3)


# the opponent's infosets span three belief nodes here; unless a traversal
# gives every node of an infoset the same strategy, LCFR+ ends 0.004
# (seed 31) and 0.007 (seed 59) off the oracle
@pytest.mark.parametrize("seed", [31, 59])
def test_lcfr_plus_matches_oracle_on_multi_node_infosets(seed):
    g = mini_team_game(seed)
    oracle = tmecor_bruteforce(g).value
    cg = convert_folded(g)
    profile, _ = solve_cfr(cg, "lcfr+", iterations=1500)
    assert expected_value(cg, profile) == pytest.approx(oracle, abs=2e-3)
    assert exploitability(cg, profile) <= 1e-4


class _Reached(Exception):
    """Raised from a ``solve_cfr`` log hook: (team value, exploitability)."""


def _lcfr_plus_until(cg, eps: float, budget: int) -> tuple[float, float]:
    """LCFR+ until the average profile is at most ``eps`` exploitable,
    checked every 25 iterations; its team value and exploitability."""
    def hook(t, v, e):
        if e <= eps:
            raise _Reached(v, e)
    try:
        solve_cfr(cg, "lcfr+", budget, log_every=25, log_hook=hook)
    except _Reached as reached:
        return reached.args
    pytest.fail(f"LCFR+ not {eps}-exploitable within {budget} iterations")


# The paper's claim at Leduc scale, where the TMECor oracle cannot run:
# every conversion has the same value.  An eps-exploitable profile's value
# is within eps of the game value, which certifies the bracket below
@pytest.mark.parametrize("pos", [0, 1, 2])
def test_leduc_values_agree_across_modes(pos):
    g = gen_leduc3(PokerSpec("leduc", 2, 1, adversary_position=pos))
    folded = convert_folded(g)
    modes = {"basic": convert_basic(g), "pruned": convert_pruned(g),
             "folded": folded}
    v_ir, e_ir = _lcfr_plus_until(apply_safe_imperfect_recall(folded),
                                  1e-3, 1000)
    for mode, cg in modes.items():
        v, e = _lcfr_plus_until(cg, 1e-3, 1000)
        assert abs(v - v_ir) <= e + e_ir, mode
