"""Coordinator conversion: structure, prescriptions, abstractions,
strategy mappings and payoff equivalence."""
from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import random
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pubcoord import (
    PokerSpec,
    ToySpec,
    apply_safe_imperfect_recall,
    check_payoff_equivalence,
    convert_basic,
    convert_folded,
    convert_pruned,
    gen_kuhn3,
    gen_leduc3,
    gen_toy,
    map_coordinator_to_team,
    map_team_to_coordinator,
)
from pubcoord.census import census
from pubcoord.convert import (
    COORD_SEEN,
    OPP_SEEN,
    ConvertedTree,
    _Columns,
    _Walk,
    _prepare,
    converted_values,
    coordinator_choices,
    coordinator_node_keys,
    exact_expected_value,
    game_digest,
)
from pubcoord.errors import (
    ActionMismatchWithinInfoset,
    ExclusionDataMissing,
    IllegalActionInPlan,
    IllegalPrescription,
    ImperfectRecallInput,
    InvalidIterationCount,
    NotATeamGame,
    NotPublicTurnTaking,
    SchemaError,
)
from pubcoord.model import (
    CHANCE,
    COORDINATOR,
    OPPONENT,
    Edge,
    Node,
    PlayerRole,
    VEFG,
    gc_paused,
    infosets,
    is_public_turn_taking,
    make_public_turn_taking,
    validate_game,
    validate_perfect_recall,
)

from pubcoord.io_json import converted_from_dict, converted_to_dict
from pubcoord.solvers import (
    compile_converted,
    count_reduced_plans,
    expected_value,
    solve_cfr,
    tmecor_bruteforce,
)

from conftest import (
    ALL,
    O,
    T0,
    T1,
    hidden_actor_game,
    mini_team_game,
    own_sequence_collision_game,
    with_root_probs,
)
from reference_walk import reference_keys, reference_sequences

CONVERTERS = {"basic": convert_basic, "pruned": convert_pruned,
              "folded": convert_folded}


@pytest.mark.parametrize("mode", sorted(CONVERTERS))
def test_converted_game_is_two_player_valid(mini, mode):
    cg = CONVERTERS[mode](mini)
    validate_game(cg.game)
    kinds = {p.kind for p in cg.game.players}
    assert kinds == {"coordinator", "opponent"}
    assert cg.mode == mode
    assert cg.source_digest == game_digest(mini)
    assert not validate_perfect_recall(cg.game)


@pytest.mark.parametrize("mode", sorted(CONVERTERS))
def test_coordinator_fanout_is_product_of_action_counts(mini, mode):
    cg = CONVERTERS[mode](mini)
    for nid, node in enumerate(cg.game.nodes):
        if node.player == COORDINATOR:
            expect = 1
            for iid in cg.active[nid]:
                expect *= len(cg.iset_actions[iid])
            assert len(node.edges) == expect


def test_basic_keeps_all_states_active(mini):
    cg = convert_basic(mini)
    sizes = {len(cg.active[nid]) for nid, n in enumerate(cg.game.nodes)
             if n.player == COORDINATOR}
    # t0 has one infoset per deal; the basic conversion never prunes, so
    # t0-origin coordinator nodes always prescribe to both deals
    assert max(sizes) == 2


def test_pruning_never_larger_than_basic():
    for seed in range(3):
        g = mini_team_game(seed)
        nb = len(convert_basic(g).game.nodes)
        np_ = len(convert_pruned(g).game.nodes)
        assert np_ <= nb


def test_pruned_excludes_incompatible_states(mini):
    basic, cg = convert_basic(mini), convert_pruned(mini)

    def support_sizes(conv):
        return [len(conv.supports[nid])
                for nid, n in enumerate(conv.game.nodes)
                if n.player == COORDINATOR]

    # after a prescription whose played action disagrees with some state's
    # prescribed action, that state is dropped from the supports below, so
    # some pruned branch carries fewer compatible states than basic ever does
    assert min(support_sizes(cg)) < min(support_sizes(basic))
    for nid, n in enumerate(cg.game.nodes):
        if n.player == COORDINATOR:
            refs = {cg.iset_refs[iid][0] for iid in cg.active[nid]}
            assert refs  # at least one active infoset per coordinator node


def test_folded_has_no_explicit_team_chance(mini):
    cg = convert_folded(mini)
    # the private deal is absorbed into beliefs: no chance edge carries the
    # original private deal labels
    deal_labels = {"c0", "c1"}
    for n in cg.game.nodes:
        if n.is_chance:
            assert not (deal_labels & {e.label for e in n.edges})
    # prescriptions are resolved by exact belief-marginal distributions
    for nid, n in enumerate(cg.game.nodes):
        if cg.node_kind[nid] == "presc":
            assert all(isinstance(e.prob, Fraction) for e in n.edges)
            assert sum(e.prob for e in n.edges) == Fraction(1)


def test_folded_chance_rows_sum_to_one_for_inexact_float_rows():
    # 0.1 + 0.2 + 0.7 is 1 - 2**-55 exactly: the masses are taken relative
    # to the belief, so the converted rows still sum to exactly 1
    g = with_root_probs(mini_team_game(3, chance_outcomes=3), (0.1, 0.2, 0.7))
    validate_game(g)
    cg = convert_folded(g)
    validate_game(cg.game)
    rows = [[e.prob for e in n.edges] for n in cg.game.nodes if n.is_chance]
    assert rows and all(sum(row) == 1 for row in rows)


def test_folded_zero_mass_group_gets_a_belief():
    # two zero-probability states prescribed one action form a group of
    # mass 0: it gets weight 1 on each state and an edge of probability 0
    g = with_root_probs(mini_team_game(3, chance_outcomes=3),
                        (Fraction(0), Fraction(0), Fraction(1)))
    cg = convert_folded(g)
    validate_game(cg.game)
    assert any(e.prob == 0 for n in cg.game.nodes if n.is_chance
               for e in n.edges)
    report = check_payoff_equivalence(g, cg, samples=50, seed=0)
    assert report["max_abs_diff"] == 0


def test_conversion_leaves_no_cyclic_garbage(kuhn0):
    # the builder's memo and columns are freed on return, not at the next
    # run of the cyclic collector
    with gc_paused():
        gc.collect()
        for convert in (convert_basic, convert_pruned, convert_folded):
            convert(kuhn0)
            assert gc.collect() == 0, convert.__name__


@pytest.mark.parametrize("enabled", [True, False])
def test_conversion_leaves_the_collector_as_it_found_it(kuhn0, enabled,
                                                        monkeypatch):
    # the builder pauses the cyclic collector, on success and on a failure
    # inside the build alike, and restores the caller's setting
    def broken_emit(*args, **kwargs):
        raise RuntimeError("emit failed")

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for convert in (convert_basic, convert_pruned, convert_folded):
            convert(kuhn0)
            assert gc.isenabled() is enabled, convert.__name__
            with monkeypatch.context() as m:
                m.setattr(_Columns, "emit", broken_emit)
                with pytest.raises(RuntimeError, match="emit failed"):
                    convert(kuhn0)
            assert gc.isenabled() is enabled, convert.__name__
    finally:
        (gc.enable if was else gc.disable)()


def test_terminal_utilities_belief_weighted(mini):
    cg = convert_folded(mini)
    total_orig = {Fraction(n.utility) for n in mini.nodes if n.is_terminal}
    for n in cg.game.nodes:
        if n.is_terminal:
            u = Fraction(n.utility)
            assert min(total_orig) <= u <= max(total_orig)


def test_convert_requires_team(kuhn0):
    from dataclasses import replace
    no_team = replace(kuhn0, players=(OPPONENT,))
    with pytest.raises(NotATeamGame):
        convert_basic(no_team)


@pytest.mark.parametrize("terminal_first", [True, False])
@pytest.mark.parametrize("mode", sorted(CONVERTERS))
def test_actor_hidden_from_coordinator_is_rejected(mode, terminal_first):
    # the team's common view mixes a terminal with a t0 decision: the check
    # fails and the converters reject the game before building; the
    # transform postpones the terminal, and the result converts
    g = hidden_actor_game(terminal_first)
    assert not validate_perfect_recall(g) and not is_public_turn_taking(g)
    with pytest.raises(NotPublicTurnTaking, match="is not public turn-taking"):
        CONVERTERS[mode](g)
    fixed = make_public_turn_taking(g)
    validate_game(fixed)
    assert is_public_turn_taking(fixed)
    cg = CONVERTERS[mode](fixed)
    report = check_payoff_equivalence(fixed, cg, samples=100, seed=0)
    assert report["max_abs_diff"] == 0
    oracle = tmecor_bruteforce(g).value
    assert oracle == pytest.approx(1.5)
    assert tmecor_bruteforce(fixed).value == pytest.approx(oracle)
    profile, _ = solve_cfr(cg, "lcfr+", 300)
    assert abs(expected_value(cg, profile) - oracle) <= 1e-3


def test_team_view_of_a_hidden_state_is_rejected():
    # chance, hidden from the team, leads to two chance nodes that the
    # team's common view cannot tell apart; the team sees the move of one
    # and not of the other, so seeing nothing would tell the states apart
    terms = tuple(Node(utility=Fraction(u)) for u in (1, -1, 2))
    t0 = Node(player=T0, edges=(Edge("a", 0, seen_by=frozenset(ALL)),
                                Edge("b", 1, seen_by=frozenset(ALL))))
    hidden = Node(player=CHANCE, edges=(Edge("p", 3, Fraction(1),
                                             frozenset({O})),))
    shown = Node(player=CHANCE, edges=(Edge("q", 2, Fraction(1),
                                            frozenset(ALL)),))
    root = Node(player=CHANCE, edges=(
        Edge("x", 4, Fraction(1, 2), frozenset({O})),
        Edge("y", 5, Fraction(1, 2), frozenset({O}))))
    g = VEFG("hidden-view", ALL, (*terms, t0, hidden, shown, root), 6)
    validate_game(g)
    assert not validate_perfect_recall(g) and not is_public_turn_taking(g)
    # noop levels cannot make the team's sight of a move uniform
    fixed = make_public_turn_taking(g)
    assert not is_public_turn_taking(fixed)
    for convert in CONVERTERS.values():
        for game in (g, fixed):
            with pytest.raises(NotPublicTurnTaking,
                               match="is not public turn-taking"):
                convert(game)


def _deep_hidden_actor_game(depth: int) -> VEFG:
    """A public chain of ``depth`` decisions of t0, o and t1 in turn, where
    ``a`` continues and ``b`` ends the game, that ends in
    :func:`hidden_actor_game`."""
    tail = hidden_actor_game()
    nodes, nid = list(tail.nodes), tail.root
    for k in reversed(range(depth)):
        nodes.append(Node(utility=Fraction(k % 5 - 2)))
        nodes.append(Node(player=(T0, O, T1)[k % 3], edges=(
            Edge("a", nid, seen_by=frozenset(ALL)),
            Edge("b", len(nodes) - 1, seen_by=frozenset(ALL)))))
        nid = len(nodes) - 1
    g = VEFG("deep-hidden-actor", ALL, tuple(nodes), nid)
    validate_game(g)
    return g


def test_deep_game_transforms_without_recursion():
    # the chain is deeper than the recursion limit allows for a recursive
    # walk; the level-by-level transform leaves the limit alone
    g = _deep_hidden_actor_game(3000)
    limit = sys.getrecursionlimit()
    assert limit < 3000 and len(g.nodes) == 6005
    assert not is_public_turn_taking(g)
    fixed = make_public_turn_taking(g)
    assert sys.getrecursionlimit() == limit
    validate_game(fixed)
    assert is_public_turn_taking(fixed)
    cg = convert_folded(fixed)
    report = check_payoff_equivalence(fixed, cg, samples=20, seed=0)
    assert report["max_abs_diff"] == 0


def test_action_mismatch_within_infoset_is_caught():
    # chance, hidden from t0, leads to two t0 nodes with different labels
    terms = tuple(Node(utility=Fraction(u)) for u in range(4))
    t0x, t0y = (Node(player=T0, edges=(
        Edge(a, k, seen_by=frozenset(ALL)),
        Edge(b, k + 1, seen_by=frozenset(ALL)))) for a, b, k in
        (("l", "r", 0), ("p", "q", 2)))
    root = Node(player=CHANCE, edges=(
        Edge("x", 4, Fraction(1, 2), frozenset({O})),
        Edge("y", 5, Fraction(1, 2), frozenset({O}))))
    g = VEFG("mismatch", ALL, (*terms, t0x, t0y, root), 6)
    validate_game(g)
    with pytest.raises(ActionMismatchWithinInfoset):
        infosets(g, T0)
    assert validate_perfect_recall(g) == [(T0, 5)]
    for convert in CONVERTERS.values():
        with pytest.raises(ImperfectRecallInput,
                           match=r"action mismatch at \(t0, 5\)"):
            convert(g)


def test_own_sequence_collision_is_rejected():
    # public turn-taking, so only the own-sequence clause of the perfect
    # recall rule rejects it
    g = own_sequence_collision_game()
    assert is_public_turn_taking(g)
    for convert in CONVERTERS.values():
        with pytest.raises(ImperfectRecallInput):
            convert(g)


# ---------------------------------------------------------------------------
# safe imperfect recall
# ---------------------------------------------------------------------------


def test_safe_ir_requires_exclusion_data(mini):
    with pytest.raises(ExclusionDataMissing):
        apply_safe_imperfect_recall(convert_basic(mini))


@pytest.mark.parametrize("mode", ["pruned", "folded"])
def test_safe_ir_merges_monotonically(mini, mode):
    cg = CONVERTERS[mode](mini)
    sir = apply_safe_imperfect_recall(cg)
    assert sir.safe_ir_applied
    before = len(set(coordinator_node_keys(cg).values()))
    after = len(set(coordinator_node_keys(sir).values()))
    assert after <= before
    # node structure untouched
    assert sir.game.nodes == cg.game.nodes


def test_safe_ir_strictly_reduces_with_three_actions():
    g = gen_toy(ToySpec(2, 3, 2, payoff_seed=1))
    cg = convert_pruned(g)
    sir = apply_safe_imperfect_recall(cg)
    before = len(set(coordinator_node_keys(cg).values()))
    after = len(set(coordinator_node_keys(sir).values()))
    assert after < before


def test_safe_ir_key_is_compatible_state_set(mini):
    sir = apply_safe_imperfect_recall(convert_folded(mini))
    keys = coordinator_node_keys(sir)
    for nid, key in keys.items():
        assert key[0] == "sir"
        assert tuple(key[1:]) == sir.supports[nid]


# ---------------------------------------------------------------------------
# strategy mappings
# ---------------------------------------------------------------------------


def _all_joint_plans(g, cg):
    import itertools
    axes = [[(ref, a) for a in cg.iset_actions[iid]]
            for iid, ref in enumerate(cg.iset_refs)]
    for combo in itertools.product(*axes):
        yield dict(combo)


def _reachable_team_refs(g, plan):
    """Team (player, infoset key) pairs reachable when team members follow
    ``plan`` and chance/opponent branch every way."""
    from pubcoord.model import seen_sequences
    seqs = {p: seen_sequences(g, p) for p in g.team_players()}
    out = set()
    stack = [g.root]
    while stack:
        nid = stack.pop()
        node = g.nodes[nid]
        if node.player is not None and node.player.kind == "team":
            ref = (node.player, seqs[node.player][nid])
            out.add(ref)
            a = plan[ref]
            stack.extend(e.child for e in node.edges if e.label == a)
        else:
            stack.extend(e.child for e in node.edges)
    return out


@pytest.mark.parametrize("mode", sorted(CONVERTERS))
def test_rho_sigma_roundtrip_exhaustive_small(mode):
    g = gen_toy(ToySpec(2, 2, 1, payoff_seed=3))
    from pubcoord.model import team_perfect_recall_refinement
    g = team_perfect_recall_refinement(g)
    cg = CONVERTERS[mode](g)
    for plan in _all_joint_plans(g, cg):
        pi_t = map_team_to_coordinator(cg, plan)
        back = map_coordinator_to_team(cg, pi_t)
        for ref in _reachable_team_refs(g, plan):
            assert back[ref] == plan[ref], (mode, ref)


@pytest.mark.parametrize("mode", sorted(CONVERTERS))
def test_strategy_maps_walk_each_tree_once(mini, mode, monkeypatch):
    # the coordinator infoset keys are kept on the game: a second rho /
    # sigma round trip on the same game walks no tree
    walks = []
    walk = ConvertedTree.walk
    monkeypatch.setattr(ConvertedTree, "walk",
                        lambda tree: walks.append(tree) or walk(tree))
    cg = CONVERTERS[mode](mini)
    for v in [cg] + ([apply_safe_imperfect_recall(cg)]
                     if mode != "basic" else []):
        back = map_coordinator_to_team(v, map_team_to_coordinator(v, {}))
        assert len(walks) <= 1
        walks.clear()
        assert map_coordinator_to_team(
            v, map_team_to_coordinator(v, {})) == back
        assert not walks


@pytest.mark.parametrize("safe_ir", [False, True])
def test_readers_share_the_compiled_walk(mini, safe_ir, monkeypatch):
    # the compiled form is the one infoset numbering of a converted game:
    # the census, the payoff check and the strategy maps read it
    walks = []
    walk = ConvertedTree.walk
    monkeypatch.setattr(ConvertedTree, "walk",
                        lambda tree: walks.append(tree) or walk(tree))
    cg = convert_folded(mini)
    if safe_ir:
        cg = apply_safe_imperfect_recall(cg)
    compile_converted(cg)
    census(cg)
    assert check_payoff_equivalence(mini, cg, samples=5)["max_abs_diff"] == 0
    back = map_coordinator_to_team(cg, map_team_to_coordinator(cg, {}))
    assert back == map_coordinator_to_team(cg, map_team_to_coordinator(cg, {}))
    assert len(walks) == 1


@pytest.mark.parametrize("safe_ir", [False, True])
def test_census_of_a_compiled_game_walks_no_tree(mini, safe_ir, monkeypatch):
    cg = convert_folded(mini)
    if safe_ir:
        cg = apply_safe_imperfect_recall(cg)
    fresh = census(dataclasses.replace(cg))
    compile_converted(cg)
    monkeypatch.setattr(ConvertedTree, "walk", None)  # any walk raises
    assert census(cg) == fresh


@pytest.mark.parametrize("safe_ir", [False, True])
def test_compile_makes_no_key_until_one_is_read(mini, safe_ir, monkeypatch):
    made = []
    keys = _Walk.keys

    def counted(walk, bit):
        inner = keys(walk, bit)
        return lambda seqs: made.append(bit) or inner(seqs)
    monkeypatch.setattr(_Walk, "keys", counted)
    cg = convert_folded(mini)
    if safe_ir:
        cg = apply_safe_imperfect_recall(cg)
    c = compile_converted(cg)
    census(cg)
    parts = [p for side in c.sides.values() for p in (side.profile, side.pr)]
    assert not made
    assert not any("keys" in vars(p) or "actions" in vars(p) for p in parts)
    node_keys = coordinator_node_keys(cg)
    assert made == ([] if safe_ir else [COORD_SEEN])
    assert set(node_keys.values()) == set(c.sides["coord"].profile.keys)
    coordinator_node_keys(cg)
    c.sides["coord"].pr.keys
    assert made == [COORD_SEEN]


def test_rho_matrices_are_built_once_for_every_chunk(monkeypatch):
    game = mini_team_game(2, chance_outcomes=3)
    cg = apply_safe_imperfect_recall(convert_pruned(game))
    actions = _prepare(game).actions
    rng = random.Random(5)
    plans = [[rng.randrange(len(a)) for a in actions] for _ in range(12)]
    whole = list(converted_values(game, cg, plans))
    again = dataclasses.replace(cg)
    c = compile_converted(again)
    assert c.rho is None
    kept = []  # the matrices after each call
    monkeypatch.setattr("pubcoord.convert.coordinator_choices", lambda *a: (
        coordinator_choices(*a), kept.append(c.rho))[0])
    # one row per chunk
    monkeypatch.setattr("pubcoord.convert._CHUNK_ENTRIES", 1)
    assert list(converted_values(game, again, plans)) == whole
    assert len(kept) == len(plans) and all(m is kept[0] for m in kept)


def node_dependent_prescriptions():
    """``(game, cg)``: ``convert_basic(mini_team_game(0))`` with the
    ``active`` tuple of node 97 reversed.  Node 48 shares its coordinator
    infoset and keeps ``(0, 1)``, so rho sends the two nodes down unlike
    edges whenever the two infosets' actions differ."""
    game = mini_team_game(0)
    cg = convert_basic(game)
    keys = coordinator_node_keys(cg)
    assert keys[97] == keys[48] and cg.active[97] == cg.active[48] == (0, 1)
    active = list(cg.active)
    active[97] = (1, 0)
    return game, dataclasses.replace(cg, active=tuple(active))


def test_node_dependent_prescriptions_are_no_coordinator_strategy():
    game, cg = node_dependent_prescriptions()
    with pytest.raises(IllegalPrescription,
                       match=r"inconsistent prescriptions within coordinator "
                             r"infoset \(\) under plan"):
        check_payoff_equivalence(game, cg, samples=200)


def test_sigma_reports_illegal_prescriptions(mini):
    cg = convert_basic(mini)
    pi_t = map_team_to_coordinator(cg, {})
    with pytest.raises(IllegalPrescription, match="undefined at infoset"):
        map_coordinator_to_team(cg, {})
    with pytest.raises(IllegalPrescription, match="'nope' not available"):
        map_coordinator_to_team(cg, {k: "nope" for k in pi_t})
    # t1's prescriptions made to address t0's first infoset, whose action
    # the first prescription already fixed
    t1 = [v for v, p in enumerate(cg.origin_player)
          if p is not None and p.index == 1 and cg.active[v] is not None]
    bad = dataclasses.replace(cg, active=tuple(
        (0,) if v in t1 else a for v, a in enumerate(cg.active)))
    keys = coordinator_node_keys(bad)
    second = {keys[v]: bad.tree.actions(v)[1] for v in t1}
    with pytest.raises(IllegalPrescription, match="conflicting actions"):
        map_coordinator_to_team(bad, {**pi_t, **second})


@pytest.mark.parametrize("mode", sorted(CONVERTERS))
def test_payoff_equivalence_sampled(mini, mode):
    cg = CONVERTERS[mode](mini)
    report = check_payoff_equivalence(mini, cg, samples=200, seed=0)
    assert report["max_abs_diff"] <= 1e-12


def test_payoff_equivalence_kuhn(kuhn0):
    for mode, conv in CONVERTERS.items():
        cg = conv(kuhn0)
        report = check_payoff_equivalence(kuhn0, cg, samples=50, seed=1)
        assert report["max_abs_diff"] <= 1e-12, mode


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_payoff_equivalence_property(seed):
    g = mini_team_game(seed)
    cg = convert_folded(g)
    report = check_payoff_equivalence(g, cg, samples=25, seed=seed)
    assert report["max_abs_diff"] <= 1e-12


def test_payoff_equivalence_rejects_negative_samples(mini):
    cg = convert_folded(mini)
    with pytest.raises(InvalidIterationCount):
        check_payoff_equivalence(mini, cg, samples=-3)


@pytest.mark.parametrize("samples", [True, False, 1.5, "3", np.float64(3)],
                         ids=repr)
def test_payoff_equivalence_rejects_samples_that_are_not_ints(mini, samples):
    cg = convert_folded(mini)
    with pytest.raises(InvalidIterationCount):
        check_payoff_equivalence(mini, cg, samples=samples)


# ---------------------------------------------------------------------------
# columns and the view built on first use
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", sorted(CONVERTERS))
def test_conversion_and_column_readers_leave_the_view_unbuilt(mini, mode):
    cg = CONVERTERS[mode](mini)
    variants = [cg] + ([apply_safe_imperfect_recall(cg)]
                       if mode != "basic" else [])
    for v in variants:
        census(v)
        census(v, compact=True)
        coordinator_node_keys(v)
        compile_converted(v)
        map_coordinator_to_team(v, map_team_to_coordinator(v, {}))
        assert check_payoff_equivalence(mini, v, samples=5)[
            "max_abs_diff"] == 0
        back = converted_from_dict(converted_to_dict(v))
        assert back == v and "game" not in vars(back.tree)
    assert "game" not in vars(cg.tree)
    # the view is built once, kept beside the columns and shared
    assert all(v.game is cg.game for v in variants)
    assert dataclasses.replace(cg).game is cg.game
    assert "game" in vars(cg.tree)


def _retyped(table: tuple) -> tuple:
    """``table`` with every value an equal value of another type where one
    exists: exact binary fractions as floats, integers as ints, zeros
    signed."""
    def other(x):
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else float(x) if (
                Fraction(float(x)) == x) else x
        return -0.0 if x == 0.0 and isinstance(x, float) else x
    return tuple(map(other, table))


def test_tree_equality_reads_every_column_and_table(mini):
    # agrees with the equality of the views: one changed entry of any
    # column or table makes trees unequal, equal values of another type
    # keep them equal
    tree = convert_folded(mini).tree
    changed = []
    for name in ("player", "utility", "label", "prob"):
        table = getattr(tree, {"player": "roles", "utility": "utilities",
                               "label": "labels", "prob": "probs"}[name])
        column = getattr(tree, name).copy()
        i = int(np.flatnonzero(column == column.max())[0])
        column[i] = next(j for j, x in enumerate(table)
                         if x != table[column[i]])
        changed.append(dataclasses.replace(tree, **{name: column}))
    for name, delta in (("end", 1), ("child", 1), ("seen", 1)):
        column = getattr(tree, name).copy()
        column[0] ^= delta
        changed.append(dataclasses.replace(tree, **{name: column}))
    changed += [
        dataclasses.replace(tree, roles=tuple(
            OPPONENT if r is COORDINATOR else r for r in tree.roles)),
        dataclasses.replace(tree, labels=tree.labels[:-1] + ("zz",)),
        dataclasses.replace(tree, probs=tuple(
            Fraction(1, 3) if p == Fraction(1, 2) else p
            for p in tree.probs)),
        dataclasses.replace(tree, utilities=tree.utilities[:-1]
                            + (tree.utilities[-1] + 1,)),
        dataclasses.replace(tree, name="other"),
        dataclasses.replace(tree, root=tree.root - 1),
    ]
    for other in changed:
        assert other != tree and tree != other
        assert dataclasses.replace(tree).game != other.game
    retyped = dataclasses.replace(tree, probs=_retyped(tree.probs),
                                  utilities=_retyped(tree.utilities))
    assert any(type(a) is not type(b)
               for a, b in zip(retyped.utilities, tree.utilities))
    assert retyped == tree and retyped.game == tree.game
    assert tree.__eq__(tree.game) is NotImplemented


def _source_values(g):
    """Every pure profile of ``g``: a row of action indices (per team
    infoset in canonical order, then per opponent infoset in sorted key
    order) and its exact value, by :func:`exact_expected_value`."""
    rec = _prepare(g)
    actions, slot = rec.actions[:rec.team], rec.of
    slot = dict(slot)
    radix = [len(a) for a in actions]
    for j, (_, members) in enumerate(sorted(infosets(g, O).items())):
        radix.append(len(g.nodes[members[0]].edges))
        slot.update((nid, len(actions) + j) for nid in members)
    rows = list(itertools.product(*map(range, radix)))
    return rows, [exact_expected_value(g, lambda nid: row[slot[nid]])
                  for row in rows]


def test_converted_values_equal_source_values_on_every_profile():
    # a proof of payoff equivalence for each game: every team plan x
    # opponent plan pair, in every mode (safe IR shares the tree)
    pairs = 0
    for seed in range(60):
        g = mini_team_game(seed)
        rows, want = _source_values(g)
        assert len(rows) == 256
        pairs += len(rows)
        for mode, convert in CONVERTERS.items():
            got = list(converted_values(g, convert(g), rows))
            assert got == want, (seed, mode)
    assert pairs == 15_360


def test_converted_values_reject_an_action_index_out_of_range(mini):
    rows, _ = _source_values(mini)
    cg = convert_folded(mini)
    high, low = list(rows[0]), list(rows[0])
    high[-1], low[0] = 2, -1
    # a row of the wrong length, even one that re-cuts into whole rows
    for bad in ([high], [low], [rows[0] + rows[1]], [rows[0][:-1]],
                [rows[0], rows[1] + rows[2][:3]]):
        with pytest.raises(IllegalActionInPlan):
            list(converted_values(mini, cg, [rows[0]] + bad))


def test_converted_values_reject_another_games_team_infosets(mini):
    cg = convert_folded(gen_toy(ToySpec(2, 2, 1)))
    with pytest.raises(SchemaError, match="team infosets"):
        list(converted_values(mini, cg, []))


def test_a_given_game_becomes_the_tree_and_its_view(mini):
    cg = convert_pruned(mini)
    g = cg.game
    tree = ConvertedTree.from_game(g)
    assert tree == cg.tree and tree is not cg.tree and tree.game is g


def test_each_player_is_grouped_once_per_source_game(group_walks):
    # the perfect-recall check's groups are the numbering of the
    # conversions and the payoff check, and the oracle's infosets
    g = gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=0))
    cgs = [convert(g) for convert in CONVERTERS.values()]
    check_payoff_equivalence(g, cgs[-1], samples=5)
    list(converted_values(g, cgs[0], [[0] * len(_prepare(g).actions)]))
    players = sorted(g.players, key=PlayerRole.sort_key)
    assert sorted(group_walks, key=PlayerRole.sort_key) == players
    for p in players:
        group_walks.clear()
        count_reduced_plans(gen_kuhn3(PokerSpec("kuhn", 3)), p)
        assert group_walks == [p]
    group_walks.clear()
    tmecor_bruteforce(g)
    assert sorted(group_walks, key=PlayerRole.sort_key) == players


@pytest.mark.parametrize("make", [
    lambda: gen_kuhn3(PokerSpec("kuhn", 3)),
    lambda: gen_toy(ToySpec(2, 2, 2, payoff_seed=3))])
def test_a_converted_source_game_is_freed_without_the_collector(make):
    # what a conversion keeps on its source game refers to no game
    g = make()
    with gc_paused():
        cg = convert_folded(g)
        check_payoff_equivalence(g, cg, samples=2)
        fields = {f.name for f in dataclasses.fields(g)}
        assert set(vars(g)) - fields == {"_digest", "_prepared"}
        ref = weakref.ref(g)
        del g
        assert ref() is None


def test_source_prerequisites_are_derived_once(mini):
    g = _prepare(mini)
    assert _prepare(mini) is g
    assert g.refs is _prepare(mini).refs
    assert game_digest(mini) == game_digest(dataclasses.replace(mini))
    # a game that fails its checks raises on every call
    no_team = dataclasses.replace(mini, players=(O,))
    for _ in range(2):
        with pytest.raises(NotATeamGame):
            _prepare(no_team)


# ---------------------------------------------------------------------------
# tree identity pins
# ---------------------------------------------------------------------------

# (game, mode) -> (game_digest of the converted tree, sha256 of the repr of
# (node_kind, origin_player, active, supports)).  Any builder change must
# leave every converted tree and its bookkeeping bit-identical.
_PINNED = {
    ("kuhn3-0", "basic"): (
        "72a1a19d000720944c7051c52ca711ddf2d150514abc8fbc9ee0c164e5b3461a",
        "b389ff8f132a2bff97c93586b5bd8057f6e123d58e330089918d8bbf6fb1ee0b"),
    ("kuhn3-0", "pruned"): (
        "add5b6205dbedfb02709ae1ad5704ac3dfd52efdb6d65928fbd8a2ccfdc0d881",
        "e568dae0f532c1599d97fe3b1dd4b7d69808237f9e57e56fccde322a5a3e7895"),
    ("kuhn3-0", "folded"): (
        "22eaad9adab461823d78730e40f012fc4a151dd7cfa16c0fe539a3bc643f1d57",
        "1193c280084a8cba8c3ce3f191aa35399b21499bdf80528f3c3a411727c9c58f"),
    ("kuhn3-1", "basic"): (
        "cef5a6e2f4f6d6a93a9ce1e63dd6593a48e064f9f0b684037b83ff0e97b14e54",
        "44a4fad7237fa15588969a224bacdf648200bef38137440563a8f3e4b654b407"),
    ("kuhn3-1", "pruned"): (
        "c50067e5ef6b2ec826a5c461741f9aa5088aa92232c893b035050f03eaa79940",
        "f5ff2c01eb0ca12a4ae0d2333ff73f56a9ab69338cd64f4f13f780a50e1c4e39"),
    ("kuhn3-1", "folded"): (
        "9f9483fec1309fa5ad5d792c522cd1570ab19081ab458ce7938594755e742fd2",
        "add0a2b4ba7a107075ff1db38ee70c0ebc7b45d10cf9938044364370c43f2aeb"),
    ("kuhn3-2", "basic"): (
        "44f7cb37d49ca6d745a39de3870129c49ab9cb4a47a64963877e17b0b8967cc1",
        "c5a8f41b70ce7a7a1986fffd1eed5806e8e3a5c1a28813fdf30e0feb285bffde"),
    ("kuhn3-2", "pruned"): (
        "4f136b5895645500a3640a68c3317273f729a8b8eb5dc3665369fb4e93954dae",
        "3e67aed2e7416d097d4bae1a9987acc444a3d14813d2b97f1c2d57cbd7688228"),
    ("kuhn3-2", "folded"): (
        "2fd9c3f448c3571fda9ddab53badb6d0c6fc08d72a9f169f93ff58a1275e14ec",
        "1901c609c07bd16bc2ce56c1fe32428798cb04abacd78a056060aa7c4f6fb417"),
    ("toy232", "basic"): (
        "5bbe3eb0d1098f357b598eba5f56c059fccf35728597e8941a0916fd2d6d5e1d",
        "287e2540a9d83a25e968e4833d9d9ac89d1e9702adb48b6f20f64724b52e14fa"),
    ("toy232", "pruned"): (
        "f895340eac2ef84ad12be0596691988b4ef03b85cb2d7fa143beb00c9fdd079a",
        "cfbbb7ec2c148dd07c9cdfe0c8cb5394e3724167ce7bf84da4fe43f831530ace"),
    ("toy232", "folded"): (
        "2d931b9e2119c41e3b6426392a4332f6a30dd98abfad63d7c1ebd20d1cf7a585",
        "2376639c1bdafdcdbda21a392b0cec3444ba9fa302013fadf96cf73f692daef1"),
    ("toy322bp", "basic"): (
        "3e0db029ed84f50d984197cf5983441f8237955040bca3596858c68ddf402af3",
        "d3bb16ea9e05c4f2c601a0e375669440154e5c18500838e05bbbfe21c771657f"),
    ("toy322bp", "pruned"): (
        "2a06df85b0b5abcc9c844a97ee9e0b42f1c71044ec12d1624a0ac7aa6af1961a",
        "a12ef1b14a2692fbf61e860a95994a81ada5b85b66eb8c87b25378a881faf14e"),
    ("toy322bp", "folded"): (
        "546793ce25853189f91f1722f6502d416039a453509ab3ca2303a71f290448df",
        "25140cc15b5ed86577d8972ecf8b8255f01c4a298ed124494c0f82a1d7cc7676"),
    ("leduc21-0", "basic"): (
        "754585e70567c21b55750a706a3e4e5ba9c5a9dbde62a78afe34032734bb7407",
        "292c2f2cc52cb39a7f8b84e3b45acea96f9e31f960b7ad3ffd8f232c0cd5f444"),
    ("leduc21-0", "pruned"): (
        "89962825d285af35db5cb6cb2acf9b5dadfddff7331c17f64165b3fc783c4a76",
        "7fa8b0ebf1fa7dcec9ac3698771a52e58aae705a1f47269666da92bc0c625aee"),
    ("leduc21-0", "folded"): (
        "698aada949c94489eb4e75f8634bbb2e76494ebb96486d84d9a51d2535724446",
        "1d28f1d936fa9a07d010d5862b6ed16465cf524de984c10b99f09fa25688c232"),
    ("leduc21-1", "basic"): (
        "ad165542e6904ad82a455c6f26f2ec36aa85304ed4e34c0fd9451eeb9a4160e1",
        "f4c74c0c72bc9a5bc558b5c105cffee2e8f37a919764149cf056144f9bbbd487"),
    ("leduc21-1", "pruned"): (
        "6213d642af64322053c97b391609253f8eeafa0cf4ff77a2312582de75d31b48",
        "6adf55b94a107a765a40434c15e94ed33af0561cf4df18501409afa10d5fc9cd"),
    ("leduc21-1", "folded"): (
        "f2df84138a86e49dcd0d14c6011c1d8d93ec1d1e2e3d5a03d4bb06ce1afc0f65",
        "6fa328555ebb9edb0f7e98d2a62e7befc82eed4c64cabbd1dbbb5323ac77c3a9"),
    ("leduc21-2", "basic"): (
        "daa0c86327f20fe8f032731957ac368cd29c0b9e21f14476102335802524e17a",
        "73d72fa6b538a6ec63fcab4ad4aae574ca01e49aea9d736a0b29aef589411288"),
    ("leduc21-2", "pruned"): (
        "4dbd8655ff17ab21665b0b38f6cba7c3f865c25e2409a1c81b67d5113773dfb2",
        "61431f0de70f1bc7a17608159801bea475c8ce55766b7bf8873371833b9bbb48"),
    ("leduc21-2", "folded"): (
        "8f1687c2bd9f87e2f11d3c2c10bce5440adf00e856332801011374906dec3934",
        "cdc4b574b5f97cb103a3e190ae7a295026a4d7892bf691b35c52c79f8df41678"),
    ("kuhn4-0", "folded"): (
        "7dce93e758b3f963e9e2af2bd22dd384da1823ceb76f3372f8ce9b026c1c60fe",
        "bddbc3049bdf5f5c399cc2a4685fc3a3735acdbeee2cdd4f06c616d492578947"),
    # float utilities and probabilities
    ("toy222f", "basic"): (
        "53ac3e6b2b1e5145f09540ec6e87d462f5612cd03e547cac9c38f0772eda4170",
        "7496f1c3ad0154ba42395bacb3e7ef8fa16de757a2326e82e79c0f10d68d1f32"),
    ("toy222f", "pruned"): (
        "fdb8ca715b5175c94c308ebc069e58cc38680884dfc4e52d60ac4ea6ed5dbddd",
        "e118ad9f3a91b5d9bbb753cd6fae6a4219d0330e918d1bfef54c8e166aed54d3"),
    ("toy222f", "folded"): (
        "b1a1744e95c39d0001c1dfabd4542a55a8b81464008d6f88e15f7a49c0fa1e81",
        "b0f05002d3d41131a33e4268e79c324cae7f28bce07bbca00b9be3204898a1b7"),
}

# mode -> sha256 over the pins of mini_team_game(seed, chance_outcomes) for
# chance_outcomes 2 and 3 and seeds 0-59, in that order
_MINI_PINNED = {
    "basic":
        "8a91cf114282d84c9c1afb4a934f618d0ea8e919cabd639c5e59404a29ec5965",
    "pruned":
        "b6187b7905eb17d3a1b5c712fd90df8b21aa58cdb2c3b3a4e26b69e7f13d0266",
    "folded":
        "1607f09ed261c03807c9657d6d27e66795d2727a6166b0f1e40473529711f7e0",
}

_PIN_GAMES = {
    "kuhn3-0": lambda: gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=0)),
    "kuhn3-1": lambda: gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=1)),
    "kuhn3-2": lambda: gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=2)),
    "toy232": lambda: gen_toy(ToySpec(2, 3, 2, payoff_seed=1)),
    "toy322bp": lambda: gen_toy(ToySpec(3, 2, 2, both_private=True,
                                        payoff_seed=2)),
    **{f"leduc21-{pos}": (lambda pos=pos: gen_leduc3(
        PokerSpec("leduc", 2, raises=1, adversary_position=pos)))
       for pos in range(3)},
    "kuhn4-0": lambda: gen_kuhn3(PokerSpec("kuhn", 4, adversary_position=0)),
    "toy222f": lambda: gen_toy(ToySpec(2, 2, 2, payoff_seed=5)),
}


def _pinned_modes(name):
    return [mode for game, mode in _PINNED if game == name]


def _pin(cg):
    meta = repr((cg.node_kind, cg.origin_player, cg.active, cg.supports))
    return (game_digest(cg.game), hashlib.sha256(meta.encode()).hexdigest())


@pytest.mark.parametrize("name", sorted(_PIN_GAMES))
def test_converted_trees_match_pinned_digests(name):
    g = _PIN_GAMES[name]()
    for mode in _pinned_modes(name):
        assert _pin(CONVERTERS[mode](g)) == _PINNED[(name, mode)], (name,
                                                                    mode)


@pytest.mark.parametrize("mode", sorted(_MINI_PINNED))
def test_mini_games_match_pinned_digest(mode):
    h = hashlib.sha256()
    for chance_outcomes in (2, 3):
        for seed in range(60):
            cg = CONVERTERS[mode](mini_team_game(seed, chance_outcomes))
            h.update(repr(_pin(cg)).encode())
    assert h.hexdigest() == _MINI_PINNED[mode]


# (game, mode) -> sha256 of :func:`_raw_pin`, taken at the commit before
# the builder emitted leaves and one-state resolves directly.  ``_pin``
# compares values; this compares the ids, so the order in which each value
# table was filled, and with it the converted JSON files, stays fixed.
_RAW_PINNED = {
    ("kuhn3-0", "basic"):
        "12c84bc4c2130181eca2137980429d2dfb5cb87fe154e88f5626e6a5ae1247f0",
    ("kuhn3-0", "pruned"):
        "cbc1a6635eb5fa00515f8a86ca3a4830de4f6a270a7632517ab4d432ed14d218",
    ("kuhn3-0", "folded"):
        "823e6d589265d4719c22e3053dd1cfc1876ca2f6be2ecdc8415372bfda82e095",
    ("kuhn3-1", "basic"):
        "a6b8d3f775121bf470852312bba988ea8876ed482a670b115994d40f5d09a1a3",
    ("kuhn3-1", "pruned"):
        "6178fe0f88e6bb406ede07748730341c75eff28f36ec98da69aa759e56937794",
    ("kuhn3-1", "folded"):
        "1029abdea41315c8c149258edfdd707a715453f709223253f9ff1a3ebd674e72",
    ("kuhn3-2", "basic"):
        "c194c1ce10b46cb80d3db00d7da6ee6f9a26795bdf716f0d116760b470c58462",
    ("kuhn3-2", "pruned"):
        "5aea34e0bedfe1ff969520a2089f88da2e75fd00ec9a961ba5e1dc15cdef1ab3",
    ("kuhn3-2", "folded"):
        "0c73581b45295fda38d130721185459579a4da37cee38ed068dcc842d899344e",
    ("kuhn4-0", "folded"):
        "74bf7c6dbc8a2e745d45f80034d9cadaa0f021e17182cb2d26f61ec3531d6630",
    ("leduc21-0", "basic"):
        "2abac410dec04ab236de168c68e31a7b956d0960a5dbb67d408a710c496eee68",
    ("leduc21-0", "pruned"):
        "d829b04705817ef051dcea13a933eb38686f96e691e5e8aa1882166615145853",
    ("leduc21-0", "folded"):
        "501967d6acc662cfd1397ae5bd0e633d2d1379ffde1b5a97f72ea3bc4d708422",
    ("leduc21-1", "basic"):
        "d736c2928723fb6f584a6cd36460f0cb2be54c80d6c2c9977923c5441b3feee5",
    ("leduc21-1", "pruned"):
        "0d7c5ddc087af2b86131bee7c886159d09720de5c6290336cc7e43055f1ccc00",
    ("leduc21-1", "folded"):
        "f3c197b99e9102a9d029926701e6fe91df57c85d88f183bc5acbeaef0690b8e6",
    ("leduc21-2", "basic"):
        "b3b314fd59abb16a6ca5c2328324fa903d8342b3c78b633c9e86ce02b3374da1",
    ("leduc21-2", "pruned"):
        "13772b017f1d40f19f8b1a9fcd3096361d7f6e98565cef14364be88ed84b93af",
    ("leduc21-2", "folded"):
        "e8676819cd640aebc7881635672f972916637e3213815025f4c8dabcdc1e38dc",
    ("toy222f", "basic"):
        "b7e618abbbe250cbc9cdee09514b18f79b6711c26ce6ae1074239232c755e6b1",
    ("toy222f", "pruned"):
        "1aa175572785f4c2f571527db4181faa327c109aa55a4e91681cad02619b0660",
    ("toy222f", "folded"):
        "5c8c18a96318812c38d72413ec41218ca9eb303914d13f565548a67da2eb7693",
    ("toy232", "basic"):
        "dac3b1a9e9b528bdcb55c7018e7e23489e58a79291a06c2a29af39cf40bfd7b6",
    ("toy232", "pruned"):
        "2bf5b22a145f4927c2ead3616b21f9563ed9ec19ccf714cc3f7f9958c6ec0d57",
    ("toy232", "folded"):
        "5e2c7953f8d2d847abd5344cb4a61b03243de3ca5890b806f431d546d48c4c54",
    ("toy322bp", "basic"):
        "14593c868128c52387bb30d31f239e369300558a814bcda1e5ab7e54f3735ac0",
    ("toy322bp", "pruned"):
        "6caf80113afee7075f12645ea3d3659eeb857d643ea698d92ac2a7084fc6d374",
    ("toy322bp", "folded"):
        "1f7bfdfca0f3c4055267af6fb62aea6d4f8e88d4360dded8effba89c4f87e902",
}


def _raw_pin(cg):
    """sha256 over the tree's raw id columns and the order of its tables."""
    t = cg.tree
    h = hashlib.sha256()
    for column in (t.player, t.utility, t.end, t.label, t.child, t.prob,
                   t.seen):
        h.update(np.asarray(column, "<i8").tobytes())
    h.update(repr((t.roles, t.labels, t.probs, t.utilities)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(_PIN_GAMES))
def test_converted_columns_and_tables_match_pinned_digests(name):
    g = _PIN_GAMES[name]()
    for mode in _pinned_modes(name):
        assert _raw_pin(CONVERTERS[mode](g)) == _RAW_PINNED[name, mode], (
            name, mode)


def _assert_walk_matches_reference(tree, c=None):
    """``tree.walk()`` numbers every sequence as the dict-based reference
    does; so do the perfect-recall partitions of the compiled form ``c``."""
    walk = tree.walk()
    seq, index = reference_sequences(tree)
    for bit, name in ((COORD_SEEN, "coord"), (OPP_SEEN, "o")):
        table = reference_keys(tree, index[bit])
        assert np.array_equal(walk.seq[bit], seq[bit]), bit
        assert walk.steps[bit].tolist() == list(index[bit]), bit
        reached = seq[bit][seq[bit] >= 0].tolist()
        assert walk.keys(bit)(reached) == [table[s] for s in reached], bit
        # a few ids, repeated and out of order, build only their prefixes
        some = random.Random(bit).choices(reached, k=min(len(reached), 40))
        assert walk.keys(bit)(some) == [table[s] for s in some], bit
        side = None if c is None else c.sides.get(name)
        if side is not None:
            first = seq[bit][side.pr.nodes[side.pr.first]].tolist()
            assert side.pr.keys == [table[s] for s in first], bit


@pytest.mark.parametrize("name", sorted(_PIN_GAMES))
def test_walk_numbers_sequences_as_the_reference_on_pinned_games(name):
    g = _PIN_GAMES[name]()
    for mode in _pinned_modes(name):
        cg = CONVERTERS[mode](g)
        _assert_walk_matches_reference(cg.tree, compile_converted(cg))


@pytest.mark.parametrize("chance_outcomes", [2, 3])
def test_walk_numbers_sequences_as_the_reference_on_mini_games(
        chance_outcomes):
    for seed, convert in itertools.product(range(60), CONVERTERS.values()):
        cg = convert(mini_team_game(seed, chance_outcomes))
        _assert_walk_matches_reference(cg.tree, compile_converted(cg))


def test_walk_keeps_the_id_of_a_code_met_at_an_earlier_depth():
    # behind the opponent's hidden "z", node 9 shows the coordinator at
    # depth 2 the "c" and "d" it saw after its empty sequence at depth 1
    # (node 8), and node 7 extends "d" by the "f" node 6 showed at depth 2;
    # ids: "c" 1, "d" 2, "e" 3, then "b" 4 and "d", "f" 5 (codes ascending)
    half, third = Fraction(1, 2), Fraction(1, 3)
    both = frozenset({COORDINATOR, OPPONENT})
    coord, opp = frozenset({COORDINATOR}), frozenset({OPPONENT})
    nodes = [Node(utility=u) for u in range(6)] + [
        Node(CHANCE, (Edge("f", 0, Fraction(1), coord),)),
        Node(CHANCE, (Edge("f", 1, Fraction(1), coord),)),
        Node(CHANCE, (Edge("c", 2, half, coord), Edge("d", 6, half, both))),
        Node(CHANCE, (Edge("b", 3, third, both), Edge("c", 4, third, coord),
                      Edge("d", 7, third, coord))),
        Node(OPPONENT, (Edge("z", 9, seen_by=opp), Edge("e", 5,
                                                          seen_by=both))),
        Node(CHANCE, (Edge("x", 8, half), Edge("y", 10, half)))]
    tree = ConvertedTree.from_game(
        VEFG("recurring", (COORDINATOR, OPPONENT), tuple(nodes), 11))
    seq = tree.walk().seq[COORD_SEEN]
    assert seq[:8].tolist() == [5, 5, 1, 4, 1, 3, 2, 2]
    _assert_walk_matches_reference(tree)


@pytest.mark.parametrize("name", sorted(_PIN_GAMES))
def test_converted_subtrees_are_contiguous_id_ranges(name):
    # the builder copies a repeated sub-game as one id range, which is exact
    # only if every subtree is the post-order range [nid - size + 1, nid]
    g = _PIN_GAMES[name]()
    for mode in _pinned_modes(name):
        cg = CONVERTERS[mode](g)
        nodes = cg.game.nodes
        order, stack = [], [cg.game.root]
        while stack:
            nid = stack.pop()
            order.append(nid)
            stack.extend(e.child for e in nodes[nid].edges)
        assert len(order) == len(nodes), (name, mode)
        size = [1] * len(nodes)
        lo = list(range(len(nodes)))
        hi = list(range(len(nodes)))
        for nid in reversed(order):
            for e in nodes[nid].edges:
                size[nid] += size[e.child]
                lo[nid] = min(lo[nid], lo[e.child])
                hi[nid] = max(hi[nid], hi[e.child])
            assert (lo[nid], hi[nid]) == (nid - size[nid] + 1, nid), (
                name, mode, nid)
