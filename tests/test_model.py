"""Game representation: validation, visibility, infosets, turn-taking."""
from __future__ import annotations

import copy
import dataclasses
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pubcoord.errors import (
    ActionMismatchWithinInfoset,
    CyclicStructure,
    ImperfectRecallInput,
    ProbabilityNotNormalized,
    UnknownPlayer,
)
from pubcoord.io_json import game_from_dict, game_to_dict
from pubcoord.model import (
    CHANCE,
    Edge,
    Node,
    PlayerRole,
    VEFG,
    check_perfect_recall,
    derive_visibility_class,
    infosets,
    is_public_turn_taking,
    make_public_turn_taking,
    parse_role,
    public_states,
    seen_sequences,
    team_member,
    team_perfect_recall_refinement,
    validate_game,
    validate_perfect_recall,
)

from conftest import (
    ALL,
    O,
    T0,
    T1,
    mini_team_game,
    own_sequence_collision_game,
    with_root_probs,
)


def test_parse_role_roundtrip():
    for name in ("t0", "t1", "t7", "o", "c", "coord"):
        assert parse_role(name).name == name
    with pytest.raises(UnknownPlayer):
        parse_role("bogus")


def test_player_roles_are_interned(mini):
    t0 = PlayerRole("team", 0)
    assert team_member(0) is t0
    assert parse_role("t0") is t0
    assert pickle.loads(pickle.dumps(t0)) is t0
    assert copy.deepcopy(t0) is t0
    back = game_from_dict(json.loads(json.dumps(game_to_dict(mini))))
    assert all(p is q for p, q in zip(back.players, mini.players))
    assert back.nodes[mini.root].edges[0].seen_by == frozenset((t0,))
    # equality and hashing are by identity, and the instance stays frozen
    assert PlayerRole.__eq__ is object.__eq__
    assert PlayerRole.__hash__ is object.__hash__
    assert team_member(1) is not t0
    with pytest.raises(dataclasses.FrozenInstanceError):
        t0.index = 1
    with pytest.raises(UnknownPlayer):
        PlayerRole("captain")


def test_validate_rejects_cycles():
    n0 = Node(player=T0, edges=(Edge("a", 0, seen_by=frozenset(ALL)),))
    with pytest.raises(CyclicStructure):
        validate_game(VEFG("cyc", ALL, (n0,), 0))


def test_validate_rejects_unnormalized_chance():
    term = Node(utility=0)
    root = Node(player=CHANCE, edges=(
        Edge("x", 0, Fraction(1, 2), frozenset(ALL)),
        Edge("y", 0, Fraction(1, 2), frozenset(ALL))))
    with pytest.raises(CyclicStructure):
        # duplicate child => multiple parents
        validate_game(VEFG("bad", ALL, (term, root), 1))
    root = Node(player=CHANCE, edges=(
        Edge("x", 0, Fraction(1, 3), frozenset(ALL)),
        Edge("y", 2, Fraction(1, 3), frozenset(ALL))))
    with pytest.raises(ProbabilityNotNormalized):
        validate_game(VEFG("bad", ALL, (term, root, Node(utility=0)), 1))


def test_validate_rejects_chance_probabilities_outside_0_1():
    g = with_root_probs(mini_team_game(1), (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ProbabilityNotNormalized, match=r"outside \[0, 1\]"):
        validate_game(g)


def test_validate_rejects_duplicate_labels():
    term0, term1 = Node(utility=0), Node(utility=0)
    root = Node(player=T0, edges=(
        Edge("a", 0, seen_by=frozenset(ALL)),
        Edge("a", 1, seen_by=frozenset(ALL))))
    with pytest.raises(ActionMismatchWithinInfoset):
        validate_game(VEFG("dup", ALL, (term0, term1, root), 2))


def test_validate_rejects_unlisted_player():
    term = Node(utility=0)
    root = Node(player=team_member(5), edges=(
        Edge("a", 0, seen_by=frozenset(ALL)),))
    with pytest.raises(UnknownPlayer):
        validate_game(VEFG("ghost", ALL, (term, root), 1))


@pytest.mark.parametrize("child,root", [(-1, 1), (2 ** 40, 1), (0, 2),
                                        (0, -1)])
def test_validate_rejects_ids_out_of_range(child, root):
    # rejected before the ids reach the int columns of the checker
    term = Node(utility=0)
    top = Node(player=T0, edges=(Edge("a", child, seen_by=frozenset(ALL)),))
    with pytest.raises(CyclicStructure, match="out of range"):
        validate_game(VEFG("range", ALL, (term, top), root))


def test_validate_rejects_nan_probability():
    g = with_root_probs(mini_team_game(1), (float("nan"), 0.5))
    with pytest.raises(ProbabilityNotNormalized):
        validate_game(g)


def test_validate_rejects_a_terminal_with_edges():
    leaf = Node(utility=0)
    terminal = Node(edges=(Edge("a", 0, seen_by=frozenset(ALL)),))
    root = Node(player=T0, edges=(Edge("b", 1, seen_by=frozenset(ALL)),))
    with pytest.raises(CyclicStructure, match="terminal with edges"):
        validate_game(VEFG("leafy", ALL, (leaf, terminal, root), 2))


def test_validate_accepts_more_roles_than_a_byte_holds():
    # a chain in which each of 130 team members acts once
    players = tuple(team_member(i) for i in range(130)) + (O,)
    nodes, nxt = [Node(utility=0)], 0
    for i in reversed(range(130)):
        nodes.append(Node(utility=i))
        nodes.append(Node(player=team_member(i), edges=(
            Edge("a", nxt, seen_by=frozenset(players)),
            Edge("b", len(nodes) - 1, seen_by=frozenset(players)))))
        nxt = len(nodes) - 1
    validate_game(VEFG("chain", players, tuple(nodes), nxt))


def test_visibility_classes():
    e = Edge("a", 0, seen_by=frozenset({T0, T1}))
    assert derive_visibility_class(e, [T0, T1]) == "pub"
    assert derive_visibility_class(e, [T0, O]) == "priv"
    assert derive_visibility_class(e, [O]) == "hidden"
    with pytest.raises(UnknownPlayer):
        derive_visibility_class(e, [])
    with pytest.raises(UnknownPlayer):
        derive_visibility_class(e, [CHANCE])


def test_infosets_partition_decision_nodes(mini):
    for p in ALL:
        groups = infosets(mini, p)
        members = sorted(n for ms in groups.values() for n in ms)
        expected = sorted(nid for nid, node in enumerate(mini.nodes)
                          if node.player == p)
        assert members == expected
        flat = [n for ms in groups.values() for n in ms]
        assert len(flat) == len(set(flat))


def test_opponent_pools_private_deal(mini):
    # the deal is seen only by t0, so o cannot distinguish the two branches
    groups = infosets(mini, O)
    assert all(len(ms) == 2 for ms in groups.values())
    groups0 = infosets(mini, T0)
    assert all(len(ms) == 1 for ms in groups0.values())


def test_public_states_cover_all_nodes(mini):
    groups = public_states(mini, ALL)
    members = sorted(n for ms in groups.values() for n in ms)
    assert members == list(range(len(mini.nodes)))


def test_public_states_of_the_team(mini):
    # the deal is hidden from t1, so the team shares only the public moves;
    # ids: t1 node of (deal, a, b) at 12 * deal + 6 * a + 3 * b + 2 with
    # its U / D terminals just before, o nodes 24-27, t0 nodes 28-29, root 30
    want = {(): [28, 29, 30], ("L",): [24, 26], ("R",): [25, 27]}
    for i, (a, b) in enumerate(("Ll", "Lr", "Rl", "Rr")):
        t1 = [3 * i + 2, 3 * i + 14]
        want[a, b] = t1
        want[a, b, "U"] = [n - 2 for n in t1]
        want[a, b, "D"] = [n - 1 for n in t1]
    assert public_states(mini, {T0, T1}) == want


def test_seen_sequences_prefix_monotone(mini):
    seqs = seen_sequences(mini, T0)
    for nid, node in enumerate(mini.nodes):
        for e in node.edges:
            child_seq = seqs[e.child]
            assert child_seq[:len(seqs[nid])] == seqs[nid]
            assert len(child_seq) - len(seqs[nid]) in (0, 1)


def test_perfect_recall_detects_blind_player():
    term0, term1 = Node(utility=0), Node(utility=0)
    # t0 acts but does not see its own action
    root = Node(player=T0, edges=(
        Edge("a", 0, seen_by=frozenset({T1, O})),
        Edge("b", 1, seen_by=frozenset({T1, O}))))
    g = VEFG("blind", ALL, (term0, term1, root), 2)
    validate_game(g)
    assert (T0, 2) in validate_perfect_recall(g)
    with pytest.raises(ImperfectRecallInput, match=r"blind move at \(t0, 2\)"):
        check_perfect_recall(g)


def test_perfect_recall_detects_own_sequence_collision():
    # nodes 7 and 8 share t0's key ('x', 'y') and actions, but follow t0's
    # "y" at ('x',) and its "x" at (); only the listed players are checked
    g = own_sequence_collision_game()
    assert validate_perfect_recall(g) == [(T0, 8)]
    assert validate_perfect_recall(g, [T0]) == [(T0, 8)]
    assert validate_perfect_recall(g, [T1, O]) == []
    with pytest.raises(ImperfectRecallInput, match=(
            r"violated: own-sequence collision at \(t0, 8\) \(total 1\)$")):
        check_perfect_recall(g)


def test_team_refinement_makes_team_actions_mutually_seen(mini):
    # strip t1's view of t0's actions, then refine it back
    stripped = []
    for node in mini.nodes:
        if node.player == T0:
            from dataclasses import replace
            node = replace(node, edges=tuple(
                replace(e, seen_by=e.seen_by - {T1}) for e in node.edges))
        stripped.append(node)
    g = VEFG(mini.name, mini.players, tuple(stripped), mini.root)
    refined = team_perfect_recall_refinement(g)
    for node in refined.nodes:
        if node.player == T0:
            assert all({T0, T1} <= e.seen_by for e in node.edges)
    # the nodes other than t0's, which need no refinement, are kept
    assert [a is b for a, b in zip(refined.nodes, g.nodes)] == [
        n.player != T0 for n in g.nodes]
    assert refined == mini
    # a game with nothing to refine is returned itself
    assert team_perfect_recall_refinement(mini) is mini


def test_mini_is_public_turn_taking(mini, kuhn0):
    assert is_public_turn_taking(mini)
    assert is_public_turn_taking(kuhn0)


def _non_turn_taking_game():
    """o's first action is hidden from t0, and the acting order differs
    between the two branches of t0's first infoset."""
    nodes = []

    def add(n):
        nodes.append(n)
        return len(nodes) - 1

    tA = add(Node(utility=Fraction(1)))
    tB = add(Node(utility=Fraction(-1)))
    tC = add(Node(utility=Fraction(2)))
    tD = add(Node(utility=Fraction(0)))
    # branch x: t0 acts immediately
    t0x = add(Node(player=T0, edges=(
        Edge("l", tA, seen_by=frozenset(ALL)),
        Edge("r", tB, seen_by=frozenset(ALL)))))
    # branch y: o acts (hidden), then t0 acts in what it thinks is the same
    # information state
    t0y = add(Node(player=T0, edges=(
        Edge("l", tC, seen_by=frozenset(ALL)),
        Edge("r", tD, seen_by=frozenset(ALL)))))
    oy = add(Node(player=O, edges=(
        Edge("h", t0y, seen_by=frozenset({O})),)))
    root = add(Node(player=CHANCE, edges=(
        Edge("x", t0x, Fraction(1, 2), frozenset({O})),
        Edge("y", oy, Fraction(1, 2), frozenset({O})))))
    g = VEFG("ntt", ALL, tuple(nodes), root)
    validate_game(g)
    return g


def test_turn_taking_transform_fixes_and_bounds():
    g = _non_turn_taking_game()
    assert not is_public_turn_taking(g)
    fixed = make_public_turn_taking(g)
    validate_game(fixed)
    assert is_public_turn_taking(fixed)
    # one inserted single-noop level per player-cycle slot, at most
    assert len(fixed.nodes) <= (len(g.players) + 1) * len(g.nodes) ** 2


def test_turn_taking_transform_preserves_payoffs():
    from pubcoord.convert import exact_expected_value
    import random
    g = _non_turn_taking_game()
    fixed = make_public_turn_taking(g)
    rng = random.Random(0)
    for _ in range(100):
        # one shared pure policy: pick by (player, seen sequence)
        decisions = {}
        for game in (g, fixed):
            seqs = {p: seen_sequences(game, p) for p in game.players}

            def choice(nid, game=game, seqs=seqs):
                node = game.nodes[nid]
                if len(node.edges) == 1:
                    return 0
                seq = tuple(l for l in seqs[node.player][nid] if l != "noop")
                key = (node.player, seq,
                       tuple(e.label for e in node.edges))
                if key not in decisions:
                    decisions[key] = rng.randrange(len(node.edges))
                return decisions[key]

            if game is g:
                v0 = exact_expected_value(game, choice)
            else:
                v1 = exact_expected_value(game, choice)
        assert v0 == v1


def test_turn_taking_transform_identity_when_already_ok(mini):
    assert make_public_turn_taking(mini) is mini


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), c=st.integers(2, 3))
def test_infosets_partition_property(seed, c):
    g = mini_team_game(seed, c)
    for p in ALL:
        groups = infosets(g, p)
        members = sorted(n for ms in groups.values() for n in ms)
        assert members == sorted(nid for nid, node in enumerate(g.nodes)
                                 if node.player == p)


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_paused_restores_the_previous_state(enabled):
    import gc
    from pubcoord.model import gc_paused
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
        with pytest.raises(KeyError):
            with gc_paused():
                raise KeyError("the pass failed")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
