"""Shared fixtures: small handcrafted games and benchmark instances."""
from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from pubcoord import PokerSpec, ToySpec, gen_kuhn3, gen_toy
from pubcoord.model import CHANCE, Edge, Node, VEFG, parse_role, validate_game

T0, T1, O = parse_role("t0"), parse_role("t1"), parse_role("o")
ALL = (T0, T1, O)


def mini_team_game(seed: int = 0, chance_outcomes: int = 2) -> VEFG:
    """Chance deals a private signal to t0; then t0, o, t1 act publicly in
    turn; seeded integer payoffs.  Small enough for every solver path."""
    rng = random.Random(seed)
    nodes: list[Node] = []

    def add(node: Node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    ids: dict = {}
    for c in range(chance_outcomes):
        for a in "LR":
            for b in "lr":
                term = {d: add(Node(utility=Fraction(rng.randint(-3, 3))))
                        for d in "UD"}
                ids[(c, a, b)] = add(Node(player=T1, edges=tuple(
                    Edge(d, term[d], None, frozenset(ALL)) for d in "UD")))
    for c in range(chance_outcomes):
        for a in "LR":
            ids[(c, a)] = add(Node(player=O, edges=tuple(
                Edge(b, ids[(c, a, b)], None, frozenset(ALL)) for b in "lr")))
    for c in range(chance_outcomes):
        ids[(c,)] = add(Node(player=T0, edges=tuple(
            Edge(a, ids[(c, a)], None, frozenset(ALL)) for a in "LR")))
    root = add(Node(player=CHANCE, edges=tuple(
        Edge(f"c{c}", ids[(c,)], Fraction(1, chance_outcomes),
             frozenset({T0})) for c in range(chance_outcomes))))
    g = VEFG(name=f"mini-s{seed}-c{chance_outcomes}", players=ALL,
             nodes=tuple(nodes), root=root)
    validate_game(g)
    return g


def with_root_probs(game: VEFG, probs) -> VEFG:
    """``game`` with the probabilities of its root chance node replaced by
    ``probs``, in edge order; not validated."""
    root = game.nodes[game.root]
    edges = tuple(dataclasses.replace(e, prob=p)
                  for e, p in zip(root.edges, probs, strict=True))
    nodes = list(game.nodes)
    nodes[game.root] = dataclasses.replace(root, edges=edges)
    return dataclasses.replace(game, nodes=tuple(nodes))


def hidden_actor_game(terminal_first: bool = True) -> VEFG:
    """Chance, seen by t0 alone, either ends the game (c0) or lets t0 act
    (c1): the team's common view cannot tell whether anyone acts next."""
    nodes = (Node(utility=Fraction(1)), Node(utility=Fraction(0)),
             Node(utility=Fraction(2)),
             Node(player=T0, edges=(Edge("a", 1, seen_by=frozenset(ALL)),
                                    Edge("b", 2, seen_by=frozenset(ALL)))))
    outcomes = (Edge("c0", 0, Fraction(1, 2), frozenset({T0})),
                Edge("c1", 3, Fraction(1, 2), frozenset({T0})))
    root = Node(player=CHANCE, edges=outcomes if terminal_first
                else outcomes[::-1])
    g = VEFG("hidden-actor", ALL, (*nodes, root), 4)
    validate_game(g)
    return g


def own_sequence_collision_game() -> VEFG:
    """Two t0 nodes with key ('x', 'y') and actions l / r, reached after
    different own sequences: chance deals "x" (seen by t0) and t0 plays
    "y", then o plays "u" unseen by t0; or chance deals "q" (seen by
    nobody), t0 plays "x" and o plays "y".  t1 never acts; every other
    move is seen by all.  The game is public turn-taking."""
    seen, pub = (lambda *p: frozenset(p)), frozenset(ALL)
    term = [Node(utility=Fraction(u)) for u in (3, -1, -2, 2, 1, 0, 1)]
    after = [Node(player=T0, edges=(Edge("l", k, seen_by=pub),
                                    Edge("r", k + 1, seen_by=pub)))
             for k in (0, 2)]                                      # 7, 8
    o_after_y = Node(player=O, edges=(Edge("u", 7, seen_by=seen(O)),))
    o_after_x = Node(player=O, edges=(Edge("y", 8, seen_by=pub),
                                      Edge("t", 4, seen_by=pub)))  # 9, 10
    dealt_x = Node(player=T0, edges=(Edge("y", 9, seen_by=pub),
                                     Edge("z", 6, seen_by=pub)))
    dealt_q = Node(player=T0, edges=(Edge("x", 10, seen_by=pub),
                                     Edge("w", 5, seen_by=pub)))  # 11, 12
    root = Node(player=CHANCE, edges=(
        Edge("x", 11, Fraction(1, 2), seen(T0)),
        Edge("q", 12, Fraction(1, 2), seen())))
    g = VEFG("own-sequence-collision", ALL, (
        *term, *after, o_after_y, o_after_x, dealt_x, dealt_q, root), 13)
    validate_game(g)
    return g


@pytest.fixture(scope="session")
def kuhn0():
    return gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=0))


@pytest.fixture(scope="session")
def toy322():
    return gen_toy(ToySpec(3, 2, 2, payoff_seed=7))


@pytest.fixture
def mini():
    return mini_team_game(0)


@pytest.fixture
def group_walks(monkeypatch):
    """The actor of every ``model._group`` walk made while the test runs,
    in call order (``None``: a walk of every reachable node)."""
    from pubcoord import model
    walks, group = [], model._group

    def counted(game, observers, actor=None, own=None):
        walks.append(actor)
        return group(game, observers, actor, own)
    monkeypatch.setattr(model, "_group", counted)
    return walks
