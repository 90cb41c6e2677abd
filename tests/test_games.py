"""Benchmark generators: toy, 3-player Kuhn, 3-player Leduc."""
from __future__ import annotations

from fractions import Fraction

import pytest

from pubcoord import PokerSpec, ToySpec, gen_kuhn3, gen_leduc3, gen_toy
from pubcoord.convert import game_digest
from pubcoord.errors import SpecOutOfBounds
from pubcoord.model import (
    CHANCE,
    OPPONENT,
    infosets,
    is_public_turn_taking,
    validate_game,
    validate_perfect_recall,
)
from pubcoord.solvers import count_reduced_plans


# ---------------------------------------------------------------------------
# toy
# ---------------------------------------------------------------------------


def test_toy_structure_and_size():
    g = gen_toy(ToySpec(3, 2, 2))
    validate_game(g)
    assert not validate_perfect_recall(g)
    assert is_public_turn_taking(g)
    # 1 chance + 3 private branches of (1 + 2 + 4 P1 nodes + 4 P2 nodes
    # + 8 terminals) minus bookkeeping: check exact total
    assert len(g.nodes) == 46
    # plan counts: informed player 2 actions at each of 2 levels per private
    # outcome
    assert count_reduced_plans(g, g.players[0]) == 64


def test_toy_both_private_adds_second_chance_layer():
    g1 = gen_toy(ToySpec(2, 2, 1))
    g2 = gen_toy(ToySpec(2, 2, 1, both_private=True))
    chance1 = sum(1 for n in g1.nodes if n.is_chance)
    chance2 = sum(1 for n in g2.nodes if n.is_chance)
    assert chance1 == 1 and chance2 == 3
    # P2's infosets split by its private outcome
    p2 = g2.players[1]
    assert len(infosets(g2, p2)) == 2 * len(infosets(g1, g1.players[1]))


def test_toy_payoffs_deterministic_per_seed():
    a = gen_toy(ToySpec(2, 2, 1, payoff_seed=42))
    b = gen_toy(ToySpec(2, 2, 1, payoff_seed=42))
    c = gen_toy(ToySpec(2, 2, 1, payoff_seed=43))
    utils = lambda g: [n.utility for n in g.nodes if n.is_terminal]
    assert utils(a) == utils(b)
    assert utils(a) != utils(c)


def test_toy_guards():
    with pytest.raises(SpecOutOfBounds):
        gen_toy(ToySpec(0, 2, 1))
    with pytest.raises(SpecOutOfBounds):
        gen_toy(ToySpec(2, 1, 1))
    with pytest.raises(SpecOutOfBounds):
        gen_toy(ToySpec(2, 2, 0))
    with pytest.raises(SpecOutOfBounds):
        gen_toy(ToySpec(10, 10, 10))


@pytest.mark.parametrize("make", [
    lambda: gen_toy(ToySpec(2, 2, 2.5)), lambda: gen_toy(ToySpec(2.0, 2, 1)),
    lambda: gen_toy(ToySpec(2, "2", 1)), lambda: gen_toy(ToySpec(2, 2, True)),
    lambda: gen_kuhn3(PokerSpec("kuhn", 3.0)),
    lambda: gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=1.0)),
    lambda: gen_leduc3(PokerSpec("leduc", 2, raises="1")),
    lambda: gen_leduc3(PokerSpec("leduc", True))],
    ids=["toy-depth-2.5", "toy-C-2.0", "toy-A-str", "toy-H-bool",
         "kuhn-ranks-3.0", "kuhn-position-1.0", "leduc-raises-str",
         "leduc-ranks-bool"])
def test_spec_counts_that_are_not_ints_are_rejected(make):
    with pytest.raises(SpecOutOfBounds):
        make()


# ---------------------------------------------------------------------------
# poker, common
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gen,variant", [(gen_kuhn3, "kuhn"),
                                         (gen_leduc3, "leduc")])
@pytest.mark.parametrize("pos", [0, 1, 2])
def test_poker_valid_and_turn_taking(gen, variant, pos):
    ranks = 3 if variant == "kuhn" else 2
    g = gen(PokerSpec(variant, ranks, adversary_position=pos))
    validate_game(g)
    assert not validate_perfect_recall(g)
    assert is_public_turn_taking(g)
    assert g.opponent() == OPPONENT
    assert len(g.team_players()) == 2


def test_poker_guards():
    with pytest.raises(SpecOutOfBounds):
        gen_kuhn3(PokerSpec("kuhn", 2))          # needs one card per player
    with pytest.raises(SpecOutOfBounds):
        gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=3))
    with pytest.raises(SpecOutOfBounds):
        gen_kuhn3(PokerSpec("kuhn", 60))         # 5,136,601 nodes
    with pytest.raises(SpecOutOfBounds):
        gen_leduc3(PokerSpec("leduc", 3, raises=3))
    with pytest.raises(SpecOutOfBounds):
        gen_leduc3(PokerSpec("leduc", 1))


def test_kuhn_deal_probabilities_hypergeometric():
    g = gen_kuhn3(PokerSpec("kuhn", 3))
    root = g.nodes[g.root]
    assert root.is_chance
    assert sum(e.prob for e in root.edges) == 1
    assert all(e.prob == Fraction(1, 3) for e in root.edges)


def test_kuhn_size_and_infosets():
    g = gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=0))
    assert len(g.nodes) == 160
    # 4 betting states x 3 ranks per player
    assert len(infosets(g, OPPONENT)) == 12


def test_kuhn_zero_sum_chip_conservation():
    # the team's utility is the adversary's loss: every terminal utility is
    # an integer number of chips in [-2*(1+raise), +2*(1+raise)]
    for pos in (0, 1, 2):
        g = gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=pos))
        for n in g.nodes:
            if n.is_terminal:
                u = Fraction(n.utility)
                assert u.denominator == 1
                assert -4 <= u <= 4


def test_kuhn_expected_utility_zero_under_uniform():
    # under any symmetric-in-cards pure assignment the pot is conserved:
    # total chance-weighted utility of always-check play is 0 by symmetry
    g = gen_kuhn3(PokerSpec("kuhn", 3))
    from pubcoord.convert import exact_expected_value

    def always_first(nid):
        return 0

    v = exact_expected_value(g, always_first)
    # first action is check for everyone: showdown of antes; the team holds
    # two hands, winning 2/3 of the time a pot of 3 with stake 2
    assert v == Fraction(2, 3) * 1 + Fraction(1, 3) * (-2)


def test_leduc_structure():
    g = gen_leduc3(PokerSpec("leduc", 2, raises=1))
    # board card edges are public
    board_edges = [e for n in g.nodes for e in n.edges
                   if e.label.startswith("b")]
    assert board_edges
    assert all(set(g.players) <= set(e.seen_by) for e in board_edges)


def test_leduc_pair_beats_high_card():
    # construct a deterministic small Leduc and check one known showdown:
    # pot split logic is exercised via exact rational utilities
    g = gen_leduc3(PokerSpec("leduc", 2, raises=1))
    utils = {Fraction(n.utility) for n in g.nodes if n.is_terminal}
    # equal split of an odd pot produces non-integer utilities
    assert any(u.denominator > 1 for u in utils)


# ---------------------------------------------------------------------------
# source digests
# ---------------------------------------------------------------------------

# game_digest of generated source games: node by node, players, utilities
# with their types, edge probabilities and observers
_SOURCE_PINNED = {
    "kuhn3-0":
        "b7f8fe3a60b5cab5880fc608c95d57e7167197c17cf81a9534e63715d00d2d33",
    "kuhn3-1":
        "ed89fe9501f708b846ed59cf8a6f70ce0104575e0460d295943a42e6cb1d7e56",
    "kuhn3-2":
        "8d9fb8d89fa326c10a63ede85bf449f1d3fcc9803949c844a8d286ec384a876c",
    "kuhn4-0":
        "a0f43a594036e9195fe7e6b847a20f7edb670c30924f649417b985bfe8ea775f",
    "leduc21-0":
        "ec8d85e82af5036549ad9dea90d64e86846e25f24c82342694a5998fd7aa4649",
    "leduc21-1":
        "e9969aae5e1a7206d482d218acd22b435431ac1d2547c28f33c6f7b21d594164",
    "leduc21-2":
        "f5c50609d697fe2b66f0642660f09e9a9429332bc3a189af1d149c5fdac4d572",
    "toy232":
        "eabe9f49125b74e5b23e40f137dce4ea500569357ae858f8ec6e6f61dd28a0e5",
}

_SOURCE_GAMES = {
    **{f"kuhn3-{pos}": (lambda pos=pos: gen_kuhn3(
        PokerSpec("kuhn", 3, adversary_position=pos))) for pos in range(3)},
    "kuhn4-0": lambda: gen_kuhn3(PokerSpec("kuhn", 4, adversary_position=0)),
    **{f"leduc21-{pos}": (lambda pos=pos: gen_leduc3(
        PokerSpec("leduc", 2, raises=1, adversary_position=pos)))
       for pos in range(3)},
    "toy232": lambda: gen_toy(ToySpec(2, 3, 2, payoff_seed=1)),
}


@pytest.mark.parametrize("name", sorted(_SOURCE_PINNED))
def test_generated_games_match_pinned_digests(name):
    assert game_digest(_SOURCE_GAMES[name]()) == _SOURCE_PINNED[name]
