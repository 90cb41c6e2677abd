"""The compiled array engine against the recursive reference engine.

One CFR iteration from the same state must change regrets and strategy
sums alike to 1e-12 relative: the engines add the same terms in different
orders.  Whole runs must give average profiles within ``WHOLE_RUN_TOL``.
Expected values, best responses and exploitability must agree to 1e-12
with the same choices.
"""
from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from pubcoord import (
    PokerSpec,
    ToySpec,
    apply_safe_imperfect_recall,
    convert_folded,
    convert_pruned,
    gen_kuhn3,
    gen_leduc3,
    gen_toy,
)
from pubcoord import solvers
from pubcoord.convert import ConvertedTree
from pubcoord.model import CHANCE, COORDINATOR, OPPONENT, Edge, Node, VEFG, \
    validate_game

import reference_cfr as ref
from conftest import mini_team_game


def _kuhn(pos):
    return apply_safe_imperfect_recall(convert_folded(
        gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=pos))))


@pytest.fixture(scope="module")
def kuhn1():
    return _kuhn(1)


# A whole run compounds rounding differences through regret matching;
# after at most 200 iterations of these games they stay below 1e-11
WHOLE_RUN_TOL = 1e-9


def _max_profile_diff(got, want) -> float:
    assert got.keys() == want.keys()
    diff = 0.0
    for side, table in want.items():
        assert got[side].keys() == table.keys()
        for key, dist in table.items():
            assert got[side][key].keys() == dist.keys()
            diff = max(diff, max(abs(got[side][key][a] - p)
                                 for a, p in dist.items()))
    return diff


@pytest.mark.parametrize("algo", ["cfr", "cfr+", "lcfr+"])
def test_profiles_identical_on_kuhn3_pos1(kuhn1, algo):
    want, rows = ref.solve_cfr(kuhn1, algo, 60, log_every=20)
    got, log = solvers.solve_cfr(kuhn1, algo, 60, log_every=20)
    assert _max_profile_diff(got, want) <= WHOLE_RUN_TOL
    assert [it for it, _, _ in log.rows] == [it for it, _, _ in rows]
    for (_, v, e), (_, rv, re_) in zip(log.rows, rows):
        assert abs(v - rv) <= WHOLE_RUN_TOL and abs(e - re_) <= WHOLE_RUN_TOL


_GAMES = [
    ("kuhn3 pos 0", lambda: _kuhn(0), 30),
    ("kuhn3 pos 1", lambda: _kuhn(1), 60),
    ("kuhn3 pos 2", lambda: _kuhn(2), 30),
    ("mini folded + safe IR",
     lambda: apply_safe_imperfect_recall(convert_folded(mini_team_game(3))),
     200),
    ("toy pruned", lambda: convert_pruned(
        gen_toy(ToySpec(2, 3, 2, payoff_seed=12, both_private=True))), 100),
]


# Kuhn-3 position 1 runs all three algorithms above
@pytest.mark.parametrize("name,make,iters",
                         [g for g in _GAMES if g[0] != "kuhn3 pos 1"])
def test_lcfr_plus_profiles_identical(name, make, iters):
    cg = make()
    assert _max_profile_diff(solvers.solve_cfr(cg, "lcfr+", iters)[0],
                             ref.solve_cfr(cg, "lcfr+", iters)[0]) \
        <= WHOLE_RUN_TOL


def _tables(part, flat) -> dict:
    """A side's per-slot array as the reference's per-infoset arrays."""
    return {key: flat[o:o + len(acts)].copy() for key, acts, o
            in zip(part.keys, part.actions, part.offset.tolist())}


def _increment_error(part, before, after, ref_after) -> float:
    """The largest difference between the two engines' increments to one
    side's array, relative to the largest reference increment."""
    got = after - before
    want = np.concatenate([ref_after[key] for key in part.keys]) - before
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("algo", ["cfr", "cfr+", "lcfr+"])
@pytest.mark.parametrize("name,make,iters", _GAMES)
def test_one_iteration_matches_reference(name, make, iters, algo):
    """From the same random regrets and strategy sums, one iteration (a
    traversal per side with the regret-matched strategies) changes both
    sides' regrets and strategy sums alike in both engines, to 1e-12
    relative."""
    cg = make()
    c, rc = solvers.compile_converted(cg), ref.compile_reference(cg)
    names = ref.sides_of(rc)
    assert list(c.sides) == names
    parts = [c.sides[s].profile for s in names]
    assert [set(p.keys) for p in parts] == [set(rc.iset_actions[s])
                                            for s in names]
    rng = np.random.default_rng(iters)
    # signed regrets: regret matching gives mixed, pure and uniform rows
    regrets = [rng.standard_normal(p.offset[-1]) for p in parts]
    strat = [rng.uniform(0.0, 1.0, p.offset[-1]) for p in parts]
    ref_regrets = {s: _tables(p, x) for s, p, x in zip(names, parts, regrets)}
    ref_strat = {s: _tables(p, x) for s, p, x in zip(names, parts, strat)}
    before = [x.copy() for x in regrets], [x.copy() for x in strat]
    t = int(rng.integers(1, 50))
    solvers._iterate(c, [solvers._traversal(c, s) for s in names], algo, t,
                     regrets, strat)
    ref.iterate(rc, algo, t, ref_regrets, ref_strat)
    for k, (s, part) in enumerate(zip(names, parts)):
        assert _increment_error(part, before[0][k], regrets[k],
                                ref_regrets[s]) <= 1e-12
        assert _increment_error(part, before[1][k], strat[k],
                                ref_strat[s]) <= 1e-12


@pytest.mark.parametrize("name,make,iters", [
    ("leduc 2x1 pos 0 folded + safe IR",
     lambda: apply_safe_imperfect_recall(convert_folded(gen_leduc3(
         PokerSpec("leduc", 2, 1, adversary_position=0)))), 7)])
def test_one_iteration_matches_reference_on_a_deeper_treeplex(name, make,
                                                               iters):
    """Leduc's treeplexes have 6 and 4 levels, Kuhn-3's at most 4."""
    cg = make()
    forms = [side.form for side in solvers.compile_converted(cg).sides.values()]
    assert [len(f.cut) - 1 for f in forms] == [6, 4]
    test_one_iteration_matches_reference(name, lambda: cg, iters, "lcfr+")


def _zero_chance_game():
    """Chance plays "a" with probability 1 and "b" with probability 0; only
    "b" leads to the coordinator's infoset ("b",)."""
    seen_c, seen_o = frozenset({COORDINATOR}), frozenset({OPPONENT})
    terms = [Node(utility=Fraction(u)) for u in (1, -1, -2, 2, 3, -3)]
    o_at = [Node(player=OPPONENT, edges=(Edge("h", k, seen_by=seen_o),
                                         Edge("t", k + 1, seen_by=seen_o)))
            for k in (0, 2)]
    at_a = Node(player=COORDINATOR, edges=(Edge("x", 6, seen_by=seen_c),
                                           Edge("y", 7, seen_by=seen_c)))
    at_b = Node(player=COORDINATOR, edges=(Edge("l", 4, seen_by=seen_c),
                                           Edge("r", 5, seen_by=seen_c)))
    root = Node(player=CHANCE, edges=(Edge("a", 8, Fraction(1), seen_c),
                                      Edge("b", 9, Fraction(0), seen_c)))
    g = VEFG("zero-chance", (COORDINATOR, OPPONENT),
             (*terms, *o_at, at_a, at_b, root), 10)
    validate_game(g)
    return replace(convert_folded(mini_team_game(1)),
                   tree=ConvertedTree.from_game(g))


def test_zero_probability_chance_edge_adds_nothing():
    cg = _zero_chance_game()
    c, rc = solvers.compile_converted(cg), ref.compile_reference(cg)
    part = c.sides["coord"].profile
    assert part.keys == [("a",), ("b",)]
    rng = np.random.default_rng(0)
    sigma = {s: rng.dirichlet([1.0, 1.0], len(c.sides[s].profile.keys))
             for s in c.sides}
    regrets, strat = np.zeros(4), np.zeros(4)
    solvers._traversal(c, "coord")(regrets, strat, sigma["o"].ravel(),
                                   sigma["coord"].ravel())
    ref_regrets, ref_strat = ref.zero_tables(rc), ref.zero_tables(rc)
    frozen = {s: dict(zip(c.sides[s].profile.keys, sigma[s]))
              for s in c.sides}
    ref.traverse(rc, "coord", frozen, ref_regrets, ref_strat)
    # infoset ("b",) lies below the zero-probability edge only
    assert regrets[2:].tolist() == strat[2:].tolist() == [0.0, 0.0]
    assert ref_regrets["coord"][("b",)].tolist() == [0.0, 0.0]
    assert ref_strat["coord"][("b",)].tolist() == [0.0, 0.0]
    assert np.all(strat[:2] > 0)
    assert np.allclose(regrets[:2], ref_regrets["coord"][("a",)],
                       rtol=1e-12, atol=0)
    assert np.allclose(strat[:2], ref_strat["coord"][("a",)],
                       rtol=1e-12, atol=0)


def _leduc(pos):
    return apply_safe_imperfect_recall(convert_folded(gen_leduc3(
        PokerSpec("leduc", 2, 1, adversary_position=pos))))


def _uniform(c):
    return {side: {key: {a: 1 / len(acts) for a in acts}
                   for key, acts in table.items()}
            for side, table in c.iset_actions.items()}


@pytest.mark.parametrize("name,make", [
    ("kuhn3 pos 0 folded", lambda: convert_folded(
        gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=0)))),
    ("kuhn3 pos 2 folded + safe IR", lambda: _kuhn(2)),
    ("toy pruned + safe IR, no opponent", lambda: apply_safe_imperfect_recall(
        convert_pruned(gen_toy(ToySpec(2, 3, 2, payoff_seed=12))))),
    ("leduc 2x1 pos 0 folded + safe IR", lambda: _leduc(0)),
    # 2,720 coordinator infosets, where 1-ulp ties among choices occur
    ("leduc 2x1 pos 2 folded + safe IR", lambda: _leduc(2)),
    # the coordinator's infoset ("b",) lies below a zero-probability
    # chance edge only: every action is worth 0, and the first is chosen
    ("zero-probability chance edge", _zero_chance_game),
])
def test_evaluation_matches_reference(name, make):
    cg = make()
    c, rc = solvers.compile_converted(cg), ref.compile_reference(cg)
    for profile in (_uniform(c), solvers.solve_cfr(cg, "cfr+", 10)[0]):
        assert solvers.expected_value(cg, profile) == \
            pytest.approx(ref.expected_value(rc, profile), abs=1e-12)
        for responder in c.sides:
            value, choice = solvers.best_response(cg, profile, responder)
            want, want_choice = ref.best_response(rc, profile, responder)
            assert value == pytest.approx(want, abs=1e-12)
            assert choice == want_choice
        assert solvers.exploitability(cg, profile) == \
            pytest.approx(ref.exploitability(rc, profile), abs=1e-12)


@pytest.mark.parametrize("name,make", [
    ("kuhn3 pos 0 folded", lambda: convert_folded(
        gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=0)))),
    ("mini folded", lambda: convert_folded(mini_team_game(3))),
    ("toy pruned", lambda: convert_pruned(
        gen_toy(ToySpec(2, 3, 2, payoff_seed=12, both_private=True)))),
])
def test_best_response_is_worth_its_value(name, make):
    """Without a reference: the returned pure strategy, played against the
    fixed side, earns the best-response value.  Without safe IR the
    perfect-recall keys are the profile keys, so the choices are a
    profile."""
    cg = make()
    c = solvers.compile_converted(cg)
    for profile in (_uniform(c), solvers.solve_cfr(cg, "cfr+", 10)[0]):
        for responder in c.sides:
            value, choice = solvers.best_response(cg, profile, responder)
            pure = {key: {a: float(a == choice[key]) for a in acts}
                    for key, acts in c.iset_actions[responder].items()}
            ev = solvers.expected_value(cg, {**profile, responder: pure})
            assert (ev if responder == "coord" else -ev) == \
                pytest.approx(value, abs=1e-9)


def test_vectorised_regret_matching_is_bit_identical():
    rng = np.random.default_rng(0)
    for width in (1, 2, 3, 7, 8, 9, 16, 27, 129, 300):
        rows = rng.standard_normal((5, width)) * 10.0 ** rng.uniform(
            -6, 3, (5, width))
        rows[0] = -1.0  # no positive regret: uniform
        got = solvers._normalize_rows(np.maximum(rows, 0.0))
        for row, out in zip(rows, got):
            assert out.tolist() == ref._regret_match(row).tolist()
