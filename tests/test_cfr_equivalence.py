"""The compiled array engine against the recursive reference engine.

Average profiles must be bit-identical after the same iterations, so any
change in the order of floating-point operations shows.  Expected values,
best responses and exploitability must agree to 1e-12 with the same
choices.
"""
from __future__ import annotations

import numpy as np
import pytest

from pubcoord import (
    PokerSpec,
    ToySpec,
    apply_safe_imperfect_recall,
    convert_folded,
    convert_pruned,
    gen_kuhn3,
    gen_toy,
)
from pubcoord import solvers

import reference_cfr as ref
from conftest import mini_team_game


def _kuhn(pos):
    return apply_safe_imperfect_recall(convert_folded(
        gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=pos))))


@pytest.fixture(scope="module")
def kuhn1():
    return _kuhn(1)


@pytest.mark.parametrize("algo", ["cfr", "cfr+", "lcfr+"])
def test_profiles_identical_on_kuhn3_pos1(kuhn1, algo):
    want, rows = ref.solve_cfr(kuhn1, algo, 60, log_every=20)
    got, log = solvers.solve_cfr(kuhn1, algo, 60, log_every=20)
    assert got == want
    assert [it for it, _, _ in log.rows] == [it for it, _, _ in rows]
    for (_, v, e), (_, rv, re_) in zip(log.rows, rows):
        assert abs(v - rv) <= 1e-12 and abs(e - re_) <= 1e-12


@pytest.mark.parametrize("name,make,iters", [
    ("kuhn3 pos 0", lambda: _kuhn(0), 30),
    ("kuhn3 pos 2", lambda: _kuhn(2), 30),
    ("mini folded + safe IR",
     lambda: apply_safe_imperfect_recall(convert_folded(mini_team_game(3))),
     200),
    ("toy pruned", lambda: convert_pruned(
        gen_toy(ToySpec(2, 3, 2, payoff_seed=12, both_private=True))), 100),
])
def test_lcfr_plus_profiles_identical(name, make, iters):
    cg = make()
    assert solvers.solve_cfr(cg, "lcfr+", iters)[0] == \
        ref.solve_cfr(cg, "lcfr+", iters)[0]


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
])
def test_evaluation_matches_reference(name, make):
    cg = make()
    c, rc = solvers.compile_converted(cg), ref.compile_reference(cg)
    for profile in (_uniform(c), solvers.solve_cfr(cg, "cfr+", 10)[0]):
        assert solvers.expected_value(cg, profile, compiled=c) == \
            pytest.approx(ref.expected_value(rc, profile), abs=1e-12)
        for responder in c.sides:
            value, choice = solvers.best_response(cg, profile, responder,
                                                  compiled=c)
            want, want_choice = ref.best_response(rc, profile, responder)
            assert value == pytest.approx(want, abs=1e-12)
            assert choice == want_choice
        assert solvers.exploitability(cg, profile, compiled=c) == \
            pytest.approx(ref.exploitability(rc, profile), abs=1e-12)


def test_vectorised_regret_matching_is_bit_identical():
    rng = np.random.default_rng(0)
    for width in (1, 2, 3, 7, 8, 9, 16, 27, 129, 300):
        rows = rng.standard_normal((5, width)) * 10.0 ** rng.uniform(
            -6, 3, (5, width))
        rows[0] = -1.0  # no positive regret: uniform
        got = solvers._normalize_rows(np.maximum(rows, 0.0))
        for row, out in zip(rows, got):
            assert out.tolist() == ref._regret_match(row).tolist()
