"""The CLI's exit codes come from the kinds of library errors, and its
summaries from the library's values."""
from __future__ import annotations

import inspect
import json
from pathlib import Path

import pytest

from pubcoord import convert, errors, infosets, io_json
from pubcoord.cli import exit_code, main
from pubcoord.solvers import exploitability, expected_value, solve_cfr

from conftest import own_sequence_collision_game

MINI_CONVERTED = Path(__file__).parent / "data" / "mini_s1_folded_safe_ir.json"

GAME_ERRORS = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if issubclass(c, errors.GameError)]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.mark.parametrize("kind", GAME_ERRORS, ids=lambda c: c.__name__)
def test_every_error_kind_has_a_documented_exit_code(kind):
    code = exit_code(kind)
    assert code in (2, 4, 5, 6)
    if issubclass(kind, errors.InvalidParameter):
        assert code == 2


def test_exit_code_table():
    assert [exit_code(k) for k in (
        errors.SpecOutOfBounds, errors.InvalidIterationCount,
        errors.ExclusionDataMissing, errors.GameTooLarge, MemoryError,
        errors.OriginMismatch, errors.SchemaError,
        errors.ImperfectRecallInput)] == [2, 2, 2, 5, 5, 6, 4, 4]


def test_own_sequence_collision_exits_4(tmp_path, capsys, monkeypatch):
    g, c = tmp_path / "g.json", tmp_path / "c.json"
    io_json.save_game(own_sequence_collision_game(), str(g))
    code, _, err = run(capsys, "convert", g, "--mode", "folded", "--out", c)
    assert code == 4 and "perfect recall violated" in err
    assert not c.exists()
    # a converted file made without the own-sequence clause, as one made
    # before it existed; verify rejects its source game
    with monkeypatch.context() as m:
        m.setattr(convert, "check_perfect_recall", lambda game: {
            p: infosets(game, p) for p in game.players})
        assert run(capsys, "convert", g, "--mode", "folded", "--out", c)[0] == 0
    code, _, err = run(capsys, "verify", g, c, "--samples", "5")
    assert code == 4 and "perfect recall violated" in err
    # a file converted from another game is an origin mismatch first
    code, _, err = run(capsys, "verify", g, MINI_CONVERTED)
    assert code == 6 and "digest mismatch" in err


@pytest.mark.parametrize("iterations,log_every", [(20, 0), (20, 7), (0, 5)])
def test_solve_summary_is_the_profiles_value(capsys, iterations, log_every):
    code, out, _ = run(capsys, "solve", MINI_CONVERTED, "--iterations",
                       iterations, "--log-every", log_every, "--json")
    assert code == 0
    cg = io_json.load_converted(str(MINI_CONVERTED))
    profile, log = solve_cfr(cg, "lcfr+", iterations, log_every)
    value, expl = expected_value(cg, profile), exploitability(cg, profile)
    if log.rows:  # the log's last row evaluates the returned profile
        assert log.rows[-1] == (iterations, value, expl)
    d = json.loads(out)
    assert (d["team_value"], d["exploitability"]) == (f"{value:.12g}",
                                                      f"{expl:.12g}")
