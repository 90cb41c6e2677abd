"""Fuzzed inputs against the CLI exit-code contract.

Valid game and converted JSON documents are mutated (keys dropped, values
replaced by other types or bad rationals, arrays truncated, text cut short)
and fed to ``convert``, ``solve`` and ``verify`` in-process.  Every run must
end in a documented exit code; no exception may escape ``main``.
"""
from __future__ import annotations

import copy
import json
import subprocess
import sys

from hypothesis import HealthCheck, given, settings, strategies as st

from pubcoord import apply_safe_imperfect_recall, convert_folded, io_json
from pubcoord.cli import main

from conftest import mini_team_game

_GAME = io_json.game_to_dict(mini_team_game(1))
_CONVERTED = io_json.converted_to_dict(
    apply_safe_imperfect_recall(convert_folded(mini_team_game(1))))

_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10 ** 6),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.sampled_from(["1/0", "abc", "1/", "x/2", "-1/3", "0/0", "t9", "coord"]),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


def _mutated(doc, data) -> str:
    """``doc`` as JSON text after one random mutation somewhere inside."""
    doc = copy.deepcopy(doc)
    parent, key = None, None
    node = doc
    for _ in range(data.draw(st.integers(1, 6), label="depth")):
        if isinstance(node, dict) and node:
            k = data.draw(st.sampled_from(sorted(node)), label="key")
        elif isinstance(node, list) and node:
            k = data.draw(st.integers(0, len(node) - 1), label="index")
        else:
            break
        parent, key, node = node, k, node[k]
    how = data.draw(st.sampled_from(["drop", "junk", "truncate", "cut"]),
                    label="mutation")
    if how == "cut":
        text = json.dumps(doc)
        return text[:data.draw(st.integers(0, len(text) - 1), label="cut")]
    if how == "drop":
        del parent[key]
    elif how == "truncate" and isinstance(node, (list, str)):
        parent[key] = node[:len(node) // 2]
    else:
        parent[key] = data.draw(_JUNK, label="junk")
    return json.dumps(doc)


_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(data=st.data())
def test_convert_fuzzed_game(tmp_path, capsys, data):
    src = tmp_path / "game.json"
    src.write_text(_mutated(_GAME, data))
    code = main(["convert", str(src), "--mode", "folded", "--safe-ir",
                 "--out", str(tmp_path / "conv.json")])
    capsys.readouterr()
    assert code in (0, 3, 4)


@_FUZZ
@given(data=st.data())
def test_solve_fuzzed_converted(tmp_path, capsys, data):
    src = tmp_path / "conv.json"
    src.write_text(_mutated(_CONVERTED, data))
    code = main(["solve", str(src), "--iterations", "3", "--log-every", "1"])
    capsys.readouterr()
    assert code in (0, 3, 4)


@_FUZZ
@given(data=st.data())
def test_verify_fuzzed_converted(tmp_path, capsys, data):
    game, conv = tmp_path / "game.json", tmp_path / "conv.json"
    game.write_text(json.dumps(_GAME))
    conv.write_text(_mutated(_CONVERTED, data))
    code = main(["verify", str(game), str(conv), "--samples", "3"])
    capsys.readouterr()
    # 1: the mutated tree pays differently; 6: the source digest was hit
    assert code in (0, 1, 3, 4, 6)


def test_cli_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pubcoord.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
