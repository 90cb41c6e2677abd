"""Fuzzed inputs against the CLI exit-code contract.

Valid game and converted JSON documents are mutated (keys dropped, values
replaced by other types, bad or huge numbers, arrays truncated, text cut
short) and fed to ``convert``, ``solve`` and ``verify`` in-process.  Bad
parameters are drawn for ``gen`` and ``oracle``, and count parameters of
either sign for ``solve`` and ``verify``.  Every run must end in a
documented exit code; no exception may escape ``main``.
"""
from __future__ import annotations

import copy
import json
import math
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
    st.sampled_from(["1/0", "abc", "1/", "x/2", "-1/3", "0/0", "t9", "coord",
                     10 ** 400, "1" + "0" * 400 + "/1"]),
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


def _exit_code(capsys, argv) -> int:
    """``main(argv)``'s exit code, also when argument parsing exits; no
    traceback may reach standard error."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    assert "Traceback" not in capsys.readouterr().err
    return code


_ANY = st.integers(-10 ** 6, 10 ** 6)
_POS = st.integers(-10 ** 6, 10 ** 6).filter(lambda p: p not in (0, 1, 2))


def _gen_argv(data) -> list[str]:
    """A ``gen`` command line with at least one parameter out of bounds,
    which every generator rejects before building anything."""
    kind = data.draw(st.sampled_from(["toy", "kuhn", "leduc"]), label="kind")
    if kind == "toy":
        bad = data.draw(st.sampled_from(["chance", "actions", "depth",
                                         "size"]), label="bad")
        values = {"chance": data.draw(_ANY), "actions": data.draw(_ANY),
                  "depth": data.draw(_ANY)}
        if bad == "size":  # valid values, but 2**24 nodes or more
            values = {"chance": data.draw(st.integers(1, 10 ** 9)),
                      "actions": data.draw(st.integers(2, 10 ** 9)),
                      "depth": data.draw(st.integers(23, 10 ** 9))}
        else:
            values[bad] = data.draw(st.integers(-10 ** 6, {
                "chance": 0, "actions": 1, "depth": 0}[bad]))
        return ["gen", "toy"] + [f"--{k}={v}" for k, v in values.items()]
    if kind == "kuhn":
        ranks, pos = data.draw(st.one_of(
            st.tuples(st.one_of(st.integers(-10 ** 6, 2),
                                st.integers(60, 10 ** 6)), _ANY),
            st.tuples(_ANY, _POS)), label="ranks, adv-pos")
        return ["gen", "kuhn", f"--ranks={ranks}", f"--adv-pos={pos}"]
    ranks, raises, pos = data.draw(st.one_of(
        st.tuples(st.one_of(st.integers(-10 ** 6, 1),
                            st.integers(6, 10 ** 6)), _ANY, _ANY),
        st.tuples(_ANY, _ANY.filter(lambda r: r not in (1, 2)), _ANY),
        st.tuples(_ANY, _ANY, _POS)), label="ranks, raises, adv-pos")
    return ["gen", "leduc", f"--ranks={ranks}", f"--raises={raises}",
            f"--adv-pos={pos}"]


@_FUZZ
@given(data=st.data())
def test_gen_bad_parameters_exit_2(tmp_path, capsys, data):
    out = tmp_path / "game.json"
    assert _exit_code(capsys, _gen_argv(data) + ["--out", str(out)]) == 2
    assert not out.exists()


@_FUZZ
@given(tol=st.one_of(st.floats(max_value=0.0),
                     st.sampled_from([math.nan, math.inf, 1e-9])),
       entries=st.integers(-10 ** 12, 10))
def test_oracle_bad_parameters(tmp_path, capsys, tol, entries):
    src = tmp_path / "game.json"
    src.write_text(json.dumps(_GAME))
    code = _exit_code(capsys, ["oracle", str(src), f"--tol={tol!r}",
                               f"--max-entries={entries}"])
    # a guard of up to 10 (enumerated joint plans x value-carrying
    # terminals) is too small for the mini game's oracle
    assert code == (5 if tol == 1e-9 and entries >= 1 else 2)


_COUNT = st.one_of(st.integers(-10 ** 6, -1), st.integers(0, 3))


@_FUZZ
@given(iterations=_COUNT, log_every=_COUNT, samples=_COUNT)
def test_count_parameters(tmp_path, capsys, iterations, log_every, samples):
    game, conv = tmp_path / "game.json", tmp_path / "conv.json"
    game.write_text(json.dumps(_GAME))
    conv.write_text(json.dumps(_CONVERTED))
    code = _exit_code(capsys, ["solve", str(conv),
                               f"--iterations={iterations}",
                               f"--log-every={log_every}"])
    assert code == (2 if min(iterations, log_every) < 0 else 0)
    code = _exit_code(capsys, ["verify", str(game), str(conv),
                               f"--samples={samples}"])
    assert code == (2 if samples < 0 else 0)


def test_cli_import_leaves_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pubcoord.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
