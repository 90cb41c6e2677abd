"""JSON round trips for games and converted games."""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pubcoord import (
    PokerSpec,
    ToySpec,
    apply_safe_imperfect_recall,
    convert_folded,
    convert_pruned,
    gen_kuhn3,
    gen_toy,
)
from pubcoord.census import census
from pubcoord.convert import coordinator_node_keys
from pubcoord.errors import (
    DuplicateNodeId,
    MissingVisibilityEntry,
    SchemaError,
    UnknownPlayer,
)
from pubcoord.io_json import (
    converted_from_dict,
    converted_to_dict,
    game_from_dict,
    game_to_dict,
    is_converted_file,
    load_converted,
    load_game,
    save_converted,
    save_game,
)
from pubcoord.model import Edge, Node, VEFG

from conftest import ALL, O, T0, mini_team_game


def test_game_roundtrip_exact(mini):
    assert game_from_dict(game_to_dict(mini)) == mini


def test_game_roundtrip_kuhn(kuhn0):
    assert game_from_dict(game_to_dict(kuhn0)) == kuhn0


def test_game_file_roundtrip(tmp_path, mini):
    p = tmp_path / "g.json"
    save_game(mini, str(p))
    assert load_game(str(p)) == mini
    assert not is_converted_file(str(p))


def test_rational_strings_preserved(mini):
    d = game_to_dict(mini)
    probs = [e.get("prob") for n in d["nodes"]
             for e in n.get("edges", []) if "prob" in e]
    assert probs and all(isinstance(p, str) and "/" in p for p in probs)
    # rationals come back as exact fractions
    g2 = game_from_dict(d)
    root = g2.nodes[g2.root]
    assert all(isinstance(e.prob, Fraction) for e in root.edges)


def test_serialized_form_is_json(tmp_path, mini):
    p = tmp_path / "g.json"
    save_game(mini, str(p))
    d = json.loads(p.read_text())
    assert set(d) == {"name", "players", "root", "nodes"}


def test_duplicate_node_id_rejected(mini):
    d = game_to_dict(mini)
    d["nodes"][1]["id"] = d["nodes"][0]["id"]
    with pytest.raises(DuplicateNodeId):
        game_from_dict(d)


def test_missing_visibility_rejected(mini):
    d = game_to_dict(mini)
    for n in d["nodes"]:
        for e in n.get("edges", []):
            del e["vis"]["o"]
    with pytest.raises(MissingVisibilityEntry):
        game_from_dict(d)


def test_unknown_kind_rejected(mini):
    d = game_to_dict(mini)
    decision = next(n for n in d["nodes"] if n["kind"] == "decision")
    decision["kind"] = "wat"
    with pytest.raises(UnknownPlayer):
        game_from_dict(d)


@pytest.mark.parametrize("conv", [convert_pruned, convert_folded])
def test_converted_roundtrip_exact(mini, conv):
    cg = conv(mini)
    assert converted_from_dict(converted_to_dict(cg)) == cg


def test_converted_roundtrip_with_safe_ir(mini):
    cg = apply_safe_imperfect_recall(convert_folded(mini))
    back = converted_from_dict(converted_to_dict(cg))
    assert back == cg
    assert back.safe_ir_applied
    assert coordinator_node_keys(back) == coordinator_node_keys(cg)
    assert back.supports == cg.supports


def test_converted_loader_ignores_legacy_origin_keys(mini):
    cg = apply_safe_imperfect_recall(convert_folded(mini))
    d = converted_to_dict(cg)
    n = len(d["player"])
    # keys older writers stored; prescriptions now follow from edge order,
    # node kinds and origin players from the coordinator nodes, and
    # contradicting values are not read
    d["origin"].update(origin_node=[], excluded=[], beliefs=[],
                       prescriptions=[], coordinator_keys=[],
                       node_kind=[2] * n, origin_player=[-1] * n, coord=[],
                       source_name=0)
    back = converted_from_dict(d)
    assert back == cg
    assert census(back, compact=True) == census(cg, compact=True)


def test_converted_loader_rejects_an_empty_active_list():
    # t0's one infoset has one action, so its coordinator node has one
    # edge, which is also the fan-out of an empty active list
    seen = frozenset(ALL)
    g = VEFG("one-action", ALL, (
        Node(utility=Fraction(-1)), Node(utility=Fraction(3)),
        Node(player=O, edges=(Edge("lo", 0, seen_by=seen),
                              Edge("hi", 1, seen_by=seen))),
        Node(player=T0, edges=(Edge("only", 2, seen_by=seen),))), 3)
    d = converted_to_dict(convert_folded(g))
    assert d["origin"]["active"] == [[0]]
    d["origin"]["active"] = [[]]
    with pytest.raises(SchemaError, match="no active infoset"):
        converted_from_dict(d)


def test_converted_file_roundtrip(tmp_path, mini):
    cg = convert_folded(mini)
    p = tmp_path / "c.json"
    save_converted(cg, str(p))
    assert is_converted_file(str(p))
    assert load_converted(str(p)) == cg


def test_converted_roundtrip_toy_safe_ir(tmp_path):
    g = gen_toy(ToySpec(2, 3, 2, payoff_seed=1))
    cg = apply_safe_imperfect_recall(convert_pruned(g))
    p = tmp_path / "c.json"
    save_converted(cg, str(p))
    assert load_converted(str(p)) == cg


def test_saved_files_are_one_json_dumps(tmp_path, mini):
    cg = apply_safe_imperfect_recall(convert_folded(mini))
    save_game(mini, str(tmp_path / "g.json"))
    save_converted(cg, str(tmp_path / "c.json"))
    assert (tmp_path / "g.json").read_text() == json.dumps(game_to_dict(mini))
    assert (tmp_path / "c.json").read_text() == json.dumps(
        converted_to_dict(cg))


def test_converted_beliefs_exact(mini):
    cg = convert_folded(mini)
    back = converted_from_dict(converted_to_dict(cg))
    # belief-weighted terminal utilities stay exact rationals
    utils = [n.utility for n in back.game.nodes if n.is_terminal]
    assert utils == [n.utility for n in cg.game.nodes if n.is_terminal]
    assert all(isinstance(u, Fraction) for u in utils)


def test_columnar_round_trip_leaves_the_view_unbuilt(mini):
    cg = apply_safe_imperfect_recall(convert_folded(mini))
    d = converted_to_dict(cg)
    assert d["format"] == 2 and "nodes" not in d
    back = converted_from_dict(json.loads(json.dumps(d)))
    assert "game" not in vars(cg.tree) and "game" not in vars(back.tree)
    assert back == cg


def test_committed_files_hold_the_mini_game_and_its_conversion():
    data = Path(__file__).parent / "data"
    g = mini_team_game(1)
    assert load_game(str(data / "mini_s1_game.json")) == g
    cg = apply_safe_imperfect_recall(convert_folded(g))
    text = (data / "mini_s1_folded_safe_ir.json").read_text()
    assert json.loads(text) == converted_to_dict(cg)
    assert load_converted(str(data / "mini_s1_folded_safe_ir.json")) == cg


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), c=st.integers(2, 3))
def test_game_roundtrip_property(seed, c):
    g = mini_team_game(seed, c)
    assert game_from_dict(game_to_dict(g)) == g
