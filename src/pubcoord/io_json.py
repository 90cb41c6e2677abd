"""JSON serialization of games and converted games.

Schema (games)::

    {"name": ..., "players": ["t0", "t1", "o"], "root": 0,
     "nodes": [{"id": 0, "kind": "chance"|"decision"|"terminal",
                "player": "t0",            # decision nodes only
                "team_utility": 1.5,       # terminal nodes only
                "edges": [{"label": "a", "child": 3, "prob": "1/3",
                           "vis": {"t0": "seen", "t1": "unseen", "o": "seen"}}]}]}

Probabilities and utilities are JSON numbers or exact-rational strings
``"num/den"``.  Every edge carries a visibility entry for every strategic
player.  Round trips are structurally exact: parse(serialize(g)) == g.

Converted games use the same schema plus an ``origin`` section::

    {"mode": "folded", "safe_ir": true, "source_name": ..., "source_digest": ...,
     "node_kind": [...], "origin_player": [...], "active": [...],
     "supports": [...],                    # one entry per node, null if unused
     "iset_refs": [{"player": "t0", "obs": [...]}], "iset_actions": [[...]]}

Prescriptions are not stored: edge ``k`` of a coordinator node prescribes
the ``k``-th joint assignment of ``itertools.product`` over its ``active``
infosets' action lists.  Keys that older writers added to ``origin``
(``origin_node``, ``excluded``, ``beliefs``, ``prescriptions``,
``coordinator_keys``) are ignored on load.  A document that breaks the schema
raises :class:`~pubcoord.errors.SchemaError`.
"""
from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from typing import Any

from .convert import ConvertedGame
from .errors import (
    DuplicateNodeId,
    MissingVisibilityEntry,
    SchemaError,
    UnknownPlayer,
)
from .model import (
    CHANCE,
    COORDINATOR,
    Edge,
    Node,
    VEFG,
    gc_paused,
    parse_role,
    validate_game,
)


def _schema_checked(parse):
    """Report a missing, mistyped or dangling field of a parsed document as
    :class:`SchemaError` instead of a bare Python exception."""
    @functools.wraps(parse)
    def wrapper(d: dict):
        try:
            return parse(d)
        except (KeyError, IndexError, TypeError, ValueError,
                ZeroDivisionError, AttributeError) as exc:
            raise SchemaError(
                f"malformed document: {type(exc).__name__}: {exc}") from exc
    return wrapper


def _num_to_json(x) -> Any:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def _num_from_json(x) -> Any:
    if isinstance(x, str):
        num, _, den = x.partition("/")
        return Fraction(int(num), int(den) if den else 1)
    if isinstance(x, bool) or not isinstance(x, (int, float)) \
            or not math.isfinite(x):
        raise SchemaError(f"{x!r} is not a finite number")
    return x


def game_to_dict(game: VEFG) -> dict:
    players = [p.name for p in game.players]
    nodes = []
    for nid, node in enumerate(game.nodes):
        entry: dict[str, Any] = {"id": nid}
        if node.is_terminal:
            entry["kind"] = "terminal"
            entry["team_utility"] = _num_to_json(node.utility)
        else:
            if node.is_chance:
                entry["kind"] = "chance"
            else:
                entry["kind"] = "decision"
                entry["player"] = node.player.name
            edges = []
            for e in node.edges:
                ed: dict[str, Any] = {"label": e.label, "child": e.child}
                if e.prob is not None:
                    ed["prob"] = _num_to_json(e.prob)
                ed["vis"] = {p.name: ("seen" if p in e.seen_by else "unseen")
                             for p in game.players}
                edges.append(ed)
            entry["edges"] = edges
        nodes.append(entry)
    return {"name": game.name, "players": players, "root": game.root,
            "nodes": nodes}


@_schema_checked
def game_from_dict(d: dict) -> VEFG:
    players = tuple(parse_role(name) for name in d["players"])
    id_map: dict[Any, int] = {}
    for i, entry in enumerate(d["nodes"]):
        if entry["id"] in id_map:
            raise DuplicateNodeId(f"node id {entry['id']!r} repeated")
        id_map[entry["id"]] = i
    nodes = []
    for entry in d["nodes"]:
        kind = entry["kind"]
        if kind == "terminal":
            nodes.append(Node(utility=_num_from_json(entry["team_utility"])))
            continue
        if kind == "chance":
            player = CHANCE
        elif kind == "decision":
            player = parse_role(entry["player"])
        else:
            raise UnknownPlayer(f"unknown node kind {kind!r}")
        edges = []
        for ed in entry["edges"]:
            vis = ed.get("vis", {})
            seen = set()
            for p in players:
                if p.name not in vis:
                    raise MissingVisibilityEntry(
                        f"edge {ed['label']!r} of node {entry['id']} lacks a "
                        f"visibility entry for player {p.name}")
                if vis[p.name] == "seen":
                    seen.add(p)
            if not isinstance(ed["label"], str):
                raise SchemaError(f"edge label {ed['label']!r} is not a "
                                  "string")
            prob = ed.get("prob")
            edges.append(Edge(ed["label"], id_map[ed["child"]],
                              None if prob is None else _num_from_json(prob),
                              frozenset(seen)))
        nodes.append(Node(player=player, edges=tuple(edges)))
    game = VEFG(name=d["name"], players=players, nodes=tuple(nodes),
                root=id_map[d["root"]])
    validate_game(game)
    return game


def _key_to_json(key) -> Any:
    # nested tuples of strings/ints -> nested lists
    if isinstance(key, tuple):
        return [_key_to_json(k) for k in key]
    return key


def converted_to_dict(cg: ConvertedGame) -> dict:
    d = game_to_dict(cg.game)
    d["origin"] = {
        "mode": cg.mode,
        "safe_ir": cg.safe_ir_applied,
        "source_name": cg.source_name,
        "source_digest": cg.source_digest,
        "node_kind": list(cg.node_kind),
        "origin_player": [p.name if p is not None else None
                          for p in cg.origin_player],
        "active": [list(a) if a is not None else None for a in cg.active],
        "iset_refs": [{"player": p.name, "obs": list(key)}
                      for p, key in cg.iset_refs],
        "iset_actions": [list(a) for a in cg.iset_actions],
        "supports": [list(s) if s is not None else None
                     for s in cg.supports],
    }
    return d


@_schema_checked
def converted_from_dict(d: dict) -> ConvertedGame:
    """The converted game of ``d``: its validated tree becomes the columns
    and is kept as their view."""
    game = game_from_dict(d)
    o = d["origin"]
    n = len(game.nodes)
    for key in ("node_kind", "origin_player", "active", "supports"):
        if len(o[key]) != n:
            raise SchemaError(f"origin.{key} has {len(o[key])} entries for "
                              f"{n} nodes")
    if any(type(i) is not int for key in ("active", "supports")
           for ids in o[key] if ids is not None for i in ids):
        raise SchemaError("origin.active and origin.supports must hold ids")
    cg = ConvertedGame(
        game=game,
        mode=o["mode"],
        safe_ir_applied=o["safe_ir"],
        source_name=o["source_name"],
        source_digest=o["source_digest"],
        node_kind=tuple(o["node_kind"]),
        origin_player=tuple(parse_role(p) if p is not None else None
                            for p in o["origin_player"]),
        active=tuple(tuple(a) if a is not None else None
                     for a in o["active"]),
        iset_refs=tuple((parse_role(r["player"]), tuple(r["obs"]))
                        for r in o["iset_refs"]),
        iset_actions=tuple(tuple(a) for a in o["iset_actions"]),
        supports=tuple(tuple(s) if s is not None else None
                       for s in o["supports"]),
    )
    # prescriptions are decoded from edge order, so every coordinator node
    # must carry exactly one edge per joint assignment of its active infosets
    n_isets = len(cg.iset_actions)
    if len(cg.iset_refs) != n_isets:
        raise SchemaError(f"{len(cg.iset_refs)} iset_refs for {n_isets} "
                          "iset_actions")
    for nid, node in enumerate(game.nodes):
        if node.player != COORDINATOR:
            continue
        active = cg.active[nid]
        if active is None or cg.supports[nid] is None:
            raise SchemaError(f"coordinator node {nid} lacks its active "
                              "infosets or its support")
        if not all(0 <= i < n_isets for i in active):
            raise SchemaError(f"coordinator node {nid} names unknown "
                              f"infosets {active}")
        fanout = math.prod(len(cg.iset_actions[i]) for i in active)
        if len(node.edges) != fanout:
            raise SchemaError(
                f"coordinator node {nid} has {len(node.edges)} edges; its "
                f"active infosets {active} need {fanout}")
    return cg


# Files are written by one ``json.dumps``, which runs the C encoder;
# ``json.dump`` streams through the pure-Python one.  Loads parse and build
# under a paused garbage collector: every object they make is kept.


def save_game(game: VEFG, path: str) -> None:
    text = json.dumps(game_to_dict(game))
    with open(path, "w") as f:
        f.write(text)


def load_game(path: str) -> VEFG:
    with open(path) as f, gc_paused():
        return game_from_dict(json.load(f))


def save_converted(cg: ConvertedGame, path: str) -> None:
    text = json.dumps(converted_to_dict(cg))
    with open(path, "w") as f:
        f.write(text)


def load_converted(path: str) -> ConvertedGame:
    with open(path) as f, gc_paused():
        return converted_from_dict(json.load(f))


def is_converted_file(path: str) -> bool:
    with open(path) as f:
        d = json.load(f)
    return "origin" in d
