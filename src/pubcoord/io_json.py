"""JSON serialization of games and converted games.

Schema (games)::

    {"name": ..., "players": ["t0", "t1", "o"], "root": 0,
     "nodes": [{"id": 0, "kind": "chance"|"decision"|"terminal",
                "player": "t0",            # decision nodes only
                "team_utility": 1.5,       # terminal nodes only
                "edges": [{"label": "a", "child": 3, "prob": "1/3",
                           "vis": {"t0": "seen", "t1": "unseen", "o": "seen"}}]}]}

Probabilities and utilities are JSON numbers or exact-rational strings
``"num/den"``; either must convert to a finite float.  Every edge carries a
visibility entry for every strategic player.  Round trips are structurally
exact: parse(serialize(g)) == g.

Converted games are written in format 2, the columns of
:class:`~pubcoord.convert.ConvertedTree` as they are::

    {"format": 2, "name": ..., "players": ["coord", "o"], "root": 30,
     "roles": [null, "c", "coord", "o", "t0"],   # null: terminal
     "labels": ["U", ...], "probs": [null, "1/2", ...],
     "utilities": [0.0, "-3/1", ...],
     "player": [...], "utility": [...], "end": [...],   # one per node
     "label": [...], "child": [...], "prob": [...],     # one per edge
     "seen": [...],
     "origin": {"mode": "folded", "safe_ir": true, "source_digest": ...,
                "active": [[...]], "supports": [[...]],  # one per coord node
                "iset_refs": [{"player": "t0", "obs": [...]}],
                "iset_actions": [[...]]}}

The columns are int lists indexing the tables (``child`` indexes the
nodes); each table value is written once, a rational as ``"num/den"``.
``active`` and ``supports`` hold one list per coordinator node, in id
order.  Prescriptions are not stored: edge ``k`` of a coordinator node
prescribes the ``k``-th joint assignment of ``itertools.product`` over its
``active`` infosets' action lists.  Nor are node kinds and origin players,
which follow from the coordinator nodes and their ``active`` lists (see
:class:`~pubcoord.convert.ConvertedGame`).  Other ``origin`` keys, such as
those older writers added, are ignored on load.

A converted document is checked by numpy passes over its columns, with no
:class:`~pubcoord.model.VEFG` built: every column holds only ints and has
the length of the nodes or of the edges; every index lies in its table,
``child`` and ``root`` among the nodes, ``seen`` in 0..3; ``end`` does not
decrease and ends at the edge count; the tree obeys the rules of
:meth:`~pubcoord.convert.ConvertedTree.check`, which
:func:`~pubcoord.model.validate_game` also runs; the player list obeys
:func:`~pubcoord.model.validate_players`; every ``iset_refs`` player
is a team member; each coordinator node has a non-empty ``active`` list
and one edge per joint assignment of its active infosets, each edge
leading to a chance node.  A document without ``"format": 2`` is
rejected.

A document that breaks its schema raises a
:class:`~pubcoord.errors.GameError`, mostly
:class:`~pubcoord.errors.SchemaError`.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction
from typing import Any

import numpy as np

from .convert import ConvertedGame, ConvertedTree
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
    validate_players,
)

FORMAT = 2
_MODES = ("basic", "pruned", "folded")
# the ConvertedTree columns and their dtypes, per node and per edge
_NODE_COLUMNS = {"player": np.int32, "utility": np.int32, "end": np.int32}
_EDGE_COLUMNS = {"label": np.int32, "child": np.int32, "prob": np.int32,
                 "seen": np.uint8}
_COLUMNS = {**_NODE_COLUMNS, **_EDGE_COLUMNS}


def _schema_checked(parse):
    """Report a missing, mistyped or dangling field of a parsed document as
    :class:`SchemaError` instead of a bare Python exception."""
    @functools.wraps(parse)
    def wrapper(d: dict):
        try:
            return parse(d)
        except (KeyError, IndexError, TypeError, ValueError, OverflowError,
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
        x = Fraction(int(num), int(den) if den else 1)
    elif isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(f"{x!r} is not a number")
    try:
        finite = math.isfinite(float(x))
    except OverflowError:
        finite = False
    if not finite:
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
    """``cg`` as a format-2 document, written from the columns of
    ``cg.tree``."""
    t = cg.tree
    coord = np.flatnonzero(t.played_by(COORDINATOR)).tolist()
    d = {"format": FORMAT, "name": t.name,
         "players": [p.name for p in t.players], "root": t.root,
         "roles": [None if r is None else r.name for r in t.roles],
         "labels": list(t.labels),
         "probs": list(map(_num_to_json, t.probs)),
         "utilities": list(map(_num_to_json, t.utilities))}
    for column in _COLUMNS:
        d[column] = getattr(t, column).tolist()
    d["origin"] = {
        "mode": cg.mode, "safe_ir": cg.safe_ir_applied,
        "source_digest": cg.source_digest,
        "active": [list(cg.active[v]) for v in coord],
        "supports": [list(cg.supports[v]) for v in coord],
        "iset_refs": [{"player": p.name, "obs": list(key)}
                      for p, key in cg.iset_refs],
        "iset_actions": [list(a) for a in cg.iset_actions],
    }
    return d


def _role(name):
    if not isinstance(name, str):
        raise SchemaError(f"player name {name!r} is not a string")
    return parse_role(name)


def _strings(x, what: str) -> tuple[str, ...]:
    if type(x) is not list or not set(map(type, x)) <= {str}:
        raise SchemaError(f"{what} must be a list of strings")
    return tuple(x)


def _ints(x, what: str) -> np.ndarray:
    """``x`` as an int64 array, if it is a list of JSON integers."""
    if type(x) is not list or not set(map(type, x)) <= {int}:
        raise SchemaError(f"{what} must be a list of integers")
    return np.array(x, dtype=np.int64)


def _check_range(a: np.ndarray, what: str, lo: int, hi: int,
                 dtype=np.int64) -> None:
    """Every value of ``a`` in ``lo .. hi - 1`` and in range of ``dtype``."""
    hi = min(hi, int(np.iinfo(dtype).max) + 1)
    if a.size and (a.min() < lo or a.max() >= hi):
        bad = int(np.flatnonzero((a < lo) | (a >= hi))[0])
        raise SchemaError(f"{what}[{bad}] = {a[bad]} is not in "
                          f"{lo}..{hi - 1}")


def _origin_fields(o: dict) -> dict:
    """The :class:`ConvertedGame` fields of ``o`` that are not per node,
    checked."""
    if o["mode"] not in _MODES or type(o["safe_ir"]) is not bool:
        raise SchemaError(f"unknown mode {o['mode']!r} or safe_ir "
                          f"{o['safe_ir']!r}")
    if not isinstance(o["source_digest"], str):
        raise SchemaError("origin.source_digest must be a string")
    iset_refs = tuple((parse_role(r["player"]), _strings(r["obs"], "obs"))
                      for r in o["iset_refs"])
    if any(p.kind != "team" for p, _ in iset_refs):
        raise SchemaError("every iset_refs player must be a team member")
    iset_actions = tuple(_strings(a, "iset_actions")
                         for a in o["iset_actions"])
    if len(iset_refs) != len(iset_actions):
        raise SchemaError(f"{len(iset_refs)} iset_refs for "
                          f"{len(iset_actions)} iset_actions")
    return dict(mode=o["mode"], safe_ir_applied=o["safe_ir"],
                source_digest=o["source_digest"], iset_refs=iset_refs,
                iset_actions=iset_actions)


@_schema_checked
def converted_from_dict(d: dict) -> ConvertedGame:
    """The converted game of a format-2 document: its columns are checked
    and become the tree; no view is built."""
    fmt = d.get("format")
    if type(fmt) is not int or fmt != FORMAT:
        raise SchemaError(f"unsupported converted-file format {fmt!r}")
    o = d["origin"]
    if not isinstance(d["name"], str):
        raise SchemaError("name must be a string")
    players = tuple(map(parse_role, _strings(d["players"], "players")))
    validate_players(players)
    roles = tuple(None if r is None else _role(r) for r in d["roles"])
    labels = _strings(d["labels"], "labels")
    if len(set(labels)) != len(labels):
        raise SchemaError("the labels table repeats a label")
    probs = tuple(None if p is None else _num_from_json(p)
                  for p in d["probs"])
    utilities = tuple(map(_num_from_json, d["utilities"]))
    col = {c: _ints(d[c], c) for c in _COLUMNS}
    n, m = len(col["player"]), len(col["child"])
    for what, a, size in (("utility", col["utility"], n),
                          ("end", col["end"], n),
                          *((c, col[c], m) for c in _EDGE_COLUMNS)):
        if len(a) != size:
            raise SchemaError(f"{what} has {len(a)} entries for {size}")
    root = d["root"]
    if type(root) is not int or not 0 <= root < n:
        raise SchemaError(f"root {root!r} is not one of the {n} nodes")
    for c, hi in (("player", len(roles)), ("utility", len(utilities)),
                  ("end", m + 1), ("label", len(labels)), ("child", n),
                  ("prob", len(probs)), ("seen", 4)):
        _check_range(col[c], c, 0, hi, _COLUMNS[c])
    end = col["end"]
    if np.any(end[1:] < end[:-1]) or end[-1] != m:
        raise SchemaError(f"end must not decrease and must end at {m}")
    tree = ConvertedTree(
        name=d["name"], players=players, root=root, roles=roles,
        labels=labels, probs=probs, utilities=utilities,
        **{c: a.astype(_COLUMNS[c]) for c, a in col.items()})
    count = tree.check()
    coord = np.flatnonzero(tree.played_by(COORDINATOR))
    kids = tree.child[tree.edges_of(coord, count)]
    if not tree.played_by(CHANCE)[kids].all():
        raise SchemaError("a coordinator edge leads to a non-chance node")
    fields = _origin_fields(o)
    return ConvertedGame(
        tree=tree, **fields,
        **_coordinator_fields(coord, count, o["active"], o["supports"],
                              fields["iset_actions"]))


def _coordinator_fields(coord: np.ndarray, count: np.ndarray, active,
                        supports, iset_actions) -> dict:
    """The per-node ``active`` and ``supports`` of :class:`ConvertedGame`
    from one list each per coordinator node ``coord``, in id order, given
    the per-node edge ``count``; checked: ints, known infosets, at least
    one per node, and one edge per joint assignment."""
    if type(active) is not list or type(supports) is not list \
            or len(active) != len(coord) or len(supports) != len(coord) \
            or not set(map(type, active + supports)) <= {list}:
        raise SchemaError("origin.active and origin.supports need one list "
                          f"per coordinator node, {len(coord)}")
    if not all(active):
        raise SchemaError(f"coordinator node {coord[active.index([])]} has "
                          "no active infoset")
    ids = _ints(list(itertools.chain.from_iterable(active)), "origin.active")
    _ints(list(itertools.chain.from_iterable(supports)), "origin.supports")
    _check_range(ids, "origin.active", 0, len(iset_actions))
    # edge k of a coordinator node prescribes the k-th joint assignment of
    # its active infosets; the float products are exact up to 2**53 and
    # exceed every edge count above it
    fanout = np.ones(len(coord))
    np.multiply.at(fanout, np.repeat(np.arange(len(coord)),
                                     [len(a) for a in active]),
                   np.array([len(a) for a in iset_actions], dtype=float)[ids])
    bad = np.flatnonzero(fanout != count[coord])
    if bad.size:
        k = int(bad[0])
        raise SchemaError(
            f"coordinator node {coord[k]} has {count[coord[k]]} edges; its "
            f"active infosets {active[k]} need {fanout[k]:.0f}")
    active_of, supports_of = [None] * len(count), [None] * len(count)
    for v, a, s in zip(coord.tolist(), active, supports):
        active_of[v], supports_of[v] = tuple(a), tuple(s)
    return dict(active=tuple(active_of), supports=tuple(supports_of))


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
