"""Extensive-form games with explicit per-edge, per-player visibility.

A game tree is a tuple of immutable nodes.  Every edge records which players
observe it (``seen_by``); information sets and public states are *derived*
from visibility rather than being stored, by grouping histories on the
subsequence of edge labels a player (or a set of players) has seen.
"""
from __future__ import annotations

import gc
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import (
    ActionMismatchWithinInfoset,
    CyclicStructure,
    ImperfectRecallInput,
    NotATeamGame,
    UnknownPlayer,
)

PROB_TOL = 1e-12
# entries of the arrays a batched numpy pass builds at a time: the TMECor
# oracle's rows x terminals, the exact evaluator's rows x nodes
_CHUNK_ENTRIES = 1 << 20

Prob = Union[Fraction, float]
Utility = Union[Fraction, float, int]


@dataclass(frozen=True, slots=True, eq=False, init=False)
class PlayerRole:
    """A participant: team member (indexed), opponent, chance or coordinator.

    Interned: there is one instance per ``(kind, index)``, so equality and
    hashing are by identity (and run in C); ``__reduce__`` makes pickle and
    ``deepcopy`` return the interned instance.
    """

    kind: str  # "team" | "opponent" | "chance" | "coordinator"
    index: int = 0

    def __new__(cls, kind: str, index: int = 0) -> "PlayerRole":
        if kind not in ("team", "opponent", "chance", "coordinator"):
            raise UnknownPlayer(f"unknown player kind {kind!r}")
        role = _ROLES.get((kind, index))
        if role is None:
            role = object.__new__(cls)
            object.__setattr__(role, "kind", kind)
            object.__setattr__(role, "index", index)
            _ROLES[kind, index] = role
        return role

    def __reduce__(self):
        return (PlayerRole, (self.kind, self.index))

    @property
    def name(self) -> str:
        if self.kind == "team":
            return f"t{self.index}"
        return {"opponent": "o", "chance": "c", "coordinator": "coord"}[self.kind]

    def sort_key(self) -> tuple[int, int]:
        order = {"team": 0, "opponent": 1, "coordinator": 2, "chance": 3}
        return (order[self.kind], self.index)

    def __repr__(self) -> str:  # compact in debug dumps
        return self.name


_ROLES: dict[tuple[str, int], "PlayerRole"] = {}
CHANCE = PlayerRole("chance")
OPPONENT = PlayerRole("opponent")
COORDINATOR = PlayerRole("coordinator")


def team_member(index: int) -> PlayerRole:
    return PlayerRole("team", index)


def parse_role(name: str) -> PlayerRole:
    if name == "o":
        return OPPONENT
    if name == "c":
        return CHANCE
    if name == "coord":
        return COORDINATOR
    if name.startswith("t") and name[1:].isdigit():
        return team_member(int(name[1:]))
    raise UnknownPlayer(f"cannot parse player name {name!r}")


@dataclass(frozen=True, slots=True)
class Edge:
    """One action edge: label, child node id, chance probability, observers."""

    label: str
    child: int
    prob: Optional[Prob] = None
    seen_by: frozenset[PlayerRole] = frozenset()


@dataclass(frozen=True, slots=True)
class Node:
    """Decision / chance node (player set, edges non-empty) or terminal."""

    player: Optional[PlayerRole] = None
    edges: tuple[Edge, ...] = ()
    utility: Utility = 0.0

    @property
    def is_terminal(self) -> bool:
        return self.player is None

    @property
    def is_chance(self) -> bool:
        return self.player == CHANCE


@dataclass(frozen=True)
class VEFG:
    """Immutable game tree with visibility annotations.

    ``players`` lists the strategic (non-chance) players.  Terminal nodes
    store the team utility; the opponent's utility is its negation.
    """

    name: str
    players: tuple[PlayerRole, ...]
    nodes: tuple[Node, ...]
    root: int = 0

    def team_players(self) -> tuple[PlayerRole, ...]:
        return tuple(p for p in self.players if p.kind == "team")

    def opponent(self) -> Optional[PlayerRole]:
        for p in self.players:
            if p.kind == "opponent":
                return p
        return None

    def __len__(self) -> int:
        return len(self.nodes)


InfosetKey = tuple[str, ...]


def validate_game(game: VEFG) -> None:
    """Check tree structure, probability normalization and role invariants:
    the rules of :meth:`~pubcoord.convert.ConvertedTree.check`, run on the
    game's columns, and :func:`validate_players`.  Node ids out of range
    are rejected first, as the columns cannot hold them."""
    # imported here: pubcoord.convert builds on this module
    from .convert import ConvertedTree

    n = len(game.nodes)
    if not (0 <= game.root < n):
        raise CyclicStructure(f"root id {game.root} out of range")
    bad = next((e.child for node in game.nodes for e in node.edges
                if not 0 <= e.child < n), None)
    if bad is not None:
        raise CyclicStructure(f"edge child {bad} out of range")
    ConvertedTree.from_game(game).check()
    validate_players(game.players)


def validate_players(players: tuple[PlayerRole, ...]) -> None:
    """Check the role invariants of a game's player list."""
    kinds = [p.kind for p in players]
    if kinds.count("opponent") > 1:
        raise UnknownPlayer("more than one opponent player")
    if "team" in kinds and "coordinator" in kinds:
        raise UnknownPlayer("team members and coordinator cannot coexist")
    team_idx = sorted(p.index for p in players if p.kind == "team")
    if team_idx != list(range(len(team_idx))):
        raise UnknownPlayer(f"team indices not contiguous from 0: {team_idx}")


@contextmanager
def recursion_headroom(frames: int):
    """Let the enclosed code nest ``frames`` more Python calls than the
    current recursion limit allows; tree walks pass a bound taken from the
    tree, so the limit never grows without bound."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector in the enclosed code and restore
    its previous state.  For passes that build many immutable, acyclic
    objects: the collections their allocations would trigger free nothing
    and rescan every object built so far."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def derive_visibility_class(edge: Edge, player_set: Iterable[PlayerRole]) -> str:
    """Classify an edge for a set of observers: pub / priv / hidden."""
    players = list(player_set)
    if not players:
        raise UnknownPlayer("empty observer set")
    if any(p.kind == "chance" for p in players):
        raise UnknownPlayer("chance is not an observer")
    seen = sum(1 for p in players if p in edge.seen_by)
    if seen == len(players):
        return "pub"
    if seen == 0:
        return "hidden"
    return "priv"


def _group(game: VEFG, observers: frozenset[PlayerRole],
           actor: Optional[PlayerRole] = None,
           own: Optional[dict] = None) -> dict[InfosetKey, list[int]]:
    """Reachable nodes grouped by the labels that every observer saw on the
    way, members ascending; with ``actor``, only that player's decision
    nodes, and ``own`` is filled with each one's own sequence: the length
    of the key at the actor's last decision on the way and the action
    taken there, ``None`` before its first."""
    nodes, groups = game.nodes, {}
    stack = [(game.root, (), None)]
    pop, push = stack.pop, stack.append
    while stack:
        nid, seq, last = pop()
        node = nodes[nid]
        if actor is None or node.player is actor:  # roles are interned
            groups.setdefault(seq, []).append(nid)
            if own is not None:
                own[nid] = last
        mine = node.player is actor  # no edges when both are None
        for e in node.edges:
            push((e.child, seq + (e.label,) if observers <= e.seen_by else seq,
                  (len(seq), e.label) if mine else last))
    for members in groups.values():
        members.sort()
    return groups


def seen_sequences(game: VEFG, player: PlayerRole) -> dict[int, InfosetKey]:
    """Observed label sequence at every reachable node, for one player."""
    return {nid: seq for seq, members in
            _group(game, frozenset((player,))).items() for nid in members}


def infosets(game: VEFG, player: PlayerRole) -> dict[InfosetKey, list[int]]:
    """Partition the player's decision nodes by observed-action sequence."""
    groups, bad = _recall(game, (player,))
    nid = next((v for _, v, clause in bad if clause == "action mismatch"), None)
    if nid is not None:
        raise ActionMismatchWithinInfoset(
            f"node {nid} of {player.name} offers other actions than the "
            "other nodes of its infoset")
    return groups[player]


def public_states(game: VEFG, observer_set: Iterable[PlayerRole]
                  ) -> dict[InfosetKey, list[int]]:
    """Partition *all* histories by their public (seen-by-all) subsequence."""
    observers = frozenset(observer_set)
    if not observers:
        raise UnknownPlayer("empty observer set")
    return _group(game, observers)


def validate_perfect_recall(game: VEFG,
                            players: Optional[Iterable[PlayerRole]] = None
                            ) -> list[tuple[PlayerRole, int]]:
    """Report (player, node) pairs violating perfect recall for ``players``
    (default: every strategic player); empty means ok.  A player sees its
    own moves, and the nodes of one of its infosets offer the same actions
    and follow the same own sequence: the player's last own infoset and
    action on the way.  Blind moves come first, in node order; then, per
    player, each other offender, infosets in order of their lowest node."""
    return [(p, nid) for p, nid, _ in _recall(game, players)[1]]


def _recall(game: VEFG, players) -> tuple[dict, list[tuple]]:
    """Each player's infosets, by one :func:`_group` walk each, and the
    offenders of :func:`validate_perfect_recall` with their clause."""
    players = game.players if players is None else tuple(players)
    violations = [(node.player, nid, "blind move")
                  for nid, node in enumerate(game.nodes)
                  if node.player in players
                  and any(node.player not in e.seen_by for e in node.edges)]
    groups = {}
    for player in players:
        own: dict[int, Optional[tuple]] = {}
        sets = groups[player] = _group(game, frozenset((player,)), player, own)
        acts = {v: [e.label for e in game.nodes[v].edges]
                for members in sets.values() for v in members}
        bad = sorted((first, v) for first, *rest in sets.values() for v in rest
                     if (acts[v], own[v]) != (acts[first], own[first]))
        violations.extend((player, v, "action mismatch" if acts[first] !=
                           acts[v] else "own-sequence collision")
                          for first, v in bad)
    return groups, violations


def check_perfect_recall(game: VEFG, players=None
                         ) -> dict[PlayerRole, dict[InfosetKey, list[int]]]:
    """Raise :class:`ImperfectRecallInput` naming the first offenders of
    :func:`validate_perfect_recall` and their clauses, if any; else return
    the groups it checked, the :func:`infosets` of each player."""
    groups, bad = _recall(game, players)
    if bad:
        raise ImperfectRecallInput("perfect recall violated: " + "; ".join(
            f"{clause} at ({p!r}, {nid})" for p, nid, clause in bad[:3])
            + f" (total {len(bad)})")
    return groups


def team_perfect_recall_refinement(game: VEFG) -> VEFG:
    """Mark every team-member action as seen by all team members; ``game``
    itself when every one already is."""
    team = frozenset(game.team_players())
    if not team:
        raise NotATeamGame(f"game {game.name!r} has no team members")
    nodes, changed = list(game.nodes), False
    for nid, node in enumerate(game.nodes):
        if (node.player is not None and node.player.kind == "team"
                and not all(team <= e.seen_by for e in node.edges)):
            changed = True
            nodes[nid] = replace(node, edges=tuple(
                e if team <= e.seen_by else replace(e, seen_by=e.seen_by | team)
                for e in node.edges))
    return replace(game, nodes=tuple(nodes)) if changed else game


def is_public_turn_taking(game: VEFG) -> bool:
    """True iff the team's common view tells who acts next: an infoset's
    histories share their acting players, and states at one depth with the
    same team-seen labels (a member's own actions count as seen) share
    their actor, ``None`` at a terminal, and whether the team sees the move."""
    team = frozenset(game.team_players())
    slot = {p: k for k, p in enumerate(game.players)}
    observers = [frozenset((p,)) for p in slot] + [team]
    number, first = {}, {}  # sequence ids; what an infoset / class shares
    stack = [(game.root, 0, None, (None,) * len(observers))]
    while stack:
        nid, depth, acting, views = stack.pop()
        node = game.nodes[nid]
        own = team if node.player in team else frozenset()
        mark = (node.player, {team <= e.seen_by | own for e in node.edges})
        k = slot.get(node.player)
        if (len(mark[1]) > 1 or first.setdefault((depth, views[-1]), mark)
                != mark or k is not None and first.setdefault(
                    (node.player, views[k]), acting) != acting):
            return False
        acting = number.setdefault((acting, node.player), len(number))
        for e in node.edges:
            stack.append((e.child, depth + 1, acting, tuple([
                number.setdefault((v, e.label), len(number)) if o <= own
                or o <= e.seen_by else v for o, v in zip(observers, views)])))
    return True


def make_public_turn_taking(game: VEFG) -> VEFG:
    """Force public turn-taking, level by level: levels cycle through all
    players and chance, and a node its level's player does not play, or a
    terminal sharing its team view with a non-terminal of its level, waits
    behind a "noop" edge seen only by that player.  Returns the input
    unchanged when the property already holds."""
    return game if is_public_turn_taking(game) else _pad_turns(game)


def _pad_turns(game: VEFG) -> VEFG:
    """:func:`make_public_turn_taking` of a game known not to be public
    turn-taking."""
    cycle, team = game.players + (CHANCE,), frozenset(game.team_players())
    nodes, depth, level, number = [], 0, [(game.root, None)], {}
    while level:  # per node of a level: its source node and team view
        actor = cycle[depth % len(cycle)]
        busy = {v for nid, v in level if game.nodes[nid].edges}
        base, below = len(nodes) + len(level), []
        for nid, v in level:
            node = game.nodes[nid]
            if node.player is not actor and (node.edges or v in busy):
                node = Node(actor, (Edge("noop", nid, *(
                    (Fraction(1), frozenset()) if actor is CHANCE
                    else (None, frozenset((actor,))))),))
            k = base + len(below)
            nodes.append(replace(node, edges=tuple(
                replace(e, child=k + j) for j, e in enumerate(node.edges))))
            below += [(e.child, number.setdefault((v, e.label), len(number))
                       if actor in team or team <= e.seen_by else v)
                      for e in node.edges]
        depth, level = depth + 1, below
    return replace(game, nodes=tuple(nodes), root=0)
