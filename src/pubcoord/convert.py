"""Public-coordinator conversion of adversarial team games.

Converts a team game (team members vs. at most one opponent, ex-ante
coordination) into a two-player zero-sum game between a *coordinator* and the
opponent.  At every team decision point the coordinator publicly commits to a
*prescription*: one action for every private state (team infoset) compatible
with the public information.  A chance node then plays the action prescribed
for the actual private state.

One recursive builder produces all three information-lossless
representations; two switches turn on the reductions in turn:

- ``basic``   — neither switch: one coordinator node per original team
                history, and a probability-one ``dummy`` chance node plays
                the prescribed action.
- ``pruned``  — *prune*: private states whose prescribed action differs from
                the action actually played are excluded from later
                prescriptions.
- ``folded``  — *prune* and *fold*: team-private, opponent-unseen chance
                outcomes are never branched; a belief over private states is
                carried instead and the prescription is resolved by a
                ``presc`` chance node with one outcome per distinct
                prescribed action.

The subtree below a builder call depends only on its inputs: the belief
over source states and the coordinator's compatible-state set (*support*).
A belief is a tuple of ``(state, weight)`` pairs with int weights of gcd 1,
as exact and canonical as ``Fraction`` probabilities and cheaper: a folded
chance node multiplies them by its probabilities over their lcm, and a
terminal's utility is ``Σ w·u / Σ w``.  With fold off every belief is one
state of weight 1.  A ``Fraction`` is made only for a value new to its table.

Every call emits its subtree as one contiguous post-order id range ending at
the returned id.  The builder's one reuse rule: it builds each distinct pair
once and answers a repeat with a copy of that range, its ids shifted (a
terminal, cheaper to emit than to copy, is emitted).  The copies are exact
because the builder is a pure function of its inputs.  A prescription that
repeats an earlier one's plays at the belief states repeats the pairs of
all its resolve node's children, so only that node is emitted anew.  A
one-state belief (all, with fold off) resolves a prescription by one edge
of probability 1, with no grouping.  The source table is kept in the
game's record for every mode; a terminal belief, an ``active`` tuple and
the supports after a step are tabled per conversion, and freed with the
memo on return.  The cyclic collector is paused while it runs.

The tree is kept as int columns (:class:`ConvertedTree`): per node its
player, utility and edge end, per edge its label, child, probability and
who observes it, values numbered in small tables.  No ``Node`` or ``Edge``
is made.  One side builder numbers both sides' infosets from a walk with
arrays only, and makes key tuples when read; :func:`compile_converted`
keeps them for the infoset keys, the strategy maps, the payoff check, the
census and :mod:`pubcoord.solvers`.  The ``game`` property, the tree as a
:class:`~pubcoord.model.VEFG`, is built only when a caller reads it.

``apply_safe_imperfect_recall`` additionally merges coordinator infosets by
forgetting prescription components that addressed already-excluded states.
Forgetting them completely (including *when* each state was excluded) leaves
exactly the public observation sequence plus the prescriptions to the states
that are still compatible — and those prescribed actions are forced to equal
the publicly observed actions.  The merged infoset key is therefore the
current compatible-state set itself, which both determines and is determined
by the information the coordinator retains.
"""
from __future__ import annotations

import itertools
import random
from array import array
from dataclasses import InitVar, dataclass, field, replace as dc_replace
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    ActionMismatchWithinInfoset,
    CyclicStructure,
    ExclusionDataMissing,
    IllegalActionInPlan,
    IllegalPrescription,
    ImperfectRecallInput,
    IncompleteProfile,
    InvalidIterationCount,
    NotPublicTurnTaking,
    ProbabilityNotNormalized,
    SchemaError,
    UnknownPlayer,
    check_int,
)
from .model import (
    _CHUNK_ENTRIES,
    CHANCE,
    COORDINATOR,
    OPPONENT,
    PROB_TOL,
    Edge,
    InfosetKey,
    Node,
    PlayerRole,
    VEFG,
    check_perfect_recall,
    gc_paused,
    is_public_turn_taking,
    recursion_headroom,
    team_perfect_recall_refinement,
)

TeamInfosetRef = tuple[PlayerRole, InfosetKey]

# bits of ConvertedTree.seen: the coordinator / the opponent observes an edge
COORD_SEEN, OPP_SEEN = 1, 2
_SEEN_BY = (frozenset(), frozenset((COORDINATOR,)), frozenset((OPPONENT,)),
            frozenset((COORDINATOR, OPPONENT)))


def game_digest(game: VEFG) -> str:
    """Stable structural digest used to tie converted games to their source;
    kept in ``vars(game)``, as a ``VEFG`` is immutable."""
    digest = vars(game).get("_digest")
    if digest is None:
        import hashlib

        h = hashlib.sha256()
        h.update(repr((game.name, game.players, game.root)).encode())
        for node in game.nodes:
            h.update(repr((node.player, node.utility)).encode())
            for e in node.edges:
                h.update(repr((e.label, e.child, e.prob,
                               sorted(p.name for p in e.seen_by))).encode())
        digest = vars(game)["_digest"] = h.hexdigest()
    return digest


def _number_key(x):
    """Table key of a probability or utility.  Equal numbers of different
    types (``1``, ``1.0``, ``Fraction(1)``) and the two zeros of a float
    stay apart, so that the view returns the very values emitted; a
    ``Fraction`` is keyed by its terms, which hash faster than it does."""
    kind = x.__class__
    if kind is Fraction:
        return kind, x.numerator, x.denominator
    return (kind, x.hex()) if kind is float else (kind, x)


class _Table:
    """Distinct values in order of first use, numbered by :meth:`id`."""

    def __init__(self, key=None) -> None:
        self.key = key
        self.ids: dict = {}
        self.values: list = []

    def id(self, x) -> int:
        k = x if self.key is None else self.key(x)
        i = self.ids.get(k)
        if i is None:
            i = self.ids[k] = len(self.values)
            self.values.append(x)
        return i

    def ratio(self, num: int, den: int) -> int:
        """:meth:`id` of ``Fraction(num, den)``, for coprime ``num`` and
        ``den > 0`` in a table keyed by :func:`_number_key`; the
        ``Fraction`` is made only when the value is new."""
        k = (Fraction, num, den)
        i = self.ids.get(k)
        if i is None:
            i = self.ids[k] = len(self.values)
            self.values.append(Fraction(num, den))
        return i


def _shifted(column: array, lo: int, hi: int, shift: int) -> bytes:
    """The entries ``lo..hi - 1`` of an int ``column`` plus ``shift``, as
    the bytes of a column of that type."""
    return (np.frombuffer(column, np.intc, hi - lo, lo * column.itemsize)
            + shift).tobytes()


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges ``start[i] .. start[i] + count[i] - 1``, back to back."""
    return np.repeat(start - np.cumsum(count) + count, count) + np.arange(
        count.sum())


class _Columns:
    """A tree under construction: the columns of :class:`ConvertedTree` in
    emission (post-order) id order, as C arrays, so that a million edges
    hold no Python int objects, and ``active`` and ``supports`` per node."""

    def __init__(self) -> None:
        self.roles, self.labels = _Table(), _Table()
        self.probs, self.utilities = _Table(_number_key), _Table(_number_key)
        self.player, self.utility, self.end = array("i"), array("i"), array("i")
        self.label, self.child, self.prob = array("i"), array("i"), array("i")
        self.seen = array("B")
        self.active, self.supports = [], []
        self.zero: Optional[int] = None  # id of the utility 0.0, once used

    def emit(self, player: Optional[PlayerRole], utility: Optional[int],
             labels=(), children=(), probs=(), seen=b"", active=None,
             support=None) -> int:
        """Append a node played by ``player``, of utility id ``utility`` (0.0 if
        ``None``), edges as id lists, ``seen`` as bytes; returns its id."""
        if utility is None:
            if self.zero is None:
                self.zero = self.utilities.id(0.0)
            utility = self.zero
        if seen:
            self.label.fromlist(labels)
            self.child.fromlist(children)
            self.prob.fromlist(probs)
            self.seen.frombytes(seen)
        self.player.append(self.roles.id(player))
        self.utility.append(utility)
        self.end.append(len(self.child))
        self.active.append(active)
        self.supports.append(support)
        return len(self.player) - 1

    def copy(self, lo: int, root: int) -> int:
        """Append a copy of the nodes ``lo..root`` and of their edges: every
        column is extended by its slice, with child ids and edge ends
        shifted by the distance of the copy; returns the copy of ``root``.
        The bookkeeping tuples are shared with the original range."""
        shift = len(self.player) - lo
        e0, e1 = self.end[lo - 1] if lo else 0, self.end[root]
        self.end.frombytes(_shifted(self.end, lo, root + 1,
                                    len(self.child) - e0))
        self.child.frombytes(_shifted(self.child, e0, e1, shift))
        for column in (self.player, self.utility, self.active, self.supports):
            column.extend(column[lo:root + 1])
        for column in (self.label, self.prob, self.seen):
            column.extend(column[e0:e1])
        return root + shift

    def pack(self, name: str, players: tuple[PlayerRole, ...],
             root: int) -> "ConvertedTree":
        """The columns as a :class:`ConvertedTree`; each column is emptied
        once it is packed."""
        def take(column: array, dtype) -> np.ndarray:
            packed = np.array(column, dtype=dtype)
            del column[:]
            return packed

        return ConvertedTree(
            name=name, players=players, root=root,
            roles=tuple(self.roles.values), labels=tuple(self.labels.values),
            probs=tuple(self.probs.values),
            utilities=tuple(self.utilities.values),
            player=take(self.player, np.int32),
            utility=take(self.utility, np.int32),
            end=take(self.end, np.int32), label=take(self.label, np.int32),
            child=take(self.child, np.int32), prob=take(self.prob, np.int32),
            seen=take(self.seen, np.uint8))


@dataclass
class _Walk:
    """A breadth-first pass over a :class:`ConvertedTree`.  ``order`` holds
    the node ids depth by depth, depth ``d`` at ``order[bounds[d]:bounds[d +
    1]]``, and ``edges`` their edges, node by node in action order.  Per
    observer bit, ``seq[bit]`` gives every node id the id of the label
    sequence that observer saw on the way (-1: unreached); sequence 0 is
    empty, and ``steps[bit]`` holds the others' steps ``parent *
    len(labels) + label`` in id order (new ones at each depth ascending)."""

    order: np.ndarray
    bounds: list[int]
    edges: np.ndarray
    seq: dict[int, np.ndarray]
    steps: dict[int, np.ndarray]
    labels: tuple[str, ...]

    def keys(self, bit: int) -> Callable[[list[int]], list[tuple[str, ...]]]:
        """A function from sequence ids of observer ``bit`` to their label
        tuples, made for them and their prefixes; it holds the steps only."""
        mine, labels = self.steps[bit], self.labels

        def keys(seqs: list[int]) -> list[tuple[str, ...]]:
            steps, table = mine.tolist(), {0: ()}
            for s in seqs:  # its prefixes not yet made, then itself
                path = [s]
                while path[-1] not in table:
                    path.append(steps[path[-1] - 1] // len(labels))
                for t in reversed(path[:-1]):
                    parent, label = divmod(steps[t - 1], len(labels))
                    table[t] = table[parent] + (labels[label],)
            return [table[s] for s in seqs]
        return keys


@dataclass(frozen=True, eq=False)
class ConvertedTree:
    """A converted game tree as int columns; node ids are the game's.

    Node ``v`` is played by ``roles[player[v]]`` (``None``: a terminal),
    has utility ``utilities[utility[v]]`` and owns the edges ``end[v - 1]
    .. end[v] - 1`` (from 0 for node 0).  Edge ``e`` plays
    ``labels[label[e]]`` into node ``child[e]`` with probability
    ``probs[prob[e]]`` (``None`` off chance); ``seen[e]`` has the bit
    ``COORD_SEEN`` when the coordinator observes it and ``OPP_SEEN`` when
    the opponent does.  The tables hold each value once.  Two trees are
    equal when their columns, read through their tables, hold equal values,
    which is when their views (:attr:`game`) are equal.
    """

    name: str
    players: tuple[PlayerRole, ...]
    root: int
    roles: tuple[Optional[PlayerRole], ...]
    labels: tuple[str, ...]
    probs: tuple
    utilities: tuple
    player: np.ndarray
    utility: np.ndarray
    end: np.ndarray
    label: np.ndarray
    child: np.ndarray
    prob: np.ndarray
    seen: np.ndarray

    @classmethod
    def from_game(cls, game: VEFG) -> "ConvertedTree":
        """The columns of ``game``, which is kept as their view."""
        b = _Columns()
        for node in game.nodes:
            b.emit(node.player, b.utilities.id(node.utility),
                   [b.labels.id(e.label) for e in node.edges],
                   [e.child for e in node.edges],
                   [b.probs.id(e.prob) for e in node.edges],
                   bytes(COORD_SEEN * (COORDINATOR in e.seen_by)
                         | OPP_SEEN * (OPPONENT in e.seen_by)
                         for e in node.edges))
        tree = b.pack(game.name, game.players, game.root)
        vars(tree)["game"] = game
        return tree

    @cached_property
    def game(self) -> VEFG:
        """The tree as a :class:`VEFG`, built in one pass the first time it
        is read and kept; terminals of one utility share one node."""
        labels, probs, roles = self.labels, self.probs, self.roles
        utilities = self.utilities
        with gc_paused():
            edges = [Edge(labels[a], c, probs[p], _SEEN_BY[s])
                     for a, c, p, s in zip(
                         self.label.tolist(), self.child.tolist(),
                         self.prob.tolist(), self.seen.tolist())]
            leaves = [Node(utility=u) for u in utilities]
            nodes, a = [], 0
            for r, u, b in zip(self.player.tolist(), self.utility.tolist(),
                               self.end.tolist()):
                role = roles[r]
                nodes.append(leaves[u] if role is None else
                             Node(role, tuple(edges[a:b]), utilities[u]))
                a = b
            return VEFG(self.name, self.players, tuple(nodes), self.root)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConvertedTree):
            return NotImplemented
        ids: dict = {}  # equal values, of any type, get one id

        def columns(t: ConvertedTree) -> list:
            return [t.end, t.child, t.seen] + [
                np.array([ids.setdefault(x, len(ids)) for x in table],
                         dtype=np.int64)[column] for table, column in (
                    (t.roles, t.player), (t.utilities, t.utility),
                    (t.labels, t.label), (t.probs, t.prob))]

        return self is other or (
            (self.name, self.players, self.root)
            == (other.name, other.players, other.root)
            and all(map(np.array_equal, columns(self), columns(other))))

    def __hash__(self) -> int:
        return hash((self.name, self.players, self.root, len(self.player),
                     len(self.child)))

    def count(self) -> np.ndarray:
        """Per node, its number of edges."""
        return np.diff(self.end, prepend=0)

    def played_by(self, role: Optional[PlayerRole]) -> np.ndarray:
        """Per node, whether ``role`` plays it (``None``: a terminal)."""
        return np.array([r is role for r in self.roles])[self.player]

    def actions(self, nid: int) -> tuple[str, ...]:
        """The action labels of node ``nid``."""
        a, b = (self.end[nid - 1] if nid else 0), self.end[nid]
        return tuple(self.labels[k] for k in self.label[a:b].tolist())

    def edges_of(self, nodes: np.ndarray, count: np.ndarray) -> np.ndarray:
        """The edge ids of ``nodes``, node by node in action order, given
        the per-node edge ``count``."""
        c = count[nodes]
        return _ranges(self.end[nodes] - c, c)

    def check(self) -> np.ndarray:
        """Check the tree rules on the columns, whose indices are in range:
        every node but the root has exactly one parent, the root none, and
        every node is reached from the root; terminals have no edges and
        other nodes at least one; no node repeats a label; an edge has a
        probability exactly when its node is chance, and each distinct
        chance row holds probabilities in [0, 1] that sum, in edge order,
        to 1 (exactly for rationals, within ``PROB_TOL`` for floats); every
        decision role is a player.  Returns the per-node edge count."""
        n, count = len(self.player), self.count()
        parents = np.bincount(self.child, minlength=n)
        if parents[self.root]:
            raise CyclicStructure(f"root {self.root} has a parent")
        parents[self.root] = 1
        for bad, says in ((parents > 1, "has several parents"),
                          (parents == 0, "is unreachable from root")):
            if bad.any():
                raise CyclicStructure(f"node {int(np.argmax(bad))} {says}")
        # one parent each, so the level pass meets every node at most once
        level, reached = np.array([self.root]), 1
        while level.size:
            level = self.child[self.edges_of(level, count)]
            reached += level.size
        if reached != n:
            raise CyclicStructure(f"{n - reached} nodes lie on a cycle "
                                  "unreachable from root")
        terminal = self.played_by(None)
        bad = np.flatnonzero((count == 0) != terminal)
        if bad.size:
            v = int(bad[0])
            raise CyclicStructure(f"node {v} is a terminal with edges" if
                                  terminal[v] else
                                  f"non-terminal node {v} has no edges")
        owner = np.repeat(np.arange(n), count)
        key = np.sort(owner * len(self.labels) + self.label)
        dup = np.flatnonzero(key[1:] == key[:-1])
        if dup.size:
            v, a = divmod(int(key[dup[0]]), len(self.labels))
            raise ActionMismatchWithinInfoset(
                f"duplicate action label {self.labels[a]!r} at node {v}")
        chance = self.played_by(CHANCE)
        has_prob = np.array([p is not None for p in self.probs],
                            dtype=bool)[self.prob]
        bad = np.flatnonzero(has_prob != chance[owner])
        if bad.size:
            v = int(owner[bad[0]])
            raise ProbabilityNotNormalized(
                f"chance node {v} has an edge without probability" if chance[v]
                else f"decision node {v} carries chance probabilities")
        chance_nodes = np.flatnonzero(chance)
        for c in np.flatnonzero(np.bincount(count[chance_nodes])).tolist():
            nodes = chance_nodes[count[chance_nodes] == c]
            rows, first = np.unique(
                self.prob[self.edges_of(nodes, count)].reshape(-1, c), axis=0,
                return_index=True)
            for row, v in zip(rows.tolist(), nodes[first].tolist()):
                bad = next((self.probs[p] for p in row
                            if not 0 <= self.probs[p] <= 1), None)
                if bad is not None:
                    raise ProbabilityNotNormalized(
                        f"chance node {v} has probability {bad} outside "
                        "[0, 1]")
                total = sum(self.probs[p] for p in row)
                if not (total == 1 if isinstance(total, Fraction)
                        else abs(total - 1.0) <= PROB_TOL):
                    raise ProbabilityNotNormalized(
                        f"chance node {v} probabilities sum to {total}")
        deciding = ~(terminal | chance)
        for r in np.flatnonzero(np.bincount(self.player[deciding])).tolist():
            if self.roles[r] not in self.players:
                v = int(np.flatnonzero(deciding & (self.player == r))[0])
                raise UnknownPlayer(f"node {v} acted by unlisted player "
                                    f"{self.roles[r].name}")
        return count

    def walk(self) -> _Walk:
        """One level-synchronous pass from the root (see :class:`_Walk`).
        Per depth and observer, each distinct (parent's sequence, label)
        code seen keeps the id it got at an earlier depth or gets a new one,
        numbered in arrays; unseen edges pass their parent's sequence on."""
        count = self.count()
        n_labels = len(self.labels)
        seq = {bit: np.full(len(self.player), -1, dtype=np.int64)
               for bit in (COORD_SEEN, OPP_SEEN)}
        # per observer: its new steps per depth, every step's id, and the
        # first id made at the previous depth
        steps, index = {bit: [] for bit in seq}, {bit: {} for bit in seq}
        fresh = dict.fromkeys(seq, 0)
        level = np.array([self.root], dtype=np.int64)
        for s in seq.values():
            s[level] = 0
        order, edges, bounds = [], [], [0]
        while level.size:
            order.append(level)
            bounds.append(bounds[-1] + level.size)
            e = self.edges_of(level, count)
            kids = self.child[e]
            at = np.repeat(level, count[level])
            for bit, s in seq.items():
                kid_seq = s[at]
                seen = (self.seen[e] & bit) != 0
                found, inv = np.unique(
                    kid_seq[seen] * n_labels + self.label[e[seen]],
                    return_inverse=True)
                ids, got = index[bit], np.zeros(found.size, np.int64)
                # a step from a parent made at the previous depth is new
                old = found < fresh[bit] * n_labels
                got[old] = [ids.get(c, 0) for c in found[old].tolist()]
                new = got == 0
                fresh[bit] = len(ids) + 1
                got[new] = fresh[bit] + np.arange(np.count_nonzero(new))
                ids.update(zip(found[new].tolist(), got[new].tolist()))
                steps[bit].append(found[new])
                kid_seq[seen] = got[inv]
                s[kids] = kid_seq
            edges.append(e)
            level = kids.astype(np.int64)
        return _Walk(np.concatenate(order), bounds, np.concatenate(edges), seq,
                     {bit: np.concatenate(c) for bit, c in steps.items()},
                     self.labels)


@dataclass(frozen=True, kw_only=True)
class ConvertedGame:
    """A converted two-player zero-sum game plus conversion bookkeeping.

    ``tree`` holds the game as columns (:class:`ConvertedTree`); ``game``
    is its :class:`VEFG` view, built on first use and shared by every
    ``ConvertedGame`` on the same tree, such as ``dataclasses.replace(cg)``
    and :func:`apply_safe_imperfect_recall`.

    The per-node tuples are indexed like ``game.nodes``.  At coordinator
    nodes, ``active`` lists the team infosets a prescription covers (at
    least one) and ``supports`` the compatible source states (sorted ids);
    elsewhere both are ``None``.  Edge ``k`` of a coordinator node
    prescribes the ``k``-th element of ``itertools.product`` over the
    active infosets' action lists, and leads to the chance node resolving
    it.  ``node_kind`` and ``origin_player`` are derived from these, and
    the infosets by :func:`compile_converted`, kept in the instance dict.
    """

    mode: str                     # "basic" | "pruned" | "folded"
    safe_ir_applied: bool
    source_digest: str
    active: tuple[Optional[tuple[int, ...]], ...]
    iset_refs: tuple[TeamInfosetRef, ...]        # team iset id -> (player, key)
    iset_actions: tuple[tuple[str, ...], ...]    # team iset id -> action labels
    supports: tuple[Optional[tuple[int, ...]], ...]
    tree: ConvertedTree

    @property
    def game(self) -> VEFG:
        return self.tree.game

    @property
    def origin_player(self) -> tuple[Optional[PlayerRole], ...]:
        """Per node, the team member behind a coordinator node and the
        chance nodes resolving its prescriptions: the player of its first
        active infoset; ``None`` elsewhere."""
        tree, count = self.tree, self.tree.count()
        coord = np.flatnonzero(tree.played_by(COORDINATOR))
        first = [self.active[v][0] for v in coord.tolist()]
        iset = np.full(len(tree.player), -1)
        iset[tree.child[tree.edges_of(coord, count)]] = np.repeat(
            first, count[coord])
        iset[coord] = first
        members = tuple(p for p, _ in self.iset_refs) + (None,)  # -1: none
        return tuple(map(members.__getitem__, iset.tolist()))

    @property
    def node_kind(self) -> tuple[str, ...]:
        """Per node: ``coord`` (coordinator decision), ``dummy``
        (probability-one chance playing the prescribed action; fold off),
        ``presc`` (chance resolving a prescription against the belief; fold
        on) or ``copy`` (chance / opponent / terminal copied from the
        source)."""
        resolve = "presc" if self.mode == "folded" else "dummy"
        coord = self.tree.played_by(COORDINATOR).tolist()
        return tuple("coord" if c else "copy" if p is None else resolve
                     for c, p in zip(coord, self.origin_player))


# mode -> (prune, fold)
_SWITCHES = {"basic": (False, False), "pruned": (True, False),
             "folded": (True, True)}

# a belief: (source state, weight) pairs, the weights ints of gcd 1
Belief = tuple[tuple[int, int], ...]


def _reduced(pairs) -> Belief:
    """``(state, weight)`` pairs, not all of weight 0, with their weights
    divided by their gcd."""
    d = gcd(*(w for _, w in pairs))
    return tuple(pairs) if d == 1 else tuple((s, w // d) for s, w in pairs)


def _split(items: list) -> list[tuple]:
    """Group successor ``(key, child, weight, seen bits)`` items by key, in
    first-seen order, as ``(key, numerator, denominator, child belief, seen
    bits)``: the group's weight over the items' total, reduced, and the seen
    bits of its last item.  A one-state group's belief has weight 1; a
    larger one keeps its weights, over their gcd, or gets weight 1 on every
    state when its mass is 0."""
    groups: dict = {}
    last_seen: dict = {}
    total = sum(x[2] for x in items)
    for key, child, w, seen in items:
        groups.setdefault(key, []).append((child, w))
        last_seen[key] = seen
    out = []
    for key, members in groups.items():
        q = sum(w for _, w in members)
        belief = (((members[0][0], 1),) if len(members) == 1 else
                  _reduced(members) if q else tuple((c, 1) for c, _ in members))
        d = gcd(q, total)
        out.append((key, q // d, total // d, belief, last_seen[key]))
    return out


class _Source:
    """A source node as the builder reads it: its edges' labels, children,
    probabilities and converted seen bits, a label -> edge ``index``, and at
    chance the probabilities as int ``weights`` over their lcm ``scale``."""

    __slots__ = ("player", "utility", "labels", "children", "probs", "seen",
                 "index", "weights", "scale")

    def __init__(self, node: Node, team: frozenset, opp) -> None:
        edges, self.player, self.utility = node.edges, node.player, node.utility
        self.labels = tuple(e.label for e in edges)
        self.children = tuple(e.child for e in edges)
        self.probs = tuple(e.prob for e in edges)
        self.seen = bytes(COORD_SEEN * (team <= e.seen_by)
                          | OPP_SEEN * (opp in e.seen_by) for e in edges)
        self.index = {a: k for k, a in enumerate(self.labels)}
        if node.player is CHANCE:
            probs = [Fraction(p) for p in self.probs]
            self.scale = lcm(*(p.denominator for p in probs))
            self.weights = [p.numerator * (self.scale // p.denominator)
                            for p in probs]


@dataclass(eq=False)
class _Prepared:
    """What the converters and the payoff check read of a source game: the
    infosets of the game with team perfect recall (the groups its check
    returned) in the order of a pure-profile row, the first ``team`` of
    them the team's, their actions and the infoset id ``of`` each decision
    node; that game (``None``: the source game, lest the record make a
    cycle); and the source table, once a conversion made it."""

    refs: tuple[TeamInfosetRef, ...]
    actions: tuple[tuple[str, ...], ...]
    of: dict[int, int]
    team: int
    refined: Optional[VEFG]
    sources: Optional[tuple[_Source, ...]] = None


def _prepare(game: VEFG) -> _Prepared:
    """The record of ``game``, kept in ``vars(game)`` once ``game`` with team
    perfect recall is public turn-taking (checked first, as the transform
    may repair it) and has perfect recall; a game that fails raises anew."""
    rec = vars(game).get("_prepared")
    if rec is not None:
        return rec
    g = team_perfect_recall_refinement(game)
    if not is_public_turn_taking(g):
        raise NotPublicTurnTaking(
            f"game {game.name!r} is not public turn-taking; apply "
            "make_public_turn_taking first")
    groups = check_perfect_recall(g)
    refs, actions, of = [], [], {}
    for p in sorted(groups, key=PlayerRole.sort_key):
        for key, members in sorted(groups[p].items()):
            of.update(dict.fromkeys(members, len(refs)))
            refs.append((p, key))
            actions.append(tuple(e.label for e in g.nodes[members[0]].edges))
    rec = vars(game)["_prepared"] = _Prepared(
        tuple(refs), tuple(actions), of,
        sum(p.kind == "team" for p, _ in refs), None if g is game else g)
    return rec


class _Prescriptions:
    """The prescriptions over one ``active`` tuple, in edge order: their
    ``G[...]`` labels and per active position its play, the action prescribed
    there and the infosets whose states stay compatible after it (under prune
    those prescribed it, else all); ``edges``: their ids, once emitted."""

    def __init__(self, active, iset_actions, prune: bool) -> None:
        self.names, self.plays, self.edges = [], [], None
        for combo in itertools.product(*(iset_actions[i] for i in active)):
            self.names.append("G[" + ",".join(
                f"{i}={a}" for i, a in zip(active, combo)) + "]")
            self.plays.append([(a, tuple(i for i, x in zip(active, combo)
                                         if x == a) if prune else active)
                               for a in combo])


def _convert(game: VEFG, mode: str) -> ConvertedGame:
    prune, fold = _SWITCHES[mode]
    rec, opp = _prepare(game), game.opponent()
    if rec.sources is None:
        team = frozenset(game.team_players())
        rec.sources = tuple(_Source(v, team, opp)
                            for v in (rec.refined or game).nodes)
    src, iset_of, iset_actions = rec.sources, rec.of, rec.actions
    b = _Columns()
    labels, probs = b.labels, b.probs
    # per game the source table; per conversion: per source node its edges'
    # label and probability ids once copied, per active tuple, per terminal
    # belief its utility id, and per (support, step) the support after it
    edge_ids: dict[_Source, tuple[list, list]] = {}
    prescriptions: dict[tuple[int, ...], _Prescriptions] = {}
    utility_of: dict[Belief, int] = {}
    next_supports: dict[tuple, tuple[int, ...]] = {}

    def next_support(support: tuple[int, ...], step) -> tuple[int, ...]:
        """The children of the ``support`` states through every edge
        (``step`` is ``None``), the edges labelled ``step``, or for a play
        ``step = (action, infosets)`` the action at those infosets' states."""
        out = next_supports.get((support, step))
        if out is None:
            if step is None:
                out = tuple(c for s in support for c in src[s].children)
            elif isinstance(step, str):
                out = tuple(src[s].children[src[s].index[step]]
                            for s in support if step in src[s].index)
            else:
                a, isets = step
                out = tuple(src[s].children[src[s].index[a]] for i in isets
                            for s in support
                            if iset_of[s] == i and a in src[s].index)
            next_supports[support, step] = out
        return out

    def utility(belief: Belief) -> int:
        """Id of the belief-weighted utility ``Σ w·u / Σ w`` of terminal
        states, in exact arithmetic; with fold off, the state's own."""
        uid = utility_of.get(belief)
        if uid is None:
            if not fold:
                uid = b.utilities.id(src[belief[0][0]].utility)
            else:
                exact = [(*src[s].utility.as_integer_ratio(), w)
                         for s, w in belief]
                den = lcm(*(d for _, d, _ in exact))
                num = sum(w * n * (den // d) for n, d, w in exact)
                den *= sum(w for _, w in belief)
                d = gcd(num, den)
                uid = b.utilities.ratio(num // d, den // d)
            utility_of[belief] = uid
        return uid

    # The one reuse rule: ``expand`` is a pure function of ``(belief,
    # support)`` and emits its subtree as one post-order id range ``[lo,
    # root]``, so ``build`` answers a repeat with a shifted copy of it.
    spans: dict[tuple, tuple[int, int]] = {}

    def build(belief: Belief, support: tuple[int, ...]) -> int:
        if src[belief[0][0]].player is None:  # terminal: emitted, not copied
            return b.emit(None, utility(belief))
        span = spans.get((belief, support))
        if span is not None:
            return b.copy(*span)
        lo = len(b.player)
        root = expand(belief, support)
        spans[belief, support] = (lo, root)
        return root

    def expand(belief: Belief, support: tuple[int, ...]) -> int:
        # the belief, conditioned on the whole path, gives probabilities and
        # utilities; the support, on what the coordinator saw, the infosets
        node = src[belief[0][0]]
        player = node.player
        if player is CHANCE and fold:
            m = lcm(*(src[s].scale for s, _ in belief))
            items = [(a, c, w * (m // src[s].scale) * x, seen)
                     for s, w in belief for a, c, x, seen in zip(
                         src[s].labels, src[s].children, src[s].weights,
                         src[s].seen)]
            if not any(node.seen):  # seen by neither side: folded away
                return build(_reduced([(c, w) for _, c, w, _ in items]),
                             next_support(support, None))
            # explicit chance: branch by label with belief-marginal probs
            groups = [grp for grp in _split(items) if grp[1]]
            children = [build(nb, next_support(
                support, a if seen & COORD_SEEN else None))
                for a, _, _, nb, seen in groups]
            return b.emit(CHANCE, None, [labels.id(grp[0]) for grp in groups],
                          children, [probs.ratio(*grp[1:3]) for grp in groups],
                          bytes(grp[4] for grp in groups))
        if player is CHANCE or player is opp:
            # copied edge by edge; every belief state shares the labels
            children = [
                build(tuple((src[s].children[k], w) for s, w in belief),
                      next_support(support, a if node.seen[k] & COORD_SEEN
                                   else None))
                for k, a in enumerate(node.labels)]
            ids = edge_ids.get(node) or edge_ids.setdefault(node, (
                [labels.id(a) for a in node.labels],
                [probs.id(p) for p in node.probs]))
            return b.emit(player, None, ids[0], children, ids[1], node.seen)
        # team decision node -> coordinator node with one edge per
        # prescription, each resolved by a chance node over the distinct
        # actions it prescribes to the belief states
        active = tuple(sorted({iset_of[s] for s in support}))
        pre = prescriptions.get(active) or prescriptions.setdefault(
            active, _Prescriptions(active, iset_actions, prune))
        states = [(src[s], w, active.index(iset_of[s])) for s, w in belief]
        resolves = []
        for plays in pre.plays:
            if len(states) == 1:  # one edge, of probability 1
                r, _, p = states[0]
                play = plays[p]
                k = r.index[play[0]]
                child = build(((r.children[k], 1),),
                              next_support(support, play))
                resolves.append(b.emit(
                    CHANCE, None, [labels.id(play[0])], [child],
                    [probs.ratio(1, 1)],
                    bytes((COORD_SEEN | r.seen[k] & OPP_SEEN,))))
                continue
            groups = []
            for r, w, p in states:
                k = r.index[plays[p][0]]
                groups.append((plays[p], r.children[k], w, r.seen[k]))
            groups = _split(groups)
            # in declaration order of the acting infoset's action list
            groups.sort(key=lambda grp: node.index.get(grp[0][0],
                                                       len(node.index)))
            children = [build(nb, next_support(support, play))
                        for play, _, _, nb, _ in groups]
            resolves.append(b.emit(
                CHANCE, None, [labels.id(play[0]) for play, *_ in groups],
                children, [probs.ratio(q, t) for _, q, t, _, _ in groups],
                bytes(COORD_SEEN | seen & OPP_SEEN for *_, seen in groups)))
        if pre.edges is None:
            pre.edges = ([labels.id(name) for name in pre.names],
                         [probs.id(None)] * len(pre.names),
                         bytes([COORD_SEEN]) * len(pre.names))
        return b.emit(COORDINATOR, None, pre.edges[0], resolves,
                      pre.edges[1], pre.edges[2], active=active,
                      support=tuple(sorted(support)))

    # two Python frames (build, expand) per source level, plus the root call
    try:
        with gc_paused(), recursion_headroom(2 * len(src) + 2):
            root = build(((game.root, 1),), (game.root,))
            players = ((COORDINATOR, OPPONENT) if opp is not None
                       else (COORDINATOR,))
            return ConvertedGame(
                tree=b.pack(f"{game.name}[{mode}]", players, root), mode=mode,
                safe_ir_applied=False, source_digest=game_digest(game),
                active=tuple(b.active), iset_refs=rec.refs[:rec.team],
                iset_actions=iset_actions[:rec.team],
                supports=tuple(b.supports))
    finally:
        # ``build`` and ``expand`` refer to each other; dropping one frees
        # the memo and the builder's lists on return, not at the next run
        # of the cyclic collector
        expand = None


def convert_basic(game: VEFG) -> ConvertedGame:
    return _convert(game, "basic")


def convert_pruned(game: VEFG) -> ConvertedGame:
    return _convert(game, "pruned")


def convert_folded(game: VEFG) -> ConvertedGame:
    return _convert(game, "folded")


# ---------------------------------------------------------------------------
# Compiled form: both sides' infosets and the tree as flat arrays
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Partition:
    """An information partition of one side's decision nodes, the game ids
    ``nodes``, by arrays alone: an infoset's nodes share their ``sets``
    entry, infoset ``i`` owns the slots ``offset[i] .. offset[i + 1] - 1``,
    and infosets go in order of their first node, ``nodes[first[i]]``.  Made
    on first read: ``keys`` (``key`` of a list of entries), ``actions``, and
    ``mismatch``, a node offering other actions than its infoset's first;
    one offering another number of them is rejected at once."""

    tree: ConvertedTree
    nodes: np.ndarray
    count: InitVar[np.ndarray]  # per node: its number of actions
    sets: InitVar[np.ndarray]
    key: InitVar[Callable[[list[int]], list[tuple]]]
    first: np.ndarray = field(init=False)
    of_node: np.ndarray = field(init=False)   # infoset of each node
    offset: np.ndarray = field(init=False)
    edge_slot: np.ndarray = field(init=False)  # of each edge leaving them
    groups: list = field(init=False)  # per action count n: its slots

    def __post_init__(self, count: np.ndarray, sets: np.ndarray,
                      key: Callable) -> None:
        _, first, inv = np.unique(sets, return_index=True, return_inverse=True)
        by_first = np.argsort(first)
        self.first, self.of_node = first[by_first], np.argsort(by_first)[inv]
        per_iset = count[self.first]
        self.offset = np.concatenate(([0], np.cumsum(per_iset)))
        self.edge_slot = _ranges(self.offset[self.of_node], count)
        self.groups = [self.offset[:-1][per_iset == n][:, None] + np.arange(n)
                       for n in np.flatnonzero(np.bincount(per_iset)).tolist()]
        self._make_keys = lambda e=sets[self.first]: key(e.tolist())
        if np.any(per_iset[self.of_node] != count):  # slots would spill over
            self.agree()

    @cached_property
    def keys(self) -> list[tuple]:
        return self._make_keys()

    @cached_property
    def actions(self) -> list[tuple[str, ...]]:
        tree, cut = self.tree, self.offset.tolist()
        per = np.diff(self.offset)  # the first nodes' edges, back to back
        names = list(map(tree.labels.__getitem__, tree.label[_ranges(
            tree.end[self.nodes[self.first]] - per, per)].tolist()))
        return [tuple(names[a:b]) for a, b in zip(cut, cut[1:])]

    @cached_property
    def mismatch(self) -> str:
        tree, nodes, count = self.tree, self.nodes, self.tree.count()
        reps = nodes[self.first][self.of_node]
        bad = count[nodes] != count[reps]
        same = np.flatnonzero(~bad)
        differ = (tree.label[tree.edges_of(nodes[same], count)]
                  != tree.label[tree.edges_of(reps[same], count)])
        bad[np.repeat(same, count[nodes[same]])[differ]] = True
        i = int(np.argmax(bad)) if bad.size else 0
        return "" if not bad.any() else (
            f"action mismatch within infoset {self.keys[self.of_node[i]]!r}: "
            f"{self.actions[self.of_node[i]]} vs {tree.actions(nodes[i])}")

    def agree(self) -> None:
        if self.mismatch:
            raise ActionMismatchWithinInfoset(self.mismatch)

    def lookup(self, profile: dict, name: str) -> np.ndarray:
        """``profile``'s probabilities for this partition, one per slot."""
        flat: list = []
        for key, acts in zip(self.keys, self.actions):
            dist = profile.get(name, {}).get(key)
            if dist is None:
                raise IncompleteProfile(
                    f"profile lacks infoset {key!r} of player {name!r}")
            flat.extend(dist.get(a, 0.0) for a in acts)
        return np.array(flat, dtype=float)

    def as_profile(self, flat: np.ndarray) -> dict:
        vals = flat.tolist()
        return {key: dict(zip(acts, vals[o:o + len(acts)])) for key, acts, o
                in zip(self.keys, self.actions, self.offset.tolist())}


@dataclass
class _Treeplex:
    """One player's sequence form (von Stengel, GEB 1996), made from its
    infosets' ``after`` (the sequence each follows), ``width`` (number of
    actions) and nondecreasing ``depth``.  Sequence 0 is empty; infoset
    ``i`` owns the sequences ``head[i] .. head[i + 1] - 1``, and sequence
    ``1 + k`` is slot ``k``, of infoset ``iset`` after sequence ``parent``.
    Level ``l``, ``cut[l] .. cut[l + 1] - 1``, is a run of depths whose
    infosets follow only sequences before it.  ``term``: the sequence of
    each value-carrying terminal.  A converted game's side has per slot its
    profile ``slot`` and the nodes of its infoset ``live`` (of chance reach
    > 0); a team game's player its infosets' ``keys`` and slot ``labels``.
    A pure plan is a boolean per sequence, true at the ones it plays."""

    after: InitVar[np.ndarray]
    width: InitVar[np.ndarray]
    depth: InitVar[np.ndarray]
    term: np.ndarray
    slot: Optional[np.ndarray] = None
    live: Optional[np.ndarray] = None
    keys: list = field(default_factory=list)
    labels: tuple = ()
    parent: np.ndarray = field(init=False)
    head: np.ndarray = field(init=False)
    iset: np.ndarray = field(init=False)
    cut: list[int] = field(init=False)

    def __post_init__(self, after, width, depth) -> None:
        after = np.asarray(after, dtype=np.int64)
        offset = np.concatenate(([0], np.cumsum(width, dtype=np.int64)))
        self.head = 1 + offset
        self.iset = np.repeat(np.arange(len(after)), width)
        self.parent = np.append(0, after[self.iset])
        starts = np.flatnonzero(np.diff(depth, prepend=-1))
        cut = [0]
        for i, top in zip(starts.tolist(), np.maximum.reduceat(
                after, starts).tolist() if starts.size else []):
            if top > offset[cut[-1]]:
                cut.append(i)
        self.cut = (1 + offset[cut + [len(after)]]).tolist()

    def plan(self, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per sequence: the realization weight of ``sigma`` (a probability
        per slot), built top-down, and ``sigma``, 1 at sequence 0."""
        s = np.append(1.0, sigma)
        x = s.copy()
        for a, b in zip(self.cut, self.cut[1:]):
            x[a:b] *= x[self.parent[a:b]]
        return x, s

    def best(self, gain: np.ndarray, weight: float
             ) -> tuple[np.ndarray, np.ndarray]:
        """Best response to each row of ``gain`` (rows x sequences: what
        each sequence collects), overwriting it: deepest level first, each
        infoset's best action value is added to the sequence it follows, by
        one bincount over row-offset indices.  Returns per row its value,
        the maximum, and per row and infoset the index of its choice: the
        first action within 1e-12 x ``weight`` (the largest terminal
        weight, a rounding scale) of the best."""
        gain = gain.astype(float, copy=False)  # ints from an empty bincount
        rows, head = len(gain), self.head
        top = np.empty((rows, len(head) - 1))  # per infoset: its best action
        for a, b in list(zip(self.cut, self.cut[1:]))[::-1]:
            i, j = np.searchsorted(head, (a, b))
            top[:, i:j] = np.maximum.reduceat(gain[:, a:b], head[i:j] - a, 1)
            up = np.arange(0, rows * a, a)[:, None] + self.parent[head[i:j]]
            gain[:, :a] += np.bincount(up.ravel(), top[:, i:j].ravel(),
                                       rows * a).reshape(rows, a)
        r, s = np.nonzero(gain[:, 1:] >= top[:, self.iset] - 1e-12 * weight)
        s = s[np.diff(r * len(head) + self.iset[s], prepend=-1) > 0]
        return gain[:, 0], (1 + s - head[self.iset[s]]).reshape(rows, -1)

    def reduced(self, choice: np.ndarray) -> np.ndarray:
        """The pure plan of ``choice``, an action index per infoset: the
        chosen sequences whose infosets it reaches."""
        sigma = np.zeros(len(self.iset))
        sigma[self.head[:-1] - 1 + choice] = 1.0
        return self.plan(sigma)[0] > 0

    def count(self) -> int:
        """Number of reduced plans: bottom-up, per sequence a product over
        the infosets after it of a sum over their actions."""
        n, parent, head = [1] * len(self.parent), self.parent, self.head
        for h, e in reversed(list(zip(head.tolist(), head[1:].tolist()))):
            n[parent[h]] *= sum(n[h:e])
        return n[0]

    def plans(self) -> np.ndarray:
        """Every reduced plan, one row each: :meth:`count`'s pass with each
        product a cartesian product of partial plans."""
        size, parent, head = len(self.parent), self.parent, self.head
        below = [np.zeros((1, size), dtype=bool)] * size
        for h, e in reversed(list(zip(head.tolist(), head[1:].tolist()))):
            alt = np.concatenate([below[s] | (np.arange(size) == s)
                                  for s in range(h, e)])
            below[parent[h]] = (below[parent[h]][:, None] | alt[None]
                                ).reshape(-1, size)
        below[0][:, 0] = True
        return below[0]

    def as_dict(self, plan: np.ndarray) -> dict:
        """``plan`` as a map infoset key -> action."""
        on = np.flatnonzero(plan[1:]).tolist()
        return {self.keys[self.iset[s]]: self.labels[s] for s in on}


@dataclass
class _Side:
    nodes: np.ndarray      # the side's decision nodes, ascending
    edges: np.ndarray      # the edges leaving them, ascending
    profile: _Partition    # strategy-lookup keys (merged under safe IR)
    pr: _Partition         # perfect-recall (visibility-derived) keys
    form: Optional[_Treeplex] = None  # made by the compile, not the census


@dataclass
class _Compiled:
    """A converted game as flat arrays.  Nodes are numbered breadth-first:
    depth ``d`` holds the ids ``levels[d][0] .. levels[d][1] - 1``, each
    node's edges are consecutive and in action order, and the child of edge
    ``e`` is node ``e + 1``.  Node ``p`` is the tree's node ``order[p]``
    and edge ``e`` its edge ``edge[e]``, which lead to the value tables."""

    order: np.ndarray      # per node: its tree node id
    edge: np.ndarray       # per edge: its tree edge id
    first: np.ndarray      # per node: its first edge
    parent: np.ndarray     # per edge
    levels: list[tuple[int, int]]
    sides: dict[str, _Side]  # "coord", and "o" if the game has an opponent
    steps: list = field(init=False, repr=False)
    # per value-carrying terminal: chance reach x utility (_sequence_form)
    value: np.ndarray = field(init=False)
    # rho's index and radix matrices, made by coordinator_choices
    rho: Optional[tuple] = field(default=None, repr=False)

    @property
    def iset_actions(self) -> dict[str, dict[tuple, tuple[str, ...]]]:
        return {name: dict(zip(s.profile.keys, s.profile.actions))
                for name, s in self.sides.items()}

    def __post_init__(self) -> None:
        # per depth d: its id range, the next depth's, and the parent of
        # each node at depth d + 1 as an offset into depth d
        self.steps = [(p0, p1, a, b, self.parent[a - 1:b - 1] - p0)
                      for (p0, p1), (a, b) in zip(self.levels,
                                                  self.levels[1:])]

    def reach(self, w: np.ndarray, op=np.multiply) -> np.ndarray:
        """Per node: the ``op`` (product) of the edge weights ``w`` from the
        root, 1 there, in ``w``'s dtype.  Each row of a 2-D ``w`` gives one
        row of reaches."""
        reach = np.empty(w.shape[:-1] + (len(self.order),), dtype=w.dtype)
        reach[..., 0] = 1
        for p0, p1, a, b, up in self.steps:
            reach[..., a:b] = op(reach[..., p0:p1].take(up, axis=-1),
                                 w[..., a - 1:b - 1])
        return reach


def _sides(cg: ConvertedGame, walk: _Walk) -> dict[str, _Side]:
    """The sides of ``cg`` from a breadth-first ``walk`` of its tree: per
    side, infosets by the label sequence it saw, the coordinator's profile
    ones by compatible-state set under safe IR; each at one depth."""
    tree, order = cg.tree, walk.order
    count = tree.count()[order].astype(np.int64)
    first = np.cumsum(count) - count
    sides: dict[str, _Side] = {}
    both = (("coord", COORDINATOR, COORD_SEEN), ("o", OPPONENT, OPP_SEEN))
    for name, player, bit in both[:1 + (OPPONENT in tree.players)]:
        side_nodes = np.flatnonzero(tree.played_by(player)[order])
        nodes, counts = order[side_nodes], count[side_nodes]
        profile = pr = _Partition(tree, nodes, counts, walk.seq[bit][nodes],
                                  walk.keys(bit))
        if cg.safe_ir_applied and name == "coord":
            index: dict = {}
            merged = np.array([index.setdefault(cg.supports[v], len(index))
                               for v in nodes.tolist()], dtype=np.int64)
            profile = _Partition(tree, nodes, counts, merged, lambda ks: [
                ("sir",) + s for s in map(list(index).__getitem__, ks)])
        depth = np.searchsorted(walk.bounds, side_nodes, "right")
        if np.any(depth != depth[pr.first][pr.of_node]):
            raise NotPublicTurnTaking(
                f"an infoset of {name!r} has nodes at several depths")
        sides[name] = _Side(nodes=side_nodes, profile=profile, pr=pr,
                            edges=_ranges(first[side_nodes], counts))
    return sides


def _compile(cg: ConvertedGame) -> _Compiled:
    """:func:`compile_converted` but for its infosets' action check."""
    c = vars(cg).get("_compiled")
    if c is not None:
        return c
    tree = cg.tree
    walk = tree.walk()
    order = walk.order        # breadth-first id -> game node id
    role = tree.player[order]
    odd = np.array([r not in (None, CHANCE, COORDINATOR, OPPONENT)
                    for r in tree.roles])[role]
    if odd.any():
        i = int(np.argmax(odd))
        raise UnknownPlayer(f"node {order[i]} of a converted game belongs "
                            f"to {tree.roles[role[i]]!r}")
    count = tree.count()[order].astype(np.int64)
    utility = np.array([float(u) for u in tree.utilities])[
        tree.utility[order]]
    prob = np.array([1.0 if p is None else float(p) for p in tree.probs],
                    dtype=float)[tree.prob[walk.edges]]
    chance = np.repeat(tree.played_by(CHANCE)[order], count)
    c = _Compiled(
        order=order, edge=walk.edges, first=np.cumsum(count) - count,
        parent=np.repeat(np.arange(len(order)), count),
        levels=list(zip(walk.bounds, walk.bounds[1:])),
        sides=_sides(cg, walk))
    _sequence_form(c, c.reach(np.where(chance, prob, 1.0)),
                   np.where(tree.played_by(None)[order], utility, 0.0))
    vars(cg)["_compiled"] = c
    return c


def _sequence_form(c: _Compiled, chance: np.ndarray,
                   utility: np.ndarray) -> None:
    """Store ``c.value`` and each side's :class:`_Treeplex`, given each
    node's chance reach and utility (0 off terminals).  Slots grow with
    depth, so a node's own sequence is the largest own slot on its path.  A
    perfect-recall infoset's nodes must share it, and its slots lie in one
    profile slot each (else :class:`ImperfectRecallInput`)."""
    sides, depth = list(c.sides.items()), [a for a, _ in c.levels]
    mark = np.zeros((len(sides), len(c.parent)), dtype=np.int32)
    for k, (_, side) in enumerate(sides):
        mark[k, side.edges] = 2 + side.pr.edge_slot
    own = c.reach(mark, np.maximum) - 1  # per node: 0, or 1 + own slot
    value = chance * utility
    term = np.flatnonzero(value)
    c.value = value[term]
    for k, (name, side) in enumerate(sides):
        pr, mine = side.pr, own[k, side.nodes]
        after = mine[pr.first]  # per infoset: the sequence it follows
        slot = np.zeros(pr.offset[-1], dtype=np.int64)
        slot[pr.edge_slot] = side.profile.edge_slot
        form = side.form = _Treeplex(
            after, np.diff(pr.offset), np.searchsorted(
                depth, side.nodes[pr.first], "right"), own[k, term], slot)
        bad = np.flatnonzero(mine != after[pr.of_node])
        split = np.flatnonzero(slot[pr.edge_slot] != side.profile.edge_slot)
        if bad.size or split.size:
            i = (pr.of_node[bad[0]] if bad.size
                 else form.iset[pr.edge_slot[split[0]]])
            raise ImperfectRecallInput(f"{name!r} infoset {pr.keys[i]!r} " + (
                "is reached after several own sequences" if bad.size
                else "spans several profile infosets"))
        form.live = np.bincount(pr.of_node, chance[side.nodes] > 0,
                                len(after))[form.iset]


def compile_converted(cg: ConvertedGame) -> _Compiled:
    """Flatten a converted game for CFR and evaluation (see
    :class:`_Compiled`), once: the form is kept on ``cg``, as
    ``functools.cached_property`` would, since a ``ConvertedGame`` is
    immutable and nothing writes into the form's arrays.  It holds the
    game's sequence form, which needs perfect recall of the ``pr``
    partitions (see :func:`_sequence_form`).  Its sides
    (:func:`_sides`) are the one infoset numbering of a converted game; an
    infoset's nodes must agree on their actions."""
    c = _compile(cg)
    for side in c.sides.values():
        side.profile.agree()
        side.pr.agree()
    return c


def coordinator_node_keys(cg: ConvertedGame) -> dict[int, tuple]:
    """Infoset key per coordinator decision node, by ascending node id, in
    the profile partition of :func:`compile_converted`: under safe
    imperfect recall the merged key, ``"sir"`` followed by
    ``supports[nid]``, else the visibility-derived observation sequence."""
    c = compile_converted(cg)
    side = c.sides["coord"]
    nodes, keys = c.order[side.nodes], side.profile.keys
    by_id = np.argsort(nodes)
    return {v: keys[i] for v, i in zip(nodes[by_id].tolist(),
                                       side.profile.of_node[by_id].tolist())}


def apply_safe_imperfect_recall(cg: ConvertedGame) -> ConvertedGame:
    """Merge coordinator infosets by forgetting prescriptions for excluded
    states.

    What the coordinator retains after forgetting every prescription
    component addressed to a state excluded on the path (including the time
    at which each exclusion happened) is the public observation sequence
    plus the prescriptions to the still-compatible states — and the latter
    necessarily equal the publicly observed actions.  Both are determined by
    the current compatible-state set, so that set is the merged infoset key
    (see :func:`coordinator_node_keys`).  Node counts are unchanged; two
    coordinator nodes merge exactly when they carry the same compatible
    states.
    """
    if cg.mode not in ("pruned", "folded"):
        raise ExclusionDataMissing(
            f"safe imperfect recall needs exclusion data; mode {cg.mode!r} "
            "does not track exclusions")
    return dc_replace(cg, safe_ir_applied=True)


# ---------------------------------------------------------------------------
# Strategy mappings rho / sigma and payoff equivalence
# ---------------------------------------------------------------------------


def coordinator_choices(cg: ConvertedGame, digits: np.ndarray) -> np.ndarray:
    """rho at node level: per row of ``digits`` (an action index per team
    infoset), the index of the prescription edge each coordinator node
    takes, in the order of ``compile_converted(cg).sides["coord"].nodes``.

    The edges follow ``itertools.product`` over the active infosets' action
    lists, so the index is the mixed-radix number whose digits are the
    plan's action indices at the node's own active infosets, read by
    Horner's rule over their positions."""
    c = _compile(cg)
    if c.rho is None:  # once per converted game
        active = [cg.active[v] for v in c.order[c.sides["coord"].nodes]]
        width = max(map(len, active), default=0)
        # per node its active infosets, padded in front by -1: radix 1, digit 0
        isets = np.array([(-1,) * (width - len(a)) + a for a in active],
                         dtype=np.int64).reshape(len(active), width)
        radix = np.array([len(a) for a in cg.iset_actions] + [1])
        c.rho = isets, radix[isets]
    isets, radix = c.rho
    digits = np.hstack([digits, np.zeros((len(digits), 1), np.int64)])
    choice = np.zeros((len(digits), len(isets)), dtype=np.int64)
    for j in range(isets.shape[1]):
        choice = choice * radix[:, j] + digits[:, isets[:, j]]
    return choice


def map_team_to_coordinator(cg: ConvertedGame, joint_plan
                            ) -> dict[tuple, str]:
    """rho: map a joint team pure plan to a coordinator pure strategy.

    ``joint_plan`` maps (player, infoset key) -> action label; infosets left
    unassigned (e.g. unreachable under the plan's own choices) default to the
    first declared action.  Returns coordinator infoset key -> prescription
    edge label.
    """
    digits = []
    for ref, acts in zip(cg.iset_refs, cg.iset_actions):
        a = joint_plan.get(ref)
        if a is not None and a not in acts:
            raise IllegalActionInPlan(
                f"action {a!r} illegal at infoset {ref}; legal: {acts}")
        digits.append(0 if a is None else acts.index(a))
    c = compile_converted(cg)
    side, part = c.sides["coord"], c.sides["coord"].profile
    label = cg.tree.label[c.edge[c.first[side.nodes] + coordinator_choices(
        cg, np.array([digits], np.int64))[0]]]
    bad = np.flatnonzero(label != label[part.first][part.of_node])
    if bad.size:
        raise IllegalPrescription(
            f"inconsistent prescriptions within coordinator infoset "
            f"{part.keys[part.of_node[bad[0]]]!r}")
    return dict(zip(part.keys, map(cg.tree.labels.__getitem__,
                                   label[part.first].tolist())))


def map_coordinator_to_team(cg: ConvertedGame, pi_t
                            ) -> dict[TeamInfosetRef, str]:
    """sigma: map a coordinator pure strategy to a joint team pure plan.

    ``pi_t`` maps coordinator infoset key -> prescription edge label.  The
    team plays, at each infoset, the action the traversed prescriptions
    assign to it; infosets never prescribed get the first declared action.
    """
    tree, keys = cg.tree, coordinator_node_keys(cg)
    end, child = [0] + tree.end.tolist(), tree.child.tolist()
    plan: dict[TeamInfosetRef, str] = {}
    stack = [tree.root]
    while stack:
        nid = stack.pop()
        edges = child[end[nid]:end[nid + 1]]
        if nid not in keys:
            stack.extend(edges)
            continue
        label = pi_t.get(keys[nid])
        if label is None:
            raise IllegalPrescription(
                f"coordinator strategy undefined at infoset {keys[nid]!r}")
        if label not in tree.actions(nid):
            raise IllegalPrescription(
                f"prescription {label!r} not available at node {nid}")
        k = tree.actions(nid).index(label)
        stack.append(edges[k])
        active = cg.active[nid]
        for iid, d in zip(active, np.unravel_index(
                k, [len(cg.iset_actions[i]) for i in active])):
            a, ref = cg.iset_actions[iid][d], cg.iset_refs[iid]
            if plan.setdefault(ref, a) != a:
                raise IllegalPrescription(
                    f"conflicting actions {plan[ref]!r}/{a!r} prescribed at "
                    f"team infoset {ref}")
    for iid, ref in enumerate(cg.iset_refs):
        plan.setdefault(ref, cg.iset_actions[iid][0])
    return plan


def exact_expected_value(game: VEFG, choice) -> Fraction:
    """Expected team utility under a pure choice function, exact arithmetic.

    ``choice(nid)`` returns the selected edge index at non-chance decision
    nodes; chance is enumerated.
    """
    total = Fraction(0)
    stack: list[tuple[int, Fraction]] = [(game.root, Fraction(1))]
    while stack:
        nid, w = stack.pop()
        node = game.nodes[nid]
        if node.is_terminal:
            total += w * Fraction(node.utility)
        elif node.is_chance:
            for e in node.edges:
                p = Fraction(e.prob)
                if p:
                    stack.append((e.child, w * p))
        else:
            stack.append((node.edges[choice(nid)].child, w))
    return total


def _terms(values) -> np.ndarray:
    """Numerators and denominators of ``values`` (``None``: 1) as two rows
    of Python ints."""
    return np.array([Fraction(1 if x is None else x).as_integer_ratio()
                     for x in values], dtype=object).reshape(-1, 2).T


def converted_values(game: VEFG, cg: ConvertedGame,
                     plans: Iterable[Sequence[int]]) -> Iterator[Fraction]:
    """Exact expected team utility in ``cg``, a conversion of ``game``, of
    the pure profiles ``plans``: per row, an action index per team infoset
    in ``cg.iset_refs`` order, then per opponent infoset of ``game`` by
    sorted key; the team plan is mapped through rho.

    Checked before any row is read: ``cg`` has the team infosets of
    ``game``, and every opponent infoset of ``cg``'s compiled form (see
    :func:`compile_converted`) observed the key of an opponent infoset of
    ``game`` and offers all its actions.  Each terminal's chance-path
    product times its utility is an int over one common denominator, so a
    value is an exact int sum.  Rows go through in chunks, as boolean (rows
    x nodes) reach passes over the compiled form's levels, of at most
    ``_CHUNK_ENTRIES`` entries.
    """
    rec = _prepare(game)
    refs, actions, t = rec.refs, rec.actions, rec.team
    if (cg.iset_refs, cg.iset_actions) != (refs[:t], actions[:t]):
        raise SchemaError(f"the team infosets of {cg.tree.name} are not "
                          f"those of {game.name}")
    radix = np.array([len(a) for a in actions], dtype=np.int64)
    tree, c = cg.tree, _compile(cg)
    n, parent = len(c.order), c.parent
    # chance-path products, numerators and denominators
    path = c.reach(_terms(tree.probs)[:, tree.prob[c.edge]])
    terminals = np.flatnonzero(tree.played_by(None)[c.order])
    num, den = path[:, terminals] * _terms(tree.utilities)[
        :, tree.utility[c.order[terminals]]]
    common = lcm(*set(den.tolist()))
    weight = num * (common // den)
    # per opponent infoset: the digit of its source infoset in a row, and
    # the edge of each of that infoset's actions
    opp = c.sides.get("o")
    if opp is not None:
        index = {key: i for i, (p, key) in enumerate(refs)
                 if p.kind == "opponent"}
        digit = np.zeros(len(opp.pr.first), dtype=np.int64)
        edge = np.zeros((digit.size, radix.max(initial=0)), dtype=np.int64)
        for i, (key, labels) in enumerate(zip(opp.pr.keys, opp.pr.actions)):
            if key not in index:
                raise SchemaError(
                    f"an opponent infoset of {tree.name} observed {key!r}, "
                    f"an infoset {game.name} does not have")
            digit[i] = index[key]
            for k, a in enumerate(actions[digit[i]]):
                if a not in labels:
                    raise SchemaError(
                        f"opponent infoset {key!r} of {tree.name} lacks the "
                        f"action {a!r} of {game.name}")
                edge[i, k] = labels.index(a)
    # after the source comparison, which names a missing source action:
    # the nodes of each infoset must agree on their actions
    compile_converted(cg)
    # per edge: its index among its node's edges, and whether chance plays
    local = np.arange(n - 1) - c.first[parent]
    chance = tree.played_by(CHANCE)[c.order][parent]

    def values() -> Iterator[Fraction]:
        rows, step = iter(plans), max(1, _CHUNK_ENTRIES // n)
        while chunk := list(itertools.islice(rows, step)):
            bad = [r for r in chunk if len(r) != radix.size]
            if not bad:
                d = np.array(chunk, dtype=np.int64)
                bad = [chunk[i] for i in np.flatnonzero(
                    ((d < 0) | (d >= radix)).any(axis=1))]
            if bad:
                raise IllegalActionInPlan(f"plan {bad[0]} is not one action "
                                          "index in range per infoset")
            pick = np.zeros((len(d), n), dtype=np.int32)  # edge per decision
            pick[:, c.sides["coord"].nodes] = coordinator_choices(
                cg, d[:, :len(cg.iset_refs)])
            if opp is not None:
                of = opp.pr.of_node
                pick[:, opp.nodes] = edge[of, d[:, digit[of]]]
            reach = c.reach(chance | (pick[:, parent] == local))
            for hit in reach[:, terminals]:
                yield Fraction(int(weight[hit].sum()), common)

    return values()


def check_payoff_equivalence(game: VEFG, cg: ConvertedGame, samples: int,
                             seed: int = 0) -> dict:
    """Sample pure profiles and compare their exact expected utilities in the
    original game, by :func:`exact_expected_value`, and in the converted
    game, by :func:`converted_values`.  ``samples`` must be an int >= 0, not
    a bool (:class:`InvalidIterationCount`)."""
    check_int("samples", samples, InvalidIterationCount)
    rec = _prepare(game)
    actions, of = rec.actions, rec.of
    rng = random.Random(seed)
    # pure plans, the team's first: draw order fixes a seed's report; the
    # evaluator reads a chunk ahead, and ``tee`` keeps those rows for the
    # source side
    plans, again = itertools.tee(
        tuple(rng.randrange(len(a)) for a in actions) for _ in range(samples))
    diffs = (abs(exact_expected_value(game, lambda nid: plan[of[nid]]) - v)
             for plan, v in zip(again, converted_values(game, cg, plans)))
    return {"samples": samples,
            "max_abs_diff": max(map(float, diffs), default=0.0)}
