"""Reference CFR engine: the per-node recursive walks that the compiled
array engine in ``pubcoord.solvers`` replaced.

Kept only as an oracle for ``test_cfr_equivalence.py``.  ``traverse`` here
visits every node of the tree in Python, with both sides' strategies
regret-matched before each traversal (``iterate``); the compiled engine's
regret and strategy-sum increments must match it to 1e-12 relative per
traversal, and its expected values and best responses to 1e-12.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from pubcoord.convert import ConvertedGame, coordinator_node_keys
from pubcoord.model import (
    COORDINATOR,
    OPPONENT,
    recursion_headroom,
    seen_sequences,
)

_CHANCE, _TERMINAL, _COORD, _OPP = 0, 1, 2, 3
_PLAYER_TAG = {COORDINATOR: "coord", OPPONENT: "o"}


@dataclass
class Compiled:
    kind: list[int]
    edges: list[tuple[int, ...]]          # child ids
    labels: list[tuple[str, ...]]
    probs: list[Optional[tuple[float, ...]]]
    utility: list[float]
    depth: list[int]
    pr_key: dict[str, dict[int, tuple]]       # node -> perfect-recall key
    profile_key: dict[str, dict[int, tuple]]  # node -> strategy-lookup key
    iset_actions: dict[str, dict[tuple, tuple[str, ...]]]
    root: int = 0
    has_opponent: bool = True


def compile_reference(cg: ConvertedGame) -> Compiled:
    g = cg.game
    n = len(g.nodes)
    kind = [0] * n
    edges: list = [()] * n
    labels: list = [()] * n
    probs: list = [None] * n
    utility = [0.0] * n
    depth = [0] * n
    coord_profile = coordinator_node_keys(cg)
    coord_seqs = seen_sequences(g, COORDINATOR)
    has_opp = OPPONENT in g.players
    opp_seqs = seen_sequences(g, OPPONENT) if has_opp else {}
    pr_key: dict = {"coord": {}, "o": {}}
    profile_key: dict = {"coord": {}, "o": {}}
    iset_actions: dict = {"coord": {}, "o": {}}
    stack = [(g.root, 0)]
    while stack:
        nid, d = stack.pop()
        depth[nid] = d
        node = g.nodes[nid]
        if node.is_terminal:
            kind[nid] = _TERMINAL
            utility[nid] = float(node.utility)
            continue
        edges[nid] = tuple(e.child for e in node.edges)
        labels[nid] = tuple(e.label for e in node.edges)
        for e in node.edges:
            stack.append((e.child, d + 1))
        if node.is_chance:
            kind[nid] = _CHANCE
            probs[nid] = tuple(float(Fraction(e.prob)) for e in node.edges)
            continue
        side = _PLAYER_TAG[node.player]
        kind[nid] = _COORD if side == "coord" else _OPP
        pk = coord_seqs[nid] if side == "coord" else opp_seqs[nid]
        fk = coord_profile[nid] if side == "coord" else pk
        pr_key[side][nid] = pk
        profile_key[side][nid] = fk
        iset_actions[side].setdefault(fk, labels[nid])
    return Compiled(kind=kind, edges=edges, labels=labels, probs=probs,
                    utility=utility, depth=depth, pr_key=pr_key,
                    profile_key=profile_key, iset_actions=iset_actions,
                    root=g.root, has_opponent=has_opp)


def _regret_match(regrets: np.ndarray) -> np.ndarray:
    pos = np.maximum(regrets, 0.0)
    s = pos.sum()
    if s <= 0:
        return np.full(len(regrets), 1.0 / len(regrets))
    return pos / s


def sides_of(c: Compiled) -> list[str]:
    return ["coord"] + (["o"] if c.has_opponent else [])


def zero_tables(c: Compiled) -> dict:
    """Per side, infoset key -> zero array over its actions."""
    return {s: {k: np.zeros(len(a)) for k, a in c.iset_actions[s].items()}
            for s in sides_of(c)}


def match_all(c: Compiled, regrets: dict) -> dict:
    return {s: {k: _regret_match(r) for k, r in regrets[s].items()}
            for s in sides_of(c)}


def traverse(c: Compiled, me: str, frozen: dict, regrets: dict,
             strat_sum: dict) -> float:
    """One CFR traversal for side ``me`` under the per-infoset strategies
    ``frozen``: a depth-first walk that adds ``me``'s counterfactual regrets
    and reach-weighted strategies to the tables in place and returns the
    root value for ``me``.  Zero-probability chance edges are not
    entered."""
    node_side = {nid: s for s in sides_of(c) for nid in c.profile_key[s]}

    def walk(nid, reach_me, reach_other):
        k = c.kind[nid]
        if k == _TERMINAL:
            u = c.utility[nid]
            return u if me == "coord" else -u
        if k == _CHANCE:
            total = 0.0
            for ch, p in zip(c.edges[nid], c.probs[nid]):
                if p == 0.0:
                    continue
                total += p * walk(ch, reach_me, reach_other * p)
            return total
        side = node_side[nid]
        key = c.profile_key[side][nid]
        sigma = frozen[side][key]
        if side != me:
            total = 0.0
            for i, ch in enumerate(c.edges[nid]):
                total += sigma[i] * walk(ch, reach_me, reach_other * sigma[i])
            return total
        vals = np.empty(len(c.edges[nid]))
        for i, ch in enumerate(c.edges[nid]):
            vals[i] = walk(ch, reach_me * sigma[i], reach_other)
        node_val = float(sigma @ vals)
        regrets[side][key] += reach_other * (vals - node_val)
        strat_sum[side][key] += reach_me * sigma
        return node_val

    with recursion_headroom(len(c.kind)):
        return walk(c.root, 1.0, 1.0)


def iterate(c: Compiled, algo: str, t: int, regrets: dict,
            strat_sum: dict) -> None:
    """Iteration ``t`` of ``algo``, updating the tables in place."""
    sides = sides_of(c)
    if algo == "cfr":
        frozen = match_all(c, regrets)
        for s in sides:
            traverse(c, s, frozen, regrets, strat_sum)
    else:
        for s in sides:
            traverse(c, s, match_all(c, regrets), regrets, strat_sum)
            for tab in regrets[s].values():
                np.maximum(tab, 0.0, out=tab)
    if algo == "lcfr+":
        w = t / (t + 1.0)
        for s in sides:
            for tab in regrets[s].values():
                tab *= w
            for tab in strat_sum[s].values():
                tab *= w * w


def solve_cfr(cg: ConvertedGame, algo: str = "lcfr+",
              iterations: int = 1000, log_every: int = 0):
    """Returns ``(profile, rows)`` with rows ``(iteration, team value,
    exploitability)`` every ``log_every`` iterations."""
    c = compile_reference(cg)
    regrets, strat_sum = zero_tables(c), zero_tables(c)

    def average_profile():
        prof: dict = {}
        for s in sides_of(c):
            prof[s] = {}
            for key, acts in c.iset_actions[s].items():
                w = strat_sum[s][key]
                tot = w.sum()
                if tot <= 0:
                    dist = np.full(len(acts), 1.0 / len(acts))
                else:
                    dist = w / tot
                prof[s][key] = {a: float(p) for a, p in zip(acts, dist)}
        return prof

    rows = []
    for t in range(1, iterations + 1):
        iterate(c, algo, t, regrets, strat_sum)
        if log_every and (t % log_every == 0 or t == iterations):
            prof = average_profile()
            rows.append((t, expected_value(c, prof),
                         exploitability(c, prof)))
    return average_profile(), rows


def _profile_dist(profile, side, key, actions):
    d = profile[side][key]
    return np.array([d.get(a, 0.0) for a in actions])


def expected_value(c: Compiled, profile) -> float:
    def walk(nid) -> float:
        k = c.kind[nid]
        if k == _TERMINAL:
            return c.utility[nid]
        if k == _CHANCE:
            return sum(p * walk(ch)
                       for ch, p in zip(c.edges[nid], c.probs[nid]) if p)
        side = "coord" if k == _COORD else "o"
        dist = _profile_dist(profile, side, c.profile_key[side][nid],
                             c.labels[nid])
        return float(sum(p * walk(ch)
                         for ch, p in zip(c.edges[nid], dist) if p))

    with recursion_headroom(len(c.kind)):
        return walk(c.root)


def best_response(c: Compiled, profile, responder: str):
    other = "o" if responder == "coord" else "coord"
    sign = 1.0 if responder == "coord" else -1.0
    cf = np.zeros(len(c.kind))
    cf[c.root] = 1.0
    by_depth: dict[int, list[int]] = {}
    order = sorted(range(len(c.kind)), key=lambda n: c.depth[n])
    for nid in order:
        by_depth.setdefault(c.depth[nid], []).append(nid)
    for nid in order:
        k = c.kind[nid]
        if k == _TERMINAL:
            continue
        if k == _CHANCE:
            for ch, p in zip(c.edges[nid], c.probs[nid]):
                cf[ch] += cf[nid] * p
        elif (k == _COORD) == (responder == "coord"):
            for ch in c.edges[nid]:
                cf[ch] += cf[nid]
        else:
            dist = _profile_dist(profile, other, c.profile_key[other][nid],
                                 c.labels[nid])
            for ch, p in zip(c.edges[nid], dist):
                cf[ch] += cf[nid] * p
    resp_isets: dict[tuple, list[int]] = {}
    for nid, key in c.pr_key[responder].items():
        resp_isets.setdefault(key, []).append(nid)
    value = np.zeros(len(c.kind))
    # 1e-12 x the largest weight of a terminal: the scale of the rounding
    # of any sum of them, also of one that nearly cancels
    tol = 1e-12 * max([abs(cf[n] * c.utility[n]) for n in order
                       if c.kind[n] == _TERMINAL], default=0.0)
    choice: dict[tuple, str] = {}
    iset_of_depth: dict[int, list[tuple]] = {}
    for key, nids in resp_isets.items():
        iset_of_depth.setdefault(c.depth[nids[0]], []).append(key)
    for d in sorted(by_depth, reverse=True):
        for nid in by_depth[d]:
            k = c.kind[nid]
            if k == _TERMINAL:
                value[nid] = sign * c.utility[nid]
            elif k == _CHANCE:
                value[nid] = sum(p * value[ch] for ch, p
                                 in zip(c.edges[nid], c.probs[nid]))
            elif (k == _COORD) != (responder == "coord"):
                dist = _profile_dist(profile, other,
                                     c.profile_key[other][nid], c.labels[nid])
                value[nid] = float(sum(p * value[ch] for ch, p
                                       in zip(c.edges[nid], dist)))
        for key in iset_of_depth.get(d, ()):
            nids = resp_isets[key]
            acts = c.labels[nids[0]]
            totals = [sum(cf[n] * value[c.edges[n][i]] for n in nids)
                      for i in range(len(acts))]
            # the value follows the first exact best action; the choice is
            # the first action within ``tol`` of it, so that a tie up to
            # rounding does not depend on the order of the sums
            best_i = int(np.argmax(totals))
            best_v = totals[best_i]
            choice[key] = next(a for a, t in zip(acts, totals)
                               if t >= best_v - tol)
            for n in nids:
                value[n] = value[c.edges[n][best_i]]
    return float(value[c.root]), choice


def exploitability(c: Compiled, profile) -> float:
    v = expected_value(c, profile)
    br_t, _ = best_response(c, profile, "coord")
    if not c.has_opponent:
        return br_t - v
    br_o, _ = best_response(c, profile, "o")
    return (br_t - v) + (br_o - (-v))
