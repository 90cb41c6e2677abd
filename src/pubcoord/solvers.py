"""Equilibrium solvers for converted games and an exact team oracle.

Provides:

- ``reduced_normal_form_plans`` / ``count_reduced_plans`` — a player's
  reduced plans (actions assigned only at infosets reachable given the
  plan's own earlier choices), enumerated or counted over its sequences.
- ``matrix_game_solve`` — zero-sum matrix game solving by linear programming
  with a certified pure-response gap.
- ``tmecor_bruteforce`` — team-maxmin-with-correlation oracle: an exact
  double oracle over joint team plans, for teams of any size, in sequence
  form.  One walk gives every player's sequences; a plan is a boolean vector
  over them, and both sides' best responses are one vectorised dynamic
  program.  ``max_entries`` bounds its one large array, the boolean reach of
  the enumerated joint team plans x the value-carrying terminals.
- ``solve_cfr`` — CFR / CFR+ / Linear CFR+ on a converted two-player
  zero-sum game, with a convergence log.
- ``best_response`` / ``exploitability`` / ``expected_value`` — evaluation
  utilities.  Best responses are always computed on the perfect-recall
  (visibility-derived) information partition; profiles defined on merged
  imperfect-recall keys are expanded onto it.

CFR and the evaluation utilities run as passes over the compiled form of
the converted game: flat breadth-first arrays and both sides' infosets,
built by :func:`pubcoord.convert.compile_converted` (imported here) on the
first call for a converted game and kept on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .convert import ConvertedGame, _Compiled, _Partition, compile_converted
from .errors import (
    EmptyMatrix,
    GameTooLarge,
    IncompleteProfile,
    InvalidIterationCount,
    InvalidParameter,
    SolverFailure,
)
from .model import (
    _CHUNK_ENTRIES,
    OPPONENT,
    PlayerRole,
    VEFG,
    check_perfect_recall,
)

# A behavioral profile: per player name ("coord" / "o"), a map from infoset
# key to a map from action label to probability.
Profile = dict[str, dict[tuple, dict[str, float]]]

DEFAULT_MATRIX_LIMIT = 10_000_000


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first call: scipy is most of
    the package's import time, and only the TMECor oracle solves LPs."""
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


# ---------------------------------------------------------------------------
# Sequence form and reduced normal-form plans
# ---------------------------------------------------------------------------


@dataclass
class _SeqForest:
    """One player's infoset forest in sequence form (von Stengel, GEB 1996).

    Sequence 0 is the empty sequence.  Infosets are numbered parents first:
    infoset ``i`` is reached right after the player's own sequence
    ``parent[i]`` and owns the action sequences ``first[i] .. first[i] +
    len(actions[i]) - 1``.  A reduced plan is a boolean vector over the
    sequences, true at the ones it plays."""

    keys: list = field(default_factory=list)
    actions: list = field(default_factory=list)
    parent: list = field(default_factory=list)
    first: list = field(default_factory=list)
    size: int = 1

    def count(self) -> int:
        """Number of reduced plans: a product over the infosets reached after
        each sequence of a sum over their actions, bottom-up."""
        n = [1] * self.size
        for i in reversed(range(len(self.keys))):
            f = self.first[i]
            n[self.parent[i]] *= sum(n[f:f + len(self.actions[i])])
        return n[0]

    def plans(self) -> np.ndarray:
        """Every reduced plan, one row each: :meth:`count`'s pass with each
        product a cartesian product of partial plans."""
        below = [np.zeros((1, self.size), dtype=bool)] * self.size
        for i in reversed(range(len(self.keys))):
            f, p = self.first[i], self.parent[i]
            alt = np.concatenate([below[s] | (np.arange(self.size) == s)
                                  for s in range(f, f + len(self.actions[i]))])
            below[p] = (below[p][:, None] | alt[None]).reshape(-1, self.size)
        below[0][:, 0] = True
        return below[0]

    def as_dict(self, plan: np.ndarray) -> dict:
        """``plan`` as a map infoset key -> action."""
        played = plan.tolist()
        return {key: a for key, acts, f in zip(self.keys, self.actions,
                                                self.first)
                for k, a in enumerate(acts) if played[f + k]}

    def best(self, gain: np.ndarray) -> tuple[int, float, np.ndarray]:
        """Best response to each row of ``gain`` (rows x sequences: the
        payoff collected by playing each sequence), by one dynamic program
        over the infosets in reverse, in place.  Returns the best row, its
        value and its plan; ties go to the first best action and row."""
        choice = np.empty((len(self.keys), len(gain)), dtype=np.int64)
        for i in reversed(range(len(self.keys))):
            f = self.first[i]
            block = gain[:, f:f + len(self.actions[i])]
            choice[i] = block.argmax(axis=1)
            gain[:, self.parent[i]] += block.max(axis=1)
        r = int(gain[:, 0].argmax())
        plan = np.zeros(self.size, dtype=bool)
        plan[0] = True
        for i, (p, f) in enumerate(zip(self.parent, self.first)):
            if plan[p]:
                plan[f + choice[i, r]] = True
        return r, float(gain[r, 0]), plan


def _sequence_form(game: VEFG, players: list):
    """One walk of ``game``: a :class:`_SeqForest` per listed player (empty
    for ``None``), its infosets numbered in walk order, and per
    value-carrying terminal, in depth-first order, its chance-weighted
    utility and each player's sequence id (an array of players x
    terminals).  The listed players must have perfect recall; the infosets
    are the groups :func:`~pubcoord.model.check_perfect_recall` checked."""
    index = {p: k for k, p in enumerate(players) if p is not None}
    forests = [_SeqForest() for _ in players]
    groups = check_perfect_recall(game, list(index))
    key_of = [{nid: key for key, members in groups.get(p, {}).items()
               for nid in members} for p in players]
    ids: list[dict] = [{} for _ in players]  # infoset key -> number
    wu, seqs = [], []
    stack = [(game.root, Fraction(1), (0,) * len(players))]
    while stack:
        nid, reach, seq = stack.pop()
        node = game.nodes[nid]
        if node.is_terminal:
            w = float(reach) * float(node.utility)
            if w != 0.0:
                wu.append(w)
                seqs.append(seq)
            continue
        k = index.get(node.player)
        if k is not None:
            f, key = forests[k], key_of[k][nid]
            i = ids[k].setdefault(key, len(f.keys))
            if i == len(f.keys):
                f.keys.append(key)
                f.actions.append(tuple(e.label for e in node.edges))
                f.parent.append(seq[k])
                f.first.append(f.size)
                f.size += len(node.edges)
        for a in range(len(node.edges) - 1, -1, -1):
            e = node.edges[a]
            stack.append((
                e.child, reach * Fraction(e.prob) if node.is_chance else reach,
                seq if k is None else seq[:k] + (f.first[i] + a,)
                + seq[k + 1:]))
    return (forests, np.array(wu),
            np.array(seqs, dtype=np.int64).reshape(-1, len(players)).T)


def reduced_normal_form_plans(game: VEFG, player: PlayerRole) -> list[dict]:
    """All reduced normal-form plans of ``player``: maps infoset key ->
    action, defined exactly at the infosets reachable given the plan's own
    earlier choices."""
    f = _sequence_form(game, [player])[0][0]
    return [f.as_dict(plan) for plan in f.plans()]


def count_reduced_plans(game: VEFG, player: PlayerRole) -> int:
    """Number of reduced plans, computed without enumerating them."""
    return _sequence_form(game, [player])[0][0].count()


# ---------------------------------------------------------------------------
# Matrix games
# ---------------------------------------------------------------------------


def _maximin(u: np.ndarray) -> np.ndarray:
    """The row player's maximin strategy of ``u`` by one LP, max v s.t.
    x^T U >= v, sum x = 1, x >= 0, on ``u`` shifted to positive values for
    numerical stability."""
    n, m = u.shape
    us = u - float(u.min()) + 1.0
    c = np.zeros(n + 1)
    c[-1] = -1.0  # linprog minimizes
    res = linprog(c, A_ub=np.hstack([-us.T, np.ones((m, 1))]),
                  b_ub=np.zeros(m), A_eq=np.append(np.ones(n), 0.0)[None],
                  b_eq=[1.0], bounds=[(0, None)] * n + [(None, None)],
                  method="highs")
    if not res.success:
        raise SolverFailure(f"LP failed: {res.message}")
    x = np.maximum(res.x[:n], 0.0)
    return x / x.sum()


def matrix_game_solve(matrix, tol: float = 1e-9):
    """Solve a zero-sum matrix game (row player maximizes).

    Returns ``(row_strategy, col_strategy, value)`` as numpy arrays and a
    float.  The column player is solved as the row player of ``-U^T``; the
    best pure-response gap of both players is certified ``<= max(tol,
    1e-7)``, and an LP failure or a larger gap raises :class:`SolverFailure`.
    """
    u = np.asarray(matrix, dtype=float)
    if u.ndim != 2 or u.size == 0:
        raise EmptyMatrix(f"matrix with shape {u.shape} has no entries")
    x, y = _maximin(u), _maximin(-u.T)
    value = float(x @ u @ y)
    row_gap = float(np.max(u @ y)) - value
    col_gap = value - float(np.min(x @ u))
    if row_gap > max(tol, 1e-7) or col_gap > max(tol, 1e-7):
        raise SolverFailure(
            f"uncertified solution: gaps {row_gap}, {col_gap}")
    return x, y, value


# ---------------------------------------------------------------------------
# TMECor oracle
# ---------------------------------------------------------------------------


@dataclass
class TmecorResult:
    value: float
    team_support: list  # (prob, per-member plan dicts in team order)
    opponent_support: list  # (prob, plan dict)


def tmecor_bruteforce(game: VEFG, tol: float = 1e-9,
                      max_entries: int = DEFAULT_MATRIX_LIMIT):
    """Team-maxmin-with-correlation value of an original team game, by an
    exact double oracle (McMahan, Gordon & Blum, ICML 2003) in sequence form.

    A restricted matrix game of joint team plans vs. opponent plans is
    grown by alternating exact best responses until neither side can gain
    more than ``max(tol, 1e-7)``: a ``tol`` under 1e-7, the default 1e-9
    among them, certifies to 1e-7 and gives the result of ``tol=1e-7``.  One
    walk gives each player's sequence form (plans are boolean vectors over
    its sequences) and each value-carrying terminal's chance-weighted
    utility and sequences.  The team member with the most reduced plans is
    best-responded by a dynamic program over its sequences; the joint plans
    of the others are enumerated once, as a boolean (joint plans x
    terminals) reach array, and chunks of its rows are answered by one numpy
    pass each, with no float array over ``2**20`` entries.  The opponent's
    best response is the same dynamic program.  Teams of any size are
    solved.  When that reach array would exceed ``max_entries`` entries,
    :class:`GameTooLarge` is raised.  ``tol`` must be finite and positive
    and ``max_entries`` at least 1 (:class:`InvalidParameter`).
    """
    if not 0 < tol < math.inf:  # NaN fails too
        raise InvalidParameter(f"tol must be finite and > 0, got {tol}")
    if max_entries < 1:
        raise InvalidParameter(f"max_entries must be >= 1, got {max_entries}")
    return _tmecor_double_oracle(game, tol, max_entries)


def _tmecor_double_oracle(game: VEFG, tol: float, max_entries: int):
    """The double oracle of :func:`tmecor_bruteforce`."""
    team = sorted(game.team_players(), key=lambda r: r.sort_key())
    forests, wu, seq = _sequence_form(game, [*team, game.opponent()])
    # with no opponent its forest is empty: one plan, playing sequence 0
    *members, opp = forests
    counts = [f.count() for f in members]
    # the member with the most plans, the later one on a tie, is decided by
    # the dynamic program and the others' joint plans are enumerated; with
    # no team the DP member is an empty forest
    dp = max(range(len(team)), key=lambda k: (counts[k], k), default=None)
    big, big_seq = ((members[dp], seq[dp]) if team
                    else (_SeqForest(), np.zeros(len(wu), dtype=np.int64)))
    # terminals sorted by the DP member's sequence, so that a terminal
    # gain reduces onto its sequences by contiguous runs
    order = np.argsort(big_seq, kind="stable")
    wu, seq, big_seq = wu[order], seq[:, order], big_seq[order]
    cols, starts = np.unique(big_seq, return_index=True)
    rest = [k for k in range(len(team)) if k != dp]
    n_rest = math.prod(counts[k] for k in rest)
    if n_rest * max(1, len(wu)) > max_entries:
        raise GameTooLarge(
            f"{n_rest} joint plans of the enumerated team members x "
            f"{len(wu)} terminals exceeds the {max_entries}-entry "
            f"best-response guard")
    # which terminals each enumerated joint plan lets through, in
    # ``itertools.product`` order of the members' plans
    rest_plans = [members[k].plans() for k in rest]
    reach = np.ones((1, len(wu)), dtype=bool)
    for k, plans in zip(rest, rest_plans):
        reach = (reach[:, None] & plans[:, seq[k]][None]).reshape(
            len(reach) * len(plans), len(wu))
    step = max(1, _CHUNK_ENTRIES // max(1, len(wu), big.size))

    # a joint plan is (row of ``reach``, the DP member's plan)
    def team_best(oppw):
        """Exact joint-team best response to the opponent mixture's reach
        ``oppw`` of each terminal; returns (value, joint plan).  The rows of
        ``reach`` go through in chunks, so that no float array exceeds
        ``_CHUNK_ENTRIES`` entries; the first best row wins a tie."""
        w = wu * oppw
        best = None
        for i in range(0, len(reach), step):
            gain = np.zeros((len(reach[i:i + step]), big.size))
            if len(cols):
                gain[:, cols] = np.add.reduceat(reach[i:i + step] * w,
                                                starts, axis=1)
            r, v, plan = big.best(gain)
            if best is None or v > best[0]:
                best = v, (i + r, plan)
        return best

    def opp_best(teamw):
        """Exact opponent best response to the team mixture's reach
        ``teamw`` of each terminal; returns (team value, opponent plan)."""
        gain = np.bincount(seq[-1], -wu * teamw, opp.size)[None]
        _, v, plan = opp.best(gain)
        return -v, plan

    def as_support(joint):
        r, plan = joint
        idx = np.unravel_index(r, [counts[k] for k in rest])
        out = {k: members[k].as_dict(plans[i])
               for k, plans, i in zip(rest, rest_plans, idx)}
        if team:
            out[dp] = big.as_dict(plan)
        return [out[k] for k in range(len(team))]

    def key(joint):
        return joint[0], joint[1].tobytes()

    _, _, first_opp = opp.best(np.zeros((1, opp.size)))
    opps = [first_opp]
    joints = [team_best(first_opp[seq[-1]])[1]]
    eps = max(tol, 1e-7)
    for _ in range(10_000):
        # each restricted plan's terminal reach; the matrix entries are
        # the chance-weighted utilities of the terminals both let through
        team_reach = np.array([reach[r] & plan[big_seq] for r, plan in joints])
        opp_reach = np.array([plan[seq[-1]] for plan in opps])
        u = (team_reach * wu) @ opp_reach.T
        x, y, v = matrix_game_solve(u, tol)
        x, y = np.where(x > 1e-12, x, 0.0), np.where(y > 1e-12, y, 0.0)
        tb_v, tb_joint = team_best(y @ opp_reach)
        ob_v, ob_plan = opp_best(x @ team_reach)
        if tb_v <= v + eps and ob_v >= v - eps:
            return TmecorResult(
                float(v),
                [(float(p), as_support(j)) for p, j in zip(x, joints) if p],
                [(float(p), opp.as_dict(o)) for p, o in zip(y, opps) if p])
        grew = False
        if tb_v > v + eps and key(tb_joint) not in map(key, joints):
            joints.append(tb_joint)
            grew = True
        if ob_v < v - eps and ob_plan.tobytes() not in [
                o.tobytes() for o in opps]:
            opps.append(ob_plan)
            grew = True
        if not grew:
            raise SolverFailure(
                f"double oracle stalled: best responses {tb_v}, {ob_v} vs "
                f"restricted value {v}")
    raise SolverFailure("double oracle failed to converge")


# ---------------------------------------------------------------------------
# CFR family
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceLog:
    rows: list[tuple[int, float, float]] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["iteration,team_value,exploitability"]
        for it, v, e in self.rows:
            lines.append(f"{it},{v:.12g},{e:.12g}")
        return "\n".join(lines) + "\n"


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    """Rows divided by their sums, uniform where the sum is not positive;
    a row sum is bit-identical to ``numpy.sum`` of the row alone."""
    s = x.sum(axis=1)
    empty = s <= 0
    s[empty] = 1.0
    x = x / s[:, None]
    x[empty] = 1.0 / x.shape[1]
    return x


def _normalize(part: _Partition, flat: np.ndarray) -> np.ndarray:
    """:func:`_normalize_rows` of every infoset's slots of ``part``."""
    out = np.empty_like(flat)
    for slots in part.groups:
        out[slots] = _normalize_rows(flat[slots])
    return out


def _traversal(c: _Compiled, me: str) -> Callable:
    """One CFR traversal for side ``me``: a function that adds to ``me``'s
    regret and strategy-sum arrays, given both sides' strategies per slot,
    which stay fixed for the traversal.

    A top-down level pass computes two reaches at once, that of chance and
    the other side and ``me``'s own, and a bottom-up pass every node's value
    under the full profile; two ``np.bincount`` calls then add each of
    ``me``'s decision edges' counterfactual regret and average-strategy
    weight to its slot.  Below a zero-probability chance edge ``me``'s own
    reach is 0, as a depth-first CFR never enters it.  The increments are
    those of such a walk up to summation order, exact to 1e-12 relative
    per traversal."""
    side = c.sides[me]
    if len(side.nodes) == 0:
        return lambda regrets, strat, other_sigma, my_sigma: None
    other = c.sides.get("o" if me == "coord" else "coord")
    utility = (1.0 if me == "coord" else -1.0) * c.utility
    mine, slot, n = side.edges, side.profile.edge_slot, side.profile.offset[-1]
    par, child = c.parent[mine], mine + 1
    # reaches are needed down to ``me``'s deepest decisions, values up to
    # its shallowest
    top, bottom = (np.searchsorted([a for a, _ in c.levels],
                                   side.nodes[[0, -1]], "right") - 1).tolist()
    # row 0: chance and the other side; row 1: ``me`` alone
    w = np.stack([c.prob, (c.prob != 0).astype(float)])

    def run(regrets, strat, other_sigma, my_sigma) -> None:
        if other is not None:
            w[0, other.edges] = other_sigma[other.profile.edge_slot]
        sigma = my_sigma[slot]
        w[1, mine] = sigma
        reach_other, reach_me = c.reach(w, bottom)
        full = w[0].copy()
        full[mine] = sigma
        v = c.backup(full, utility.copy(), top=top)
        regrets += np.bincount(slot, reach_other[par] * (v[child] - v[par]), n)
        strat += np.bincount(slot, reach_me[par] * sigma, n)

    return run


def _iterate(c: _Compiled, walks: list, algo: str, t: int,
             regrets: list, strat: list) -> None:
    """Iteration ``t`` of ``algo``: one traversal per side (``walks``, made
    by :func:`_traversal`), updating the per-side regret and strategy-sum
    arrays in place."""
    parts = [side.profile for side in c.sides.values()]  # coord, then o
    # both sides' regret-matched strategies (None: no opponent); ``cfr``
    # keeps those of the start of the iteration for both traversals
    sigma = [_normalize(p, np.maximum(r, 0.0))
             for p, r in zip(parts, regrets)] + [None]
    for k, run in enumerate(walks):
        run(regrets[k], strat[k], sigma[1 - k], sigma[k])
        if algo != "cfr":
            np.maximum(regrets[k], 0.0, out=regrets[k])
            if k + 1 < len(walks):
                sigma[k] = _normalize(parts[k], regrets[k])
    if algo == "lcfr+":
        w = t / (t + 1.0)
        for x in regrets:
            x *= w
        for x in strat:
            x *= w * w


def solve_cfr(cg: ConvertedGame, algo: str = "lcfr+",
              iterations: int = 1000, log_every: int = 0,
              log_hook: Optional[Callable] = None):
    """Run a CFR-family algorithm on a converted two-player zero-sum game.

    ``algo`` is one of ``cfr`` (simultaneous updates), ``cfr+`` (alternating
    updates, regrets floored at 0) or ``lcfr+`` (CFR+ with the regrets of
    iteration t weighted by t and its average strategy by t squared).
    Returns ``(profile, log)`` where profile holds the normalized average
    behavioral strategies.

    Each traversal regret-matches every infoset once, before it starts, so
    all nodes of an infoset (several beliefs, or merged safe-IR keys) act
    alike within it, and runs as numpy passes over the compiled tree (see
    :func:`_traversal`).  Zero reach of the other side prunes nothing: the
    traverser's average strategy keeps accumulating with its own reach.
    """
    if algo not in ("cfr", "cfr+", "lcfr+"):
        raise InvalidIterationCount(f"unknown algorithm {algo!r}")
    if iterations < 0:
        raise InvalidIterationCount(f"iterations must be >= 0, "
                                    f"got {iterations}")
    if log_every < 0:
        raise InvalidIterationCount(f"log_every must be >= 0, "
                                    f"got {log_every}")
    c = compile_converted(cg)
    parts = [side.profile for side in c.sides.values()]  # coord, then o
    regrets = [np.zeros(p.offset[-1]) for p in parts]
    strat = [np.zeros(p.offset[-1]) for p in parts]
    walks = [_traversal(c, name) for name in c.sides]

    def average_profile() -> Profile:
        return {name: p.as_profile(_normalize(p, x))
                for name, p, x in zip(c.sides, parts, strat)}

    log = ConvergenceLog()
    for t in range(1, iterations + 1):
        _iterate(c, walks, algo, t, regrets, strat)
        if log_every and (t % log_every == 0 or t == iterations):
            prof = average_profile()
            v = expected_value(cg, prof)
            e = exploitability(cg, prof)
            log.rows.append((t, v, e))
            if log_hook is not None:
                log_hook(t, v, e)
    return average_profile(), log


# ---------------------------------------------------------------------------
# Evaluation: expected value, best response, exploitability
# ---------------------------------------------------------------------------


def expected_value(cg: ConvertedGame, profile: Profile) -> float:
    """Team expected utility of a behavioral profile, one bottom-up pass."""
    c = compile_converted(cg)
    w = c.weights(profile, c.sides)
    return float(c.backup(w, c.utility.copy())[0])


def best_response(cg: ConvertedGame, profile: Profile, responder: str):
    """Best-response value and pure strategy for ``responder`` ("coord" or
    "o") against the other side's behavior in ``profile``.

    The responder is optimized over the perfect-recall (visibility-derived)
    information partition; the fixed side's strategy is looked up by its
    profile key, so merged imperfect-recall profiles are supported.  Each
    infoset is decided at the depth of its nodes, which in a converted
    (public turn-taking) game is one depth.
    """
    c = compile_converted(cg)
    if responder == "o" and "o" not in c.sides:
        raise IncompleteProfile("game has no opponent to respond with")
    w = c.weights(profile, [s for s in c.sides if s != responder])
    cf = c.reach(w)
    side = c.sides[responder]
    part = side.pr
    par = c.parent[side.edges]
    starts = [a for a, _ in c.levels] + [len(c.utility)]
    edge_cut = np.searchsorted(par, starts)
    node_cut = np.searchsorted(side.nodes, starts)
    iset_cut = np.searchsorted(side.nodes[part.first], starts)
    count = np.diff(part.offset)
    best = np.zeros(len(part.first), dtype=np.int64)
    val = (1.0 if responder == "coord" else -1.0) * c.utility

    def decide(d: int) -> None:
        e0, e1 = edge_cut[d], edge_cut[d + 1]
        if e0 == e1:
            return
        i0, i1 = iset_cut[d], iset_cut[d + 1]
        s0, s1 = part.offset[i0], part.offset[i1]
        totals = np.bincount(part.edge_slot[e0:e1] - s0, cf[par[e0:e1]]
                             * val[side.edges[e0:e1] + 1], s1 - s0)
        # first best action per infoset, rows padded with -inf
        cols = np.arange(count[i0:i1].max())
        mat = part.offset[i0:i1, None] - s0 + cols
        mat[cols >= count[i0:i1, None]] = s1 - s0
        best[i0:i1] = np.append(totals, -np.inf)[mat].argmax(axis=1)
        nodes = side.nodes[node_cut[d]:node_cut[d + 1]]
        val[nodes] = val[c.first[nodes] + 1 + best[
            part.of_node[node_cut[d]:node_cut[d + 1]]]]

    c.backup(w, val, decide)
    return float(val[0]), {key: acts[b] for key, acts, b in zip(
        part.keys, part.actions, best.tolist())}


def exploitability(cg: ConvertedGame, profile: Profile) -> float:
    """Sum of both players' best-response gaps (0 exactly at equilibrium).

    For games without an opponent this reduces to the coordinator's
    improvement potential max-value - current value.
    """
    br_t, _ = best_response(cg, profile, "coord")
    if OPPONENT not in cg.tree.players:
        return br_t - expected_value(cg, profile)
    # (br_t - v) + (br_o + v): the opponent's best response is in its payoff
    return br_t + best_response(cg, profile, "o")[0]
