"""Equilibrium solvers for converted games and brute-force team oracles.

Provides:

- ``reduced_normal_form_plans`` — enumeration of a player's reduced plans
  (actions assigned only at infosets reachable given the plan's own earlier
  choices).
- ``matrix_game_solve`` — zero-sum matrix game solving by linear programming
  with a certified pure-response gap.
- ``tmecor_bruteforce`` — team-maxmin-with-correlation oracle: builds the
  payoff matrix over joint team plans vs. opponent plans and solves it.
- ``solve_cfr`` — CFR / CFR+ / Linear CFR+ on a converted two-player
  zero-sum game, with a convergence log.
- ``best_response`` / ``exploitability`` / ``expected_value`` — evaluation
  utilities.  Best responses are always computed on the perfect-recall
  (visibility-derived) information partition; profiles defined on merged
  imperfect-recall keys are expanded onto it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np
from scipy.optimize import linprog

from .convert import ConvertedGame, coordinator_node_keys
from .errors import (
    ActionMismatchWithinInfoset,
    EmptyMatrix,
    GameTooLarge,
    ImperfectRecallPlayer,
    IncompleteProfile,
    InvalidIterationCount,
    SolverFailure,
)
from .model import (
    COORDINATOR,
    OPPONENT,
    PlayerRole,
    VEFG,
    infosets,
    recursion_headroom,
    seen_sequences,
)

# A behavioral profile: per player name ("coord" / "o"), a map from infoset
# key to a map from action label to probability.
Profile = dict[str, dict[tuple, dict[str, float]]]

DEFAULT_MATRIX_LIMIT = 10_000_000


# ---------------------------------------------------------------------------
# Reduced normal-form plans
# ---------------------------------------------------------------------------


@dataclass
class _PlanForest:
    """A player's infoset forest: each infoset key carries the player's own
    (infoset, action) history, and infosets unlocked by each choice."""

    own_seq: dict[tuple, tuple]
    actions: dict[tuple, tuple[str, ...]]
    children: dict[tuple, tuple]  # (own seq incl. chosen action) -> iset keys
    roots: tuple


def _plan_forest(game: VEFG, player: PlayerRole) -> _PlanForest:
    isets = infosets(game, player)
    own_seq: dict[tuple, tuple] = {}
    actions: dict[tuple, tuple[str, ...]] = {}
    node_key = {}
    for key, members in isets.items():
        actions[key] = tuple(e.label for e in game.nodes[members[0]].edges)
        for nid in members:
            node_key[nid] = key

    def walk(nid: int, seq: tuple) -> None:
        node = game.nodes[nid]
        if node.is_terminal:
            return
        if node.player == player:
            key = node_key[nid]
            prev = own_seq.get(key)
            if prev is None:
                own_seq[key] = seq
            elif prev != seq:
                raise ImperfectRecallPlayer(
                    f"infoset {key!r} of {player.name} reached with own "
                    f"sequences {prev!r} and {seq!r}")
            for e in node.edges:
                walk(e.child, seq + ((key, e.label),))
        else:
            for e in node.edges:
                walk(e.child, seq)

    with recursion_headroom(len(game.nodes)):
        walk(game.root, ())

    children: dict[tuple, list] = {}
    roots: list = []
    for key, seq in own_seq.items():
        if not seq:
            roots.append(key)
        else:
            children.setdefault(seq, []).append(key)
    roots.sort()
    return _PlanForest(own_seq=own_seq, actions=actions,
                       children={k: tuple(sorted(v))
                                 for k, v in children.items()},
                       roots=tuple(roots))


def reduced_normal_form_plans(game: VEFG, player: PlayerRole) -> list[dict]:
    """All reduced normal-form plans of ``player``: maps infoset key ->
    action, defined exactly at the infosets reachable given the plan's own
    earlier choices."""
    f = _plan_forest(game, player)
    plans: list[dict] = []

    def enum(frontier: tuple, assignment: dict) -> None:
        if not frontier:
            plans.append(dict(assignment))
            return
        key, rest = frontier[0], frontier[1:]
        for a in f.actions[key]:
            unlocked = f.children.get(f.own_seq[key] + ((key, a),), ())
            assignment[key] = a
            enum(rest + unlocked, assignment)
            del assignment[key]

    enum(f.roots, {})
    return plans


def count_reduced_plans(game: VEFG, player: PlayerRole) -> int:
    """Number of reduced plans, computed without enumerating them."""
    f = _plan_forest(game, player)

    def count(key: tuple) -> int:
        total = 0
        for a in f.actions[key]:
            prod = 1
            for child in f.children.get(f.own_seq[key] + ((key, a),), ()):
                prod *= count(child)
            total += prod
        return total

    total = 1
    for r in f.roots:
        total *= count(r)
    return total


def _forest_best_plan(f: _PlanForest, tmass: dict, sign: float):
    """Plan maximizing ``sign *`` the summed mass of consistent terminals.

    ``tmass[seq]`` is the total weight of terminals whose own-(infoset,
    action) sequence for this player equals ``seq``; the unconditional mass
    ``tmass[()]`` of terminals the player never influences is included in
    the returned value.
    """
    best_action: dict = {}
    memo: dict = {}

    def val(key: tuple) -> float:
        if key in memo:
            return memo[key]
        best, best_a = None, None
        for a in f.actions[key]:
            seq = f.own_seq[key] + ((key, a),)
            v = sign * tmass.get(seq, 0.0)
            for child in f.children.get(seq, ()):
                v += val(child)
            if best is None or v > best:
                best, best_a = v, a
        best_action[key] = best_a
        memo[key] = best
        return best

    total = sign * tmass.get((), 0.0)
    for r in f.roots:
        total += val(r)
    # collect the reduced plan along chosen branches only
    plan: dict = {}
    frontier = list(f.roots)
    while frontier:
        key = frontier.pop()
        a = best_action[key]
        plan[key] = a
        frontier.extend(f.children.get(f.own_seq[key] + ((key, a),), ()))
    return sign * total, plan


# ---------------------------------------------------------------------------
# Matrix games
# ---------------------------------------------------------------------------


def matrix_game_solve(matrix, tol: float = 1e-9):
    """Solve a zero-sum matrix game (row player maximizes).

    Returns ``(row_strategy, col_strategy, value)`` as numpy arrays and a
    float; the best pure-response gap of both players is certified ``<= tol``
    (:class:`SolverFailure` signals an LP failure beyond tolerance).
    """
    u = np.asarray(matrix, dtype=float)
    if u.ndim != 2 or u.size == 0:
        raise EmptyMatrix(f"matrix with shape {u.shape} has no entries")
    n, m = u.shape
    # shift to positive values for numerical stability
    shift = float(u.min())
    us = u - shift + 1.0

    # row player: max v s.t. x^T U >= v, sum x = 1, x >= 0
    # variables [x_0..x_{n-1}, v]; linprog minimizes.
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-us.T, np.ones((m, 1))])
    b_ub = np.zeros(m)
    a_eq = np.zeros((1, n + 1))
    a_eq[0, :n] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * n + [(None, None)], method="highs")
    if not res.success:
        raise EmptyMatrix(f"LP failed: {res.message}")
    x = np.maximum(res.x[:n], 0.0)
    x /= x.sum()

    # column player: min w s.t. U y <= w, sum y = 1, y >= 0
    c2 = np.zeros(m + 1)
    c2[-1] = 1.0
    a_ub2 = np.hstack([us, -np.ones((n, 1))])
    b_ub2 = np.zeros(n)
    a_eq2 = np.zeros((1, m + 1))
    a_eq2[0, :m] = 1.0
    res2 = linprog(c2, A_ub=a_ub2, b_ub=b_ub2, A_eq=a_eq2, b_eq=[1.0],
                   bounds=[(0, None)] * m + [(None, None)], method="highs")
    if not res2.success:
        raise EmptyMatrix(f"LP failed: {res2.message}")
    y = np.maximum(res2.x[:m], 0.0)
    y /= y.sum()

    value = float(x @ u @ y)
    row_gap = float(np.max(u @ y)) - value
    col_gap = value - float(np.min(x @ u))
    if row_gap > max(tol, 1e-7) or col_gap > max(tol, 1e-7):
        raise SolverFailure(
            f"uncertified solution: gaps {row_gap}, {col_gap}")
    return x, y, value


# ---------------------------------------------------------------------------
# TMECor brute-force oracle
# ---------------------------------------------------------------------------


@dataclass
class TmecorResult:
    value: float
    team_support: list  # (prob, per-member plan dicts)
    opponent_support: list  # (prob, plan dict)


def _terminal_constraints(game: VEFG, players: list[PlayerRole]):
    """Per terminal: chance reach and, per listed player, the (infoset key,
    action) pairs on the path."""
    node_key = {}
    for p in players:
        for key, members in infosets(game, p).items():
            for nid in members:
                node_key[nid] = (p, key)
    out = []

    def walk(nid, reach, pairs):
        node = game.nodes[nid]
        if node.is_terminal:
            out.append((float(reach), float(node.utility), pairs))
            return
        for e in node.edges:
            r = reach * Fraction(e.prob) if node.is_chance else reach
            np_ = pairs
            if node.player in players:
                p, key = node_key[nid]
                np_ = pairs + ((p, key, e.label),)
            walk(e.child, r, np_)

    with recursion_headroom(len(game.nodes)):
        walk(game.root, Fraction(1), ())
    return out


def tmecor_bruteforce(game: VEFG, tol: float = 1e-9,
                      max_entries: int = DEFAULT_MATRIX_LIMIT):
    """Team-maxmin-with-correlation value of an original team game.

    Small games are solved exactly over the full matrix of joint reduced
    team plans vs. opponent reduced plans.  When that matrix exceeds
    ``max_entries`` but one team member's plan set is still enumerable, an
    exact double-oracle scheme is used instead: a restricted matrix game is
    grown by alternating exact best responses (enumeration over the smaller
    member's plans combined with a best-response dynamic program over the
    other member's infoset forest, and a plain best-response dynamic program
    for the opponent) until neither side can gain more than ``tol``.  Games
    beyond both regimes raise :class:`GameTooLarge`.
    """
    team = sorted(game.team_players(), key=lambda r: r.sort_key())
    opp = game.opponent()
    counts = [count_reduced_plans(game, p) for p in team]
    n_joint = 1
    for cnt in counts:
        n_joint *= cnt
    opp_count = count_reduced_plans(game, opp) if opp is not None else 1
    if n_joint * opp_count > max_entries:
        return _tmecor_double_oracle(game, team, opp, counts, tol,
                                     max_entries)
    return _tmecor_dense(game, team, opp, tol)


def _tmecor_dense(game: VEFG, team, opp, tol: float):
    team_plans = [reduced_normal_form_plans(game, p) for p in team]
    n_joint = 1
    for plans in team_plans:
        n_joint *= len(plans)
    opp_plans = (reduced_normal_form_plans(game, opp)
                 if opp is not None else [dict()])

    players = list(team) + ([opp] if opp is not None else [])
    terminals = _terminal_constraints(game, players)

    sizes = [len(plans) for plans in team_plans]

    def consistent(plans, pairs_for_player):
        return [i for i, plan in enumerate(plans)
                if all(plan.get(key) == a for key, a in pairs_for_player)]

    u = np.zeros((n_joint, max(1, len(opp_plans))))
    for reach, util, pairs in terminals:
        rows_per_member = []
        for k, p in enumerate(team):
            pp = [(key, a) for q, key, a in pairs if q == p]
            rows_per_member.append(consistent(team_plans[k], pp))
        if opp is not None:
            po = [(key, a) for q, key, a in pairs if q == opp]
            cols = consistent(opp_plans, po)
        else:
            cols = [0]
        if not cols or any(not r for r in rows_per_member):
            continue
        # joint index = member0 * size1 + member1 (two-member teams; general
        # mixed-radix for more)
        joint = [0]
        for k, rows in enumerate(rows_per_member):
            stride = 1
            for s in sizes[k + 1:]:
                stride *= s
            joint = [j + r * stride for j in joint for r in rows]
        u[np.ix_(joint, cols)] += reach * util

    if opp is None:
        best = int(np.argmax(u[:, 0]))
        value = float(u[best, 0])
        team_support = [(1.0, _joint_plans(team_plans, sizes, best))]
        return TmecorResult(value, team_support, [(1.0, dict())])

    x, y, value = matrix_game_solve(u, tol)
    team_support = [(float(px), _joint_plans(team_plans, sizes, i))
                    for i, px in enumerate(x) if px > 1e-12]
    opp_support = [(float(py), opp_plans[j])
                   for j, py in enumerate(y) if py > 1e-12]
    return TmecorResult(value, team_support, opp_support)


def _joint_plans(team_plans, sizes, joint_index):
    out = []
    rem = joint_index
    for k in range(len(sizes) - 1, -1, -1):
        out.append(team_plans[k][rem % sizes[k]])
        rem //= sizes[k]
    out.reverse()
    return out


def _plan_consistent(plan: dict, pairs) -> bool:
    return all(plan.get(key) == a for key, a in pairs)


def _tmecor_double_oracle(game: VEFG, team, opp, counts, tol: float,
                          max_entries: int):
    """Exact double-oracle TMECor for games whose full plan matrix is too
    large but whose smaller team member still has an enumerable plan set."""
    if len(team) > 2:
        raise GameTooLarge(
            f"double-oracle path supports at most two team members, "
            f"got {len(team)}")
    players = list(team) + ([opp] if opp is not None else [])
    forests = {p: _plan_forest(game, p) for p in players}
    if len(team) == 1:
        small, big = None, team[0]
        small_count = 1
    else:
        si = 0 if counts[0] <= counts[1] else 1
        small, big = team[si], team[1 - si]
        small_count = counts[si]

    raw = _terminal_constraints(game, players)
    # keep only value-carrying terminals; each entry holds the chance-weighted
    # utility and the per-player (infoset, action) sequences along the path
    term = []
    for reach, util, pairs in raw:
        wu = reach * util
        if wu == 0.0:
            continue
        sp = (tuple((k, a) for q, k, a in pairs if q == small)
              if small is not None else ())
        bp = tuple((k, a) for q, k, a in pairs if q == big)
        op = (tuple((k, a) for q, k, a in pairs if q == opp)
              if opp is not None else ())
        term.append((wu, sp, bp, op))

    if small_count * max(1, len(term)) > max_entries:
        raise GameTooLarge(
            f"{small_count} plans for the smaller team member x {len(term)} "
            f"terminals exceeds the {max_entries}-entry best-response guard")
    small_plans = (reduced_normal_form_plans(game, small)
                   if small is not None else [dict()])
    small_terms = [[ti for ti, (_, sp, _, _) in enumerate(term)
                    if _plan_consistent(plan, sp)] for plan in small_plans]

    def team_best(y_mix):
        """Exact joint-team best response to an opponent mixture
        ``y_mix`` = [(prob, opponent plan)]; returns (value, joint plan)."""
        if opp is not None:
            oppw = [sum(py for py, oplan in y_mix
                        if _plan_consistent(oplan, op))
                    for (_, _, _, op) in term]
        else:
            oppw = [1.0] * len(term)
        best = None
        for si_, plan in enumerate(small_plans):
            tmass: dict = {}
            for ti in small_terms[si_]:
                wu, _, bp, _ = term[ti]
                w = wu * oppw[ti]
                if w:
                    tmass[bp] = tmass.get(bp, 0.0) + w
            v, bplan = _forest_best_plan(forests[big], tmass, 1.0)
            if best is None or v > best[0]:
                joint = {big: bplan}
                if small is not None:
                    joint[small] = plan
                best = (v, joint)
        return best

    def opp_best(x_mix):
        """Exact opponent best response to a team mixture ``x_mix`` =
        [(prob, joint plan)]; returns (team value, opponent plan)."""
        tmass: dict = {}
        for wu, sp, bp, op in term:
            w = wu * sum(px for px, jp in x_mix
                         if _plan_consistent(jp[big], bp)
                         and (small is None
                              or _plan_consistent(jp[small], sp)))
            if w:
                tmass[op] = tmass.get(op, 0.0) + w
        v, oplan = _forest_best_plan(forests[opp], tmass, -1.0)
        return v, oplan

    def as_support(joint):
        return [joint[p] for p in team]

    if opp is None:
        v, joint = team_best([])
        return TmecorResult(v, [(1.0, as_support(joint))], [(1.0, dict())])

    _, first_opp = _forest_best_plan(forests[opp], {}, -1.0)
    opps = [first_opp]
    _, first_joint = team_best([(1.0, first_opp)])
    joints = [first_joint]

    def entry(joint, oplan):
        return sum(wu for wu, sp, bp, op in term
                   if _plan_consistent(joint[big], bp)
                   and (small is None or _plan_consistent(joint[small], sp))
                   and _plan_consistent(oplan, op))

    u = np.array([[entry(first_joint, first_opp)]])
    eps = max(tol, 1e-7)
    for _ in range(10_000):
        x, y, v = matrix_game_solve(u, tol)
        x_mix = [(float(px), joints[i]) for i, px in enumerate(x)
                 if px > 1e-12]
        y_mix = [(float(py), opps[j]) for j, py in enumerate(y)
                 if py > 1e-12]
        tb_v, tb_joint = team_best(y_mix)
        ob_v, ob_plan = opp_best(x_mix)
        if tb_v <= v + eps and ob_v >= v - eps:
            team_support = [(px, as_support(jp)) for px, jp in x_mix]
            opp_support = [(py, op_) for py, op_ in y_mix]
            return TmecorResult(float(v), team_support, opp_support)
        grew = False
        if tb_v > v + eps and tb_joint not in joints:
            u = np.vstack([u, [entry(tb_joint, o) for o in opps]])
            joints.append(tb_joint)
            grew = True
        if ob_v < v - eps and ob_plan not in opps:
            u = np.hstack([u, np.array([[entry(jp, ob_plan)]
                                        for jp in joints])])
            opps.append(ob_plan)
            grew = True
        if not grew:
            raise SolverFailure(
                f"double oracle stalled: best responses {tb_v}, {ob_v} vs "
                f"restricted value {v}")
    raise SolverFailure("double oracle failed to converge")


# ---------------------------------------------------------------------------
# Compiled converted game for CFR / evaluation
# ---------------------------------------------------------------------------

_CHANCE, _TERMINAL, _COORD, _OPP = 0, 1, 2, 3
_PLAYER_TAG = {COORDINATOR: "coord", OPPONENT: "o"}


@dataclass
class _Compiled:
    kind: list[int]
    edges: list[tuple[int, ...]]          # child ids
    labels: list[tuple[str, ...]]
    probs: list[Optional[tuple[float, ...]]]
    utility: list[float]
    depth: list[int]
    # decision-node bookkeeping, per side ("coord" / "o"):
    pr_key: dict[str, dict[int, tuple]]       # node -> perfect-recall key
    profile_key: dict[str, dict[int, tuple]]  # node -> strategy-lookup key
    iset_actions: dict[str, dict[tuple, tuple[str, ...]]]
    root: int = 0
    has_opponent: bool = True


def compile_converted(cg: ConvertedGame) -> _Compiled:
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

    pr_key: dict[str, dict[int, tuple]] = {"coord": {}, "o": {}}
    profile_key: dict[str, dict[int, tuple]] = {"coord": {}, "o": {}}
    iset_actions: dict[str, dict[tuple, tuple[str, ...]]] = {
        "coord": {}, "o": {}}

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
        pk = (coord_seqs[nid] if side == "coord" else opp_seqs[nid])
        fk = (coord_profile[nid] if side == "coord" else pk)
        pr_key[side][nid] = pk
        profile_key[side][nid] = fk
        acts = labels[nid]
        prev = iset_actions[side].setdefault(fk, acts)
        if prev != acts:
            raise ActionMismatchWithinInfoset(
                f"action mismatch within infoset {fk!r}: {prev} vs {acts}")
    return _Compiled(kind=kind, edges=edges, labels=labels, probs=probs,
                     utility=utility, depth=depth, pr_key=pr_key,
                     profile_key=profile_key, iset_actions=iset_actions,
                     root=g.root, has_opponent=has_opp)


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


def _regret_match(regrets: np.ndarray) -> np.ndarray:
    pos = np.maximum(regrets, 0.0)
    s = pos.sum()
    if s <= 0:
        return np.full(len(regrets), 1.0 / len(regrets))
    return pos / s


def solve_cfr(cg: ConvertedGame, algo: str = "lcfr+",
              iterations: int = 1000, log_every: int = 0,
              log_hook: Optional[Callable] = None):
    """Run a CFR-family algorithm on a converted two-player zero-sum game.

    ``algo`` is one of ``cfr`` (simultaneous updates), ``cfr+`` (alternating
    updates, regrets floored at 0) or ``lcfr+`` (CFR+ with contributions of
    iteration t weighted linearly by t).  Returns ``(profile, log)`` where
    profile holds the normalized average behavioral strategies.
    """
    if algo not in ("cfr", "cfr+", "lcfr+"):
        raise InvalidIterationCount(f"unknown algorithm {algo!r}")
    if iterations < 0:
        raise InvalidIterationCount(f"iterations must be >= 0, "
                                    f"got {iterations}")
    c = compile_converted(cg)
    sides = ["coord"] + (["o"] if c.has_opponent else [])
    regrets = {s: {k: np.zeros(len(a))
                   for k, a in c.iset_actions[s].items()} for s in sides}
    strat_sum = {s: {k: np.zeros(len(a))
                     for k, a in c.iset_actions[s].items()} for s in sides}

    node_side = {}
    for s in sides:
        for nid in c.profile_key[s]:
            node_side[nid] = s

    frozen: Optional[dict] = None

    def current(side, key):
        if frozen is not None:
            return frozen[side][key]
        return _regret_match(regrets[side][key])

    def traverse(nid, reach_me, reach_other, me):
        """Counterfactual value (for ``me``, sign = team utility if me is
        coord else negated) and regret/strategy updates."""
        k = c.kind[nid]
        if k == _TERMINAL:
            u = c.utility[nid]
            return u if me == "coord" else -u
        if k == _CHANCE:
            total = 0.0
            for ch, p in zip(c.edges[nid], c.probs[nid]):
                if p == 0.0:
                    continue
                total += p * traverse(ch, reach_me, reach_other * p, me)
            return total
        side = node_side[nid]
        key = c.profile_key[side][nid]
        sigma = current(side, key)
        if side != me:
            # no pruning on zero-probability branches: ``me``'s average
            # strategy below must keep accumulating with ``me``'s own reach
            # even where the other player currently never goes
            total = 0.0
            for i, ch in enumerate(c.edges[nid]):
                total += sigma[i] * traverse(ch, reach_me,
                                             reach_other * sigma[i], me)
            return total
        vals = np.empty(len(c.edges[nid]))
        for i, ch in enumerate(c.edges[nid]):
            vals[i] = traverse(ch, reach_me * sigma[i], reach_other, me)
        node_val = float(sigma @ vals)
        regrets[side][key] += reach_other * (vals - node_val)
        strat_sum[side][key] += reach_me * sigma
        return node_val

    log = ConvergenceLog()

    def snapshot(it):
        prof = average_profile()
        v = expected_value(cg, prof, compiled=c)
        e = exploitability(cg, prof, compiled=c)
        log.rows.append((it, v, e))
        if log_hook is not None:
            log_hook(it, v, e)

    def average_profile() -> Profile:
        prof: Profile = {}
        for s in sides:
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

    for t in range(1, iterations + 1):
        if algo == "cfr":
            # simultaneous updates: both traversals use the strategies of
            # the start of the iteration
            frozen = {s: {k: _regret_match(r) for k, r in regrets[s].items()}
                      for s in sides}
            for s in sides:
                traverse(c.root, 1.0, 1.0, s)
            frozen = None
        else:
            for s in sides:
                traverse(c.root, 1.0, 1.0, s)
                for tab in regrets[s].values():
                    np.maximum(tab, 0.0, out=tab)
        if algo == "lcfr+":
            w = t / (t + 1.0)
            for s in sides:
                for tab in regrets[s].values():
                    tab *= w
                for tab in strat_sum[s].values():
                    tab *= w
        if log_every and (t % log_every == 0 or t == iterations):
            snapshot(t)

    return average_profile(), log


# ---------------------------------------------------------------------------
# Evaluation: expected value, best response, exploitability
# ---------------------------------------------------------------------------


def _profile_dist(profile: Profile, side: str, key: tuple,
                  actions: tuple[str, ...]) -> np.ndarray:
    try:
        d = profile[side][key]
    except KeyError:
        raise IncompleteProfile(
            f"profile lacks infoset {key!r} of player {side!r}")
    return np.array([d.get(a, 0.0) for a in actions])


def expected_value(cg: ConvertedGame, profile: Profile,
                   compiled: Optional[_Compiled] = None) -> float:
    """Team expected utility of a behavioral profile, single tree pass."""
    c = compiled if compiled is not None else compile_converted(cg)

    def walk(nid) -> float:
        k = c.kind[nid]
        if k == _TERMINAL:
            return c.utility[nid]
        if k == _CHANCE:
            return sum(p * walk(ch)
                       for ch, p in zip(c.edges[nid], c.probs[nid]) if p)
        side = "coord" if k == _COORD else "o"
        key = c.profile_key[side][nid]
        dist = _profile_dist(profile, side, key, c.labels[nid])
        return float(sum(p * walk(ch)
                         for ch, p in zip(c.edges[nid], dist) if p))

    with recursion_headroom(len(c.kind)):
        return walk(c.root)


def best_response(cg: ConvertedGame, profile: Profile, responder: str,
                  compiled: Optional[_Compiled] = None):
    """Best-response value and pure strategy for ``responder`` ("coord" or
    "o") against the other side's behavior in ``profile``.

    The responder is optimized over the perfect-recall (visibility-derived)
    information partition; the fixed side's strategy is looked up by its
    profile key, so merged imperfect-recall profiles are supported.
    """
    c = compiled if compiled is not None else compile_converted(cg)
    if responder == "o" and not c.has_opponent:
        raise IncompleteProfile("game has no opponent to respond with")
    other = "o" if responder == "coord" else "coord"
    sign = 1.0 if responder == "coord" else -1.0

    # top-down counterfactual reach of chance and the fixed player
    cf = np.zeros(len(c.kind))
    cf[c.root] = 1.0
    by_depth: dict[int, list[int]] = {}
    order = sorted(range(len(c.kind)), key=lambda n: c.depth[n])
    for nid in order:
        by_depth.setdefault(c.depth[nid], []).append(nid)
    reachable = np.zeros(len(c.kind), dtype=bool)
    reachable[c.root] = True
    for nid in order:
        if not reachable[nid]:
            continue
        k = c.kind[nid]
        if k == _TERMINAL:
            continue
        if k == _CHANCE:
            for ch, p in zip(c.edges[nid], c.probs[nid]):
                cf[ch] += cf[nid] * p
                reachable[ch] = True
        elif (k == _COORD) == (responder == "coord"):
            for ch in c.edges[nid]:
                cf[ch] += cf[nid]
                reachable[ch] = True
        else:
            key = c.profile_key[other][nid]
            dist = _profile_dist(profile, other, key, c.labels[nid])
            for ch, p in zip(c.edges[nid], dist):
                cf[ch] += cf[nid] * p
                reachable[ch] = True

    # responder infosets over perfect-recall keys, grouped by depth
    resp_isets: dict[tuple, list[int]] = {}
    for nid, key in c.pr_key[responder].items():
        if reachable[nid]:
            resp_isets.setdefault(key, []).append(nid)

    value = np.zeros(len(c.kind))
    choice: dict[tuple, str] = {}
    iset_of_depth: dict[int, list[tuple]] = {}
    for key, nids in resp_isets.items():
        iset_of_depth.setdefault(c.depth[nids[0]], []).append(key)

    for d in sorted(by_depth, reverse=True):
        for nid in by_depth[d]:
            if not reachable[nid]:
                continue
            k = c.kind[nid]
            if k == _TERMINAL:
                value[nid] = sign * c.utility[nid]
            elif k == _CHANCE:
                value[nid] = sum(p * value[ch] for ch, p
                                 in zip(c.edges[nid], c.probs[nid]))
            elif (k == _COORD) == (responder == "coord"):
                pass  # handled via infoset argmax below
            else:
                key = c.profile_key[other][nid]
                dist = _profile_dist(profile, other, key, c.labels[nid])
                value[nid] = float(sum(p * value[ch] for ch, p
                                       in zip(c.edges[nid], dist)))
        for key in iset_of_depth.get(d, ()):
            nids = resp_isets[key]
            acts = c.labels[nids[0]]
            best_i, best_v = 0, -np.inf
            for i in range(len(acts)):
                av = sum(cf[n] * value[c.edges[n][i]] for n in nids)
                if av > best_v:
                    best_i, best_v = i, av
            choice[key] = acts[best_i]
            for n in nids:
                value[n] = value[c.edges[n][best_i]]
    return float(value[c.root]), choice


def exploitability(cg: ConvertedGame, profile: Profile,
                   compiled: Optional[_Compiled] = None) -> float:
    """Sum of both players' best-response gaps (0 exactly at equilibrium).

    For games without an opponent this reduces to the coordinator's
    improvement potential max-value - current value.
    """
    c = compiled if compiled is not None else compile_converted(cg)
    v = expected_value(cg, profile, compiled=c)
    br_t, _ = best_response(cg, profile, "coord", compiled=c)
    if not c.has_opponent:
        return br_t - v
    br_o, _ = best_response(cg, profile, "o", compiled=c)
    return (br_t - v) + (br_o - (-v))
