"""Equilibrium solvers for converted games and an exact team oracle.

Provides:

- ``reduced_normal_form_plans`` / ``count_reduced_plans`` — a player's
  reduced plans (actions assigned only at infosets reachable given the
  plan's own earlier choices), enumerated or counted over its sequences.
- ``matrix_game_solve`` — zero-sum matrix game solving by one linear
  program and its duals, with a certified pure-response gap.
- ``tmecor_bruteforce`` — team-maxmin-with-correlation oracle: an exact
  double oracle over joint team plans, for teams of any size.
  ``max_entries`` bounds its one large array, the boolean reach of the
  enumerated joint team plans x the value-carrying terminals.
- ``solve_cfr`` — CFR / CFR+ / Linear CFR+ on a converted two-player
  zero-sum game, with a convergence log.
- ``best_response`` / ``exploitability`` / ``expected_value`` — evaluation
  utilities.  Best responses are always computed on the perfect-recall
  (visibility-derived) information partition; profiles defined on merged
  imperfect-recall keys are expanded onto it.

All of them work on one sequence form, :class:`pubcoord.convert._Treeplex`:
a converted game's sides, compiled by
:func:`pubcoord.convert.compile_converted` on the first call and kept on
the game, or a team game's players, from one walk (:func:`_sequence_form`).
Every best response is :meth:`~pubcoord.convert._Treeplex.best`.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .convert import ConvertedGame, _Compiled, _Treeplex, compile_converted
from .errors import (
    EmptyMatrix,
    GameTooLarge,
    IncompleteProfile,
    InvalidIterationCount,
    InvalidParameter,
    SolverFailure,
    check_int,
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


def _sequence_form(game: VEFG, players: list):
    """One breadth-first walk of ``game``: per listed player its treeplex
    (empty for ``None``), infosets numbered in walk order, and per
    value-carrying terminal its chance-weighted utility.  The players must
    have perfect recall; the infosets are the groups
    :func:`~pubcoord.model.check_perfect_recall` checked."""
    index = {p: k for k, p in enumerate(players) if p is not None}
    groups = check_perfect_recall(game, list(index))
    key_of = [{nid: key for key, members in groups.get(p, {}).items()
               for nid in members} for p in players]
    # per player, infoset key -> (sequence it follows, first sequence,
    # depth, actions), in walk order
    found: list[dict] = [{} for _ in players]
    size = [1] * len(players)
    wu, seqs = [], []
    queue = [(game.root, Fraction(1), (0,) * len(players), 0)]
    for nid, reach, seq, depth in queue:  # read as it grows: breadth-first
        node = game.nodes[nid]
        if node.is_terminal:
            w = float(reach) * float(node.utility)
            if w != 0.0:
                wu.append(w)
                seqs.append(seq)
            continue
        k = index.get(node.player)
        if k is not None:
            key = key_of[k][nid]
            if key not in found[k]:
                found[k][key] = (seq[k], size[k], depth,
                                 tuple(e.label for e in node.edges))
                size[k] += len(node.edges)
            first = found[k][key][1]
        for a, e in enumerate(node.edges):
            queue.append((
                e.child, reach * Fraction(e.prob) if node.is_chance else reach,
                seq if k is None else seq[:k] + (first + a,) + seq[k + 1:],
                depth + 1))
    term = np.array(seqs, dtype=np.int64).reshape(-1, len(players)).T
    forms = []
    for k, sets in enumerate(found):
        after, _, depth, actions = zip(*sets.values()) if sets else [()] * 4
        forms.append(_Treeplex(
            after, list(map(len, actions)), depth, term[k], keys=list(sets),
            labels=[a for acts in actions for a in acts]))
    return forms, np.array(wu)


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


def _check_tol(tol) -> None:
    if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
            or not 0 < tol < math.inf):  # NaN fails too
        raise InvalidParameter(f"tol must be a finite real > 0, got {tol!r}")


def matrix_game_solve(matrix, tol: float = 1e-9):
    """Solve a zero-sum matrix game (row player maximizes).

    Returns ``(row_strategy, col_strategy, value)`` as numpy arrays and a
    float.  One LP gives both: the row player's maximin LP, max v s.t.
    x^T U >= v, sum x = 1, x >= 0, on ``U`` shifted to positive values for
    numerical stability, and the duals of its column constraints, which are
    the column player's minimax strategy.  The best pure-response gap of
    both players is certified ``<= max(tol, 1e-7)``, and an LP failure or a
    larger gap raises :class:`SolverFailure`.  Entries and ``tol`` must be
    finite reals, ``tol`` > 0 (:class:`InvalidParameter`).
    """
    try:
        raw = np.asarray(matrix)
        u = raw.astype(float) if raw.dtype.kind in "biufO" else None
    except (TypeError, ValueError):  # ragged, or an entry that is no number
        u = None
    if u is None or not np.isfinite(u).all():
        raise InvalidParameter("matrix entries must be finite real numbers")
    if u.ndim != 2 or u.size == 0:
        raise EmptyMatrix(f"matrix with shape {u.shape} is not a non-empty "
                          f"2-D array")
    _check_tol(tol)
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
    y = np.maximum(-res.ineqlin.marginals, 0.0)
    x, y = x / x.sum(), y / y.sum()
    value = float(x @ u @ y)
    row_gap = float(np.max(u @ y)) - value
    col_gap = value - float(np.min(x @ u))
    # written so that a NaN gap fails too
    if not (row_gap <= max(tol, 1e-7) and col_gap <= max(tol, 1e-7)):
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
    utility.  The team member with the most reduced plans is best-responded
    by the treeplex pass (:meth:`~pubcoord.convert._Treeplex.best`, whose
    choice is the first action within 1e-12 x the largest terminal weight
    of the best); the joint plans of the others are enumerated once, as a
    boolean (joint plans x terminals) reach array, and chunks of its rows
    go through the pass together, with no float array over ``2**20``
    entries.  The opponent is best-responded by the same pass.  When that
    reach array would exceed ``max_entries`` entries,
    :class:`GameTooLarge` is raised.  ``tol`` must be a finite real > 0 and
    ``max_entries`` an int >= 1, not a bool (:class:`InvalidParameter`).
    """
    _check_tol(tol)
    check_int("max_entries", max_entries, least=1)
    return _tmecor_double_oracle(game, tol, max_entries)


def _tmecor_double_oracle(game: VEFG, tol: float, max_entries: int):
    """The double oracle of :func:`tmecor_bruteforce`."""
    team = sorted(game.team_players(), key=lambda r: r.sort_key())
    # with no team or no opponent, that side is an empty form: one plan,
    # playing sequence 0
    forms, wu = _sequence_form(game, [*(team or [None]), game.opponent()])
    *members, opp = forms
    counts = [f.count() for f in members]
    # the member with the most plans, the later one on a tie, is decided by
    # its best-response pass and the others' joint plans are enumerated
    dp = max(range(len(members)), key=lambda k: (counts[k], k))
    big = members[dp]
    # terminals sorted by the pass member's sequence, so that a terminal
    # gain reduces onto its sequences by contiguous runs
    order = np.argsort(big.term, kind="stable")
    wu, seq = wu[order], [f.term[order] for f in forms]
    cols, starts = np.unique(seq[dp], return_index=True)
    rest = [k for k in range(len(members)) if k != dp]
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
    step = max(1, _CHUNK_ENTRIES // max(1, len(wu), len(big.parent)))

    # a joint plan is (row of ``reach``, the pass member's plan)
    def team_best(oppw):
        """Exact joint-team best response to the opponent mixture's reach
        ``oppw`` of each terminal; returns (value, joint plan).  The rows of
        ``reach`` go through in chunks, so that no float array exceeds
        ``_CHUNK_ENTRIES`` entries; the first best row wins a tie."""
        w, best = wu * oppw, None
        for i in range(0, len(reach), step):
            gain = np.zeros((len(reach[i:i + step]), len(big.parent)))
            gain[:, cols] = np.add.reduceat(reach[i:i + step] * w, starts, 1)
            value, choice = big.best(gain, np.abs(w).max(initial=0.0))
            r = int(value.argmax())
            if best is None or value[r] > best[0]:
                best = value[r], i + r, choice[r]
        return float(best[0]), (best[1], big.reduced(best[2]))

    def opp_best(teamw):
        """Exact opponent best response to the team mixture's reach
        ``teamw`` of each terminal; returns (team value, opponent plan)."""
        w = -wu * teamw
        value, choice = opp.best(np.bincount(seq[-1], w, len(opp.parent))[
            None], np.abs(w).max(initial=0.0))
        return -float(value[0]), opp.reduced(choice[0])

    def as_support(joint):
        r, plan = joint
        idx = np.unravel_index(r, [counts[k] for k in rest])
        out = {k: members[k].as_dict(plans[i])
               for k, plans, i in zip(rest, rest_plans, idx)}
        out[dp] = big.as_dict(plan)
        return [out[k] for k in range(len(team))]

    def key(joint):
        return joint[0], joint[1].tobytes()

    opps = [opp_best(np.zeros(len(wu)))[1]]  # all ties: first actions
    joints = [team_best(opps[0][seq[-1]])[1]]
    eps = max(tol, 1e-7)
    for _ in range(10_000):
        # each restricted plan's terminal reach; the matrix entries are
        # the chance-weighted utilities of the terminals both let through
        team_reach = np.array([reach[r] & plan[seq[dp]] for r, plan in joints])
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


def _normalize(groups: list, flat: np.ndarray) -> np.ndarray:
    """:func:`_normalize_rows` of each infoset's slots, by partition groups."""
    out = np.empty_like(flat)
    for slots in groups:
        out[slots] = _normalize_rows(flat[slots])
    return out


def _traversal(c: _Compiled, me: str) -> Callable:
    """One CFR traversal for side ``me``: a function that adds to ``me``'s
    regret and strategy-sum arrays, given both sides' strategies per slot,
    which stay fixed for the traversal.

    Over the sequence form (:class:`~pubcoord.convert._Treeplex`): the
    other side's realization plan weights the terminals, one bincount puts
    them on ``me``'s sequences, and a bottom-up pass over ``me``'s levels
    gives their counterfactual values.  A regret is a value less its
    infoset's mean, 0 within 1e-12 of the value: a tie up to rounding,
    whose sign regret matching would follow.  Strategy sums add node count
    x own realization x strategy, counting no node below a zero-probability
    chance edge, as a depth-first CFR never enters one.  The increments are
    such a walk's to 1e-12 relative per traversal."""
    f, n = c.sides[me].form, c.sides[me].profile.offset[-1]
    other = "o" if me == "coord" else "coord"
    sign = 1.0 if me == "coord" else -1.0
    levels = list(zip(f.cut, f.cut[1:]))[::-1]

    def run(regrets, strat, other_sigma, my_sigma) -> None:
        w = sign * _weights(c, {other: other_sigma})
        v = np.bincount(f.term, w, len(f.parent)).astype(float, copy=False)
        x, s = f.plan(my_sigma[f.slot])
        for a, b in levels:  # deepest first: a level's values are final
            v[:a] += np.bincount(f.parent[a:b], s[a:b] * v[a:b], a)
        v, s = v[1:], s[1:]
        gain = v - np.bincount(f.iset, s * v)[f.iset]
        gain[np.abs(gain) <= 1e-12 * np.abs(v)] = 0.0
        regrets += np.bincount(f.slot, gain, n)
        strat += np.bincount(f.slot, f.live * x[f.parent[1:]] * s, n)

    return run


def _iterate(c: _Compiled, walks: list, algo: str, t: int,
             regrets: list, strat: list) -> None:
    """Iteration ``t`` of ``algo``: one traversal per side (``walks``, made
    by :func:`_traversal`), updating the per-side regret and strategy-sum
    arrays in place."""
    parts = [side.profile for side in c.sides.values()]  # coord, then o
    # both sides' regret-matched strategies (None: no opponent); ``cfr``
    # keeps those of the start of the iteration for both traversals
    sigma = [_normalize(p.groups, np.maximum(r, 0.0))
             for p, r in zip(parts, regrets)] + [None]
    for k, run in enumerate(walks):
        run(regrets[k], strat[k], sigma[1 - k], sigma[k])
        if algo != "cfr":
            np.maximum(regrets[k], 0.0, out=regrets[k])
            if k + 1 < len(walks):
                sigma[k] = _normalize(parts[k].groups, regrets[k])
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
    alike within it, and runs as numpy passes over the sequence form of the
    compiled game (see :func:`_traversal`).  Zero reach of the other side
    prunes nothing: the traverser's average strategy keeps accumulating
    with its own reach.  ``iterations`` and ``log_every`` must be ints
    >= 0, not bools (:class:`InvalidIterationCount`).
    """
    if algo not in ("cfr", "cfr+", "lcfr+"):
        raise InvalidIterationCount(f"unknown algorithm {algo!r}")
    for name, k in (("iterations", iterations), ("log_every", log_every)):
        check_int(name, k, InvalidIterationCount)
    c = compile_converted(cg)
    parts = [side.profile for side in c.sides.values()]  # coord, then o
    regrets = [np.zeros(p.offset[-1]) for p in parts]
    strat = [np.zeros(p.offset[-1]) for p in parts]
    walks = [_traversal(c, name) for name in c.sides]

    def average() -> dict:
        return {name: _normalize(p.groups, x)
                for name, p, x in zip(c.sides, parts, strat)}

    log = ConvergenceLog()
    for t in range(1, iterations + 1):
        _iterate(c, walks, algo, t, regrets, strat)
        if log_every and (t % log_every == 0 or t == iterations):
            sigma = average()
            v = float(_weights(c, sigma).sum())
            e = _best_response(c, "coord", sigma)[0] + (
                _best_response(c, "o", sigma)[0] if "o" in sigma else -v)
            log.rows.append((t, v, e))
            if log_hook is not None:
                log_hook(t, v, e)
    return {name: c.sides[name].profile.as_profile(x)
            for name, x in average().items()}, log


# ---------------------------------------------------------------------------
# Evaluation: expected value, best response, exploitability
# ---------------------------------------------------------------------------


def _weights(c: _Compiled, sigma: dict, skip: str = "") -> np.ndarray:
    """Per value-carrying terminal: its team value times the realization
    weight of the strategy in ``sigma`` (name -> a probability per profile
    slot) of each side of the game but ``skip``."""
    w = c.value
    for name, side in c.sides.items():
        if name in sigma and name != skip:
            f = side.form
            w = w * f.plan(sigma[name][f.slot])[0][f.term]
    return w


def _best_response(c: _Compiled, responder: str, sigma: dict):
    """:func:`best_response` to the other side's strategy in ``sigma``: its
    value, and per perfect-recall infoset the index of its choice, by
    :meth:`~pubcoord.convert._Treeplex.best` of the weighted terminals."""
    f, w = c.sides[responder].form, _weights(c, sigma, responder)
    value, choice = f.best(np.bincount(f.term, w if responder == "coord"
                                       else -w, len(f.parent))[None],
                           np.abs(w).max(initial=0.0))
    return float(value[0]), choice[0]


def expected_value(cg: ConvertedGame, profile: Profile) -> float:
    """Team expected utility of a behavioral profile: one product over the
    value-carrying terminals of both sides' realization plans."""
    c = compile_converted(cg)
    return float(_weights(c, {name: side.profile.lookup(profile, name)
                              for name, side in c.sides.items()}).sum())


def best_response(cg: ConvertedGame, profile: Profile, responder: str):
    """Best-response value and pure strategy for ``responder`` ("coord" or
    "o") against the other side's behavior in ``profile``.

    The responder is optimized over the perfect-recall (visibility-derived)
    information partition, by one bottom-up pass over its treeplex; the
    fixed side's strategy is looked up by its profile key, so merged
    imperfect-recall profiles are supported.  The value is the maximum; an
    infoset's choice is its first action within 1e-12 x the largest
    terminal weight of the best, so that rounding does not decide a tie.
    ``responder`` must be one of the two names (:class:`InvalidParameter`).
    """
    if responder not in ("coord", "o"):
        raise InvalidParameter(f"responder must be 'coord' or 'o', got "
                               f"{responder!r}")
    c = compile_converted(cg)
    if responder not in c.sides:
        raise IncompleteProfile("game has no opponent to respond with")
    value, pick = _best_response(c, responder, {
        name: side.profile.lookup(profile, name)
        for name, side in c.sides.items() if name != responder})
    part = c.sides[responder].pr
    return value, {key: acts[k] for key, acts, k in zip(
        part.keys, part.actions, pick.tolist())}


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
