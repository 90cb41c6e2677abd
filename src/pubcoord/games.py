"""Benchmark game generators: parametric toy game, 3-player Kuhn and Leduc.

All generators emit perfect-recall, public-turn-taking vEFGs with a team of
two members; the poker variants place the single adversary at a configurable
position.  Chance probabilities are exact rationals.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import SpecOutOfBounds, check_int
from .model import (
    CHANCE,
    Edge,
    Node,
    OPPONENT,
    PlayerRole,
    VEFG,
    team_member,
    validate_game,
)

_NODE_LIMIT = 5_000_000


@dataclass(frozen=True)
class ToySpec:
    """P1 receives one of C private chance outcomes, acts H times with A
    actions (unseen by P2), then P2 acts once; optionally P2 also receives a
    private outcome."""

    chance_outcomes: int
    actions: int
    depth: int
    both_private: bool = False
    payoff_seed: Optional[int] = None


@dataclass(frozen=True)
class PokerSpec:
    variant: str                 # "kuhn" | "leduc"
    ranks: int
    raises: int = 1
    adversary_position: int = 0


def _toy_size(spec: ToySpec) -> int:
    c, a, h = spec.chance_outcomes, spec.actions, spec.depth
    per_private = sum(a ** l for l in range(h)) + a ** h + a ** (h + 1)
    privates = c * c if spec.both_private else c
    chance = 1 + (c if spec.both_private else 0)
    return chance + privates * per_private


def gen_toy(spec: ToySpec) -> VEFG:
    c, a, h = spec.chance_outcomes, spec.actions, spec.depth
    for name, k, least in (("chance_outcomes", c, 1), ("actions", a, 2),
                           ("depth", h, 1)):
        check_int(name, k, SpecOutOfBounds, least)
    # A**H nodes alone exceed the limit: no exact count, whose integers
    # would grow with H
    if (h * math.log2(a) > math.log2(_NODE_LIMIT)
            or _toy_size(spec) > _NODE_LIMIT):
        raise SpecOutOfBounds(
            f"toy game C={c}, A={a}, H={h} would have more than "
            f"{_NODE_LIMIT} nodes")
    p1, p2 = team_member(0), team_member(1)
    rng = (random.Random(spec.payoff_seed)
           if spec.payoff_seed is not None else None)
    nodes: list[Node] = []

    def emit(node: Node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def subtree(level: int) -> int:
        if level < h:
            edges = tuple(
                Edge(f"a{k}", subtree(level + 1),
                     seen_by=frozenset((p1,)))
                for k in range(a))
            return emit(Node(player=p1, edges=edges))
        if level == h:
            edges = tuple(
                Edge(f"b{k}", subtree(level + 1),
                     seen_by=frozenset((p2,)))
                for k in range(a))
            return emit(Node(player=p2, edges=edges))
        util = rng.uniform(-1.0, 1.0) if rng is not None else 0.0
        return emit(Node(utility=util))

    def private_layers() -> int:
        if spec.both_private:
            def p2_chance() -> int:
                edges = tuple(
                    Edge(f"d{j}", subtree(0), Fraction(1, c),
                         seen_by=frozenset((p2,)))
                    for j in range(c))
                return emit(Node(player=CHANCE, edges=edges))

            edges = tuple(
                Edge(f"c{i}", p2_chance(), Fraction(1, c),
                     seen_by=frozenset((p1,)))
                for i in range(c))
        else:
            edges = tuple(
                Edge(f"c{i}", subtree(0), Fraction(1, c),
                     seen_by=frozenset((p1,)))
                for i in range(c))
        return emit(Node(player=CHANCE, edges=edges))

    root = private_layers()
    tag = "b" if spec.both_private else "s"
    game = VEFG(name=f"toy-C{c}-A{a}-H{h}-{tag}"
                     + (f"-seed{spec.payoff_seed}"
                        if spec.payoff_seed is not None else ""),
                players=(p1, p2), nodes=tuple(nodes), root=root)
    validate_game(game)
    return game


# ---------------------------------------------------------------------------
# Poker
# ---------------------------------------------------------------------------


def _poker_roles(adv_pos: int) -> list[PlayerRole]:
    if adv_pos not in (0, 1, 2):
        raise SpecOutOfBounds(
            f"adversary position must be 0, 1 or 2; got {adv_pos}")
    team = map(team_member, range(2))
    return [OPPONENT if pos == adv_pos else next(team) for pos in range(3)]


def _check_poker(spec: PokerSpec, variant: str, ranks: int) -> None:
    """``variant``, at least ``ranks`` ranks and one raise, all ints."""
    if spec.variant != variant:
        raise SpecOutOfBounds(
            f"variant must be {variant!r}, got {spec.variant!r}")
    for name, least in (("ranks", ranks), ("raises", 1),
                        ("adversary_position", 0)):
        check_int(name, getattr(spec, name), SpecOutOfBounds, least)


def gen_kuhn3(spec: PokerSpec) -> VEFG:
    _check_poker(spec, "kuhn", 3)  # one card per player
    if spec.raises != 1:
        raise SpecOutOfBounds("Kuhn allows exactly one raise")
    r = spec.ranks
    # chance nodes for the root and the partial deals, then a 25-node
    # betting tree under each full deal
    if 1 + r + r * (r - 1) + 25 * r * (r - 1) * (r - 2) > _NODE_LIMIT:
        raise SpecOutOfBounds(
            f"Kuhn with {r} ranks would have more than {_NODE_LIMIT} nodes")
    return _gen_poker(spec)


def gen_leduc3(spec: PokerSpec) -> VEFG:
    _check_poker(spec, "leduc", 2)
    if spec.raises not in (1, 2):
        raise SpecOutOfBounds("Leduc raises must be 1 or 2")
    if spec.ranks > 5:
        raise SpecOutOfBounds("Leduc ranks above 5 exceed the size guard")
    return _gen_poker(spec)


def _gen_poker(spec: PokerSpec) -> VEFG:
    leduc = spec.variant == "leduc"
    roles = _poker_roles(spec.adversary_position)
    all_players = frozenset(roles)
    ante = 1
    raise_amount = [1] if not leduc else [2, 4]  # per betting round
    n_rounds = 2 if leduc else 1
    copies = 3 if leduc else 1

    nodes: list[Node] = []

    def emit(node: Node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def showdown(cards, board, contrib, folded) -> int:
        alive = [p for p in range(3) if p not in folded]
        pot = sum(contrib)
        # a card pairing the board wins (a Kuhn board is None and pairs
        # none), else the highest card; a lone player wins either way
        best = max(cards[p] for p in alive)
        winners = ([p for p in alive if cards[p] == board]
                   or [p for p in alive if cards[p] == best])
        # the team's chips won minus paid, over the number of winners k
        k = len(winners)
        return emit(Node(utility=Fraction(sum(
            pot * (p in winners) - k * contrib[p] for p in range(3)
            if roles[p].kind == "team"), k)))

    def draws(deck):
        """Each rank left in ``deck``: the rank, its probability and the
        deck without it."""
        total = sum(deck)
        for r in range(spec.ranks):
            if deck[r]:
                yield (r, Fraction(deck[r], total),
                       deck[:r] + (deck[r] - 1,) + deck[r + 1:])

    def next_phase(cards, deck, board, contrib, folded, rnd) -> int:
        """Showdown after the last round, else the board card (Leduc deals
        it between its two rounds) and the next round."""
        if rnd + 1 >= n_rounds:
            return showdown(cards, board, contrib, folded)
        return emit(Node(player=CHANCE, edges=tuple(
            Edge(f"b{r}", betting_round(cards, rest, r, contrib, folded,
                                        rnd + 1), prob, all_players)
            for r, prob, rest in draws(deck))))

    def betting_round(cards, deck, board, contrib, folded, rnd) -> int:
        order = [p for p in range(3) if p not in folded]
        return act(cards, deck, board, contrib, folded, rnd,
                   pending=tuple(order), raises_left=spec.raises)

    def act(cards, deck, board, contrib, folded, rnd, pending,
            raises_left) -> int:
        if not pending:
            return next_phase(cards, deck, board, contrib, folded, rnd)
        p = pending[0]
        call_cost = max(contrib) - contrib[p]
        options = ["check"]
        if raises_left > 0:
            options.append("raise")
        if call_cost > 0:
            options.append("fold")
        edges = []
        for a in options:
            if a == "check":
                ncontrib = list(contrib)
                ncontrib[p] += call_cost
                child = act(cards, deck, board, tuple(ncontrib), folded, rnd,
                            pending[1:], raises_left)
            elif a == "raise":
                ncontrib = list(contrib)
                ncontrib[p] += call_cost + raise_amount[min(
                    rnd, len(raise_amount) - 1)]
                npending = tuple(q for q in range(p + 1, 3)
                                 if q not in folded) + tuple(
                    q for q in range(0, p) if q not in folded)
                child = act(cards, deck, board, tuple(ncontrib), folded, rnd,
                            npending, raises_left - 1)
            else:  # fold
                nfolded = folded | {p}
                npending = tuple(q for q in pending[1:] if q not in nfolded)
                if len(nfolded) == 2:  # one player left
                    child = showdown(cards, board, contrib, nfolded)
                else:
                    child = act(cards, deck, board, contrib, nfolded, rnd,
                                npending, raises_left)
            edges.append(Edge(f"p{p}{a[0]}", child, seen_by=all_players))
        return emit(Node(player=roles[p], edges=tuple(edges)))

    def deal(pos, cards, deck) -> int:
        if pos == 3:
            return betting_round(cards, deck, None, (ante,) * 3,
                                 frozenset(), 0)
        return emit(Node(player=CHANCE, edges=tuple(
            Edge(f"r{r}", deal(pos + 1, cards + (r,), rest), prob,
                 frozenset((roles[pos],)))
            for r, prob, rest in draws(deck))))

    root = deal(0, (), (copies,) * spec.ranks)
    game = VEFG(
        name=f"{spec.variant}3-r{spec.ranks}"
             + (f"-x{spec.raises}" if leduc else "")
             + f"-adv{spec.adversary_position}",
        players=tuple(sorted(set(roles), key=lambda r: r.sort_key())),
        nodes=tuple(nodes), root=root)
    validate_game(game)
    return game
