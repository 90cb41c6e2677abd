"""Node censuses of converted games and closed-form size formulas.

The closed forms predict, for the parametric toy game (C private chance
outcomes, A actions, H sequential decision levels of the informed player),
the number of P1-origin coordinator nodes of the basic and pruned
conversions and the coordinator + prescription-chance node count of the
folded conversion.  All arithmetic is exact (Python big integers).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .convert import ConvertedGame, _sides
from .errors import NonDivisibleLevelProfile, SpecOutOfBounds
from .model import CHANCE, COORDINATOR, team_member


@dataclass(frozen=True)
class NodeCensus:
    coordinator_nodes: int
    adversary_nodes: int
    terminal_nodes: int
    chance_nodes: int
    chance_single_child: int
    total_nodes: int
    coordinator_infosets: int
    adversary_infosets: int


def census(cg: ConvertedGame, compact: bool = False) -> NodeCensus:
    """Count converted-game nodes by category, from the columns of
    ``cg.tree``, and infosets: the coordinator's profile infosets (merged
    under safe IR) and the opponent's, as ``compile_converted`` numbers them.

    With ``compact=True``, probability-one dummy chance nodes of the basic and
    pruned representations (which merely replay the extracted action) are
    merged into their parent edge and not counted.  Folded prescription-chance
    nodes are structural and never compacted.  The infosets are read from
    the compiled form if ``cg`` keeps one, else from one walk that keeps no
    form and makes no key, and raise where a compile would: at an infoset
    across depths, or opponent nodes of one infoset with other actions."""
    tree = cg.tree
    # per node: 0 terminal, 1 chance, 2 coordinator, 3 any other player
    kind = np.array([0 if r is None else 1 if r is CHANCE else
                     2 if r is COORDINATOR else 3 for r in tree.roles],
                    dtype=np.int64)[tree.player]
    single = tree.count() == 1
    if compact and cg.mode != "folded":
        # the dummies: the chance children of the coordinator's edges
        dummy = tree.child[tree.edges_of(np.flatnonzero(kind == 2),
                                         tree.count())]
        kind, single = np.delete(kind, dummy), np.delete(single, dummy)
    terminal, chance, coord, adversary = np.bincount(kind, minlength=4)
    c = vars(cg).get("_compiled")
    sides = _sides(cg, tree.walk()) if c is None else c.sides
    opp = sides.get("o")
    if opp is not None:
        opp.pr.agree()
    return NodeCensus(
        coordinator_nodes=int(coord), adversary_nodes=int(adversary),
        terminal_nodes=int(terminal), chance_nodes=int(chance),
        chance_single_child=int(np.count_nonzero(single & (kind == 1))),
        total_nodes=int(coord + adversary + terminal + chance),
        coordinator_infosets=len(sides["coord"].profile.first),
        adversary_infosets=0 if opp is None else len(opp.pr.first))


def toy_formula_count(cg: ConvertedGame) -> int:
    """The node count the App.-style closed forms predict for a converted toy
    game: P1-origin coordinator nodes (basic/pruned), plus their
    prescription-chance nodes in folded mode."""
    p1 = team_member(0)
    return sum(p == p1 and k in ("coord", "presc")
               for k, p in zip(cg.node_kind, cg.origin_player))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def _check_params(c: int, a: int, h: int) -> None:
    if c < 1 or a < 2 or h < 1:
        raise SpecOutOfBounds(
            f"counts need C>=1, A>=2, H>=1; got C={c}, A={a}, H={h}")


def count_normal_plans(c: int, a: int, h: int) -> int:
    """Normal-form plan count of the informed player: A^(C*H)."""
    _check_params(c, a, h)
    return a ** (c * h)


def count_basic(c: int, a: int, h: int, both_private: bool = False) -> int:
    """Coordinator nodes of the basic conversion over the informed player's
    H decision levels: level 0 holds C (C^2 if both players have private
    outcomes) nodes and each node spawns A^C children."""
    _check_params(c, a, h)
    level = c * c if both_private else c
    total = 0
    for _ in range(h):
        total += level
        level *= a ** c
    return total


def _n_transition(a: int, survivors: int, states: int) -> int:
    """Number of prescriptions at a node with ``states`` compatible private
    states after which exactly ``survivors`` states remain."""
    return a * (a - 1) ** (states - survivors) * comb(states - 1,
                                                      states - survivors)


def _pruned_levels(c: int, a: int, h: int, both_private: bool):
    """Yield per-level maps {surviving-state count -> node count} for the
    pruned conversion."""
    seed_nodes = c * c if both_private else c
    level = {c: seed_nodes}
    for _ in range(h):
        yield level
        nxt: dict[int, int] = {}
        for states, count in level.items():
            for survivors in range(1, states + 1):
                nxt[survivors] = (nxt.get(survivors, 0)
                                  + count * _n_transition(a, survivors,
                                                          states))
        level = nxt


def count_pruned(c: int, a: int, h: int, both_private: bool = False) -> int:
    _check_params(c, a, h)
    return sum(sum(level.values())
               for level in _pruned_levels(c, a, h, both_private))


def count_folded(c: int, a: int, h: int) -> int:
    """Coordinator plus prescription-chance nodes of the folded conversion;
    identical with or without a second private outcome."""
    _check_params(c, a, h)
    total = 0
    for level in _pruned_levels(c, a, h, both_private=False):
        for states, count in level.items():
            if count % states != 0:
                raise NonDivisibleLevelProfile(
                    f"level profile count {count} not divisible by "
                    f"{states} surviving states")
            total += count // states * (a ** states + 1)
    return total
