#!/usr/bin/env python3
"""Evaluate seeded pure profiles exactly in the converted games of a fixed
sweep of small team games, in every conversion mode.

Prints one JSON line per game and mode: its names, the exact
``converted_values`` of 20 pure profiles drawn by a seeded generator, as
``"num/den"`` strings, and the wall time in seconds of that call, the
compile included.  Two runs on two versions of the package compare by
their values.

The games:

- ``mini_team_game`` (from ``tests/conftest.py``) seeds 0-59 with 2 and 3
  chance outcomes;
- Kuhn with 3 ranks at adversary positions 0-2, and with 4 ranks at 0;
- Leduc with 2 ranks and 1 raise at adversary positions 0-2;
- ``gen_toy`` (3, 2, 2) with payoff seed 7.

The modes: basic, pruned, folded, and pruned and folded under safe
imperfect recall.  Names given on the command line select those games
only, in sweep order.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from pubcoord import (PokerSpec, ToySpec, apply_safe_imperfect_recall,
                      convert_basic, convert_folded, convert_pruned,
                      gen_kuhn3, gen_leduc3, gen_toy, infosets)
from pubcoord.convert import converted_values

# the test suite's hand-built games live with its fixtures
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import mini_team_game  # noqa: E402

MODES = {
    "basic": convert_basic,
    "pruned": convert_pruned,
    "folded": convert_folded,
    "pruned-ir": lambda g: apply_safe_imperfect_recall(convert_pruned(g)),
    "folded-ir": lambda g: apply_safe_imperfect_recall(convert_folded(g)),
}


def sweep():
    """(name, generator) for every game, in sweep order."""
    for seed in range(60):
        for c in (2, 3):
            yield f"mini-s{seed}-c{c}", lambda s=seed, c=c: mini_team_game(
                s, c)
    for ranks, positions in ((3, range(3)), (4, range(1))):
        for pos in positions:
            yield f"kuhn{ranks}-pos{pos}", lambda r=ranks, p=pos: gen_kuhn3(
                PokerSpec("kuhn", r, adversary_position=p))
    for pos in range(3):
        yield f"leduc21-pos{pos}", lambda p=pos: gen_leduc3(
            PokerSpec("leduc", 2, 1, adversary_position=p))
    yield "toy-3-2-2-s7", lambda: gen_toy(ToySpec(3, 2, 2, payoff_seed=7))


def plan_sizes(game, cg) -> list[int]:
    """The action count of each digit of a pure-profile row: the team
    infosets of ``cg``, then the opponent's infosets of ``game`` by key."""
    opp = game.opponent()
    groups = {} if opp is None else infosets(game, opp)
    return [len(a) for a in cg.iset_actions] + [
        len(game.nodes[members[0]].edges)
        for _, members in sorted(groups.items())]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("games", nargs="*", help="names of the games to run")
    args = ap.parse_args()
    games = list(sweep())
    unknown = set(args.games) - {name for name, _ in games}
    if unknown:
        ap.error(f"unknown games: {sorted(unknown)}")
    for name, make in games:
        if args.games and name not in args.games:
            continue
        g = make()
        for mode, convert in MODES.items():
            cg = convert(g)
            rng = random.Random(0)
            sizes = plan_sizes(g, cg)
            plans = [[rng.randrange(n) for n in sizes] for _ in range(20)]
            t0 = time.perf_counter()
            values = list(converted_values(g, cg, plans))
            seconds = time.perf_counter() - t0
            print(json.dumps({"game": name, "mode": mode, "values": [
                f"{v.numerator}/{v.denominator}" for v in values],
                "seconds": round(seconds, 4)}), flush=True)


if __name__ == "__main__":
    main()
