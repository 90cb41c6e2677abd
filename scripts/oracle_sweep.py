#!/usr/bin/env python3
"""Run the exact TMECor oracle over a fixed sweep of 146 small team games.

Prints one JSON line per game: its name, the ``tmecor_bruteforce`` value
(``repr`` precision), ``count_reduced_plans`` of every player in
``game.players`` order, and the oracle's wall time in seconds.  Two runs
on two versions of the package compare by their values and plan counts.

The games:

- ``mini_team_game`` (from ``tests/conftest.py``) seeds 0-59 with 2 and 3
  chance outcomes;
- Kuhn with 3 and 4 ranks at adversary positions 0-2;
- ``gen_toy`` (C, A, H) in {(2,2,1), (2,2,2), (3,2,1), (2,3,1)} with payoff
  seeds 0-4.

Names given on the command line select those games only, in sweep order.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from pubcoord import PokerSpec, ToySpec, gen_kuhn3, gen_toy
from pubcoord.solvers import count_reduced_plans, tmecor_bruteforce

# the test suite's hand-built games live with its fixtures
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import mini_team_game  # noqa: E402


def sweep():
    """(name, generator) for every game, in sweep order."""
    for seed in range(60):
        for c in (2, 3):
            yield f"mini-s{seed}-c{c}", lambda s=seed, c=c: mini_team_game(
                s, c)
    for ranks in (3, 4):
        for pos in range(3):
            yield f"kuhn{ranks}-pos{pos}", lambda r=ranks, p=pos: gen_kuhn3(
                PokerSpec("kuhn", r, adversary_position=p))
    for c, a, h in ((2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 1)):
        for seed in range(5):
            yield f"toy-{c}-{a}-{h}-s{seed}", lambda c=c, a=a, h=h, s=seed: (
                gen_toy(ToySpec(c, a, h, payoff_seed=s)))


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
        t0 = time.perf_counter()
        value = tmecor_bruteforce(g).value
        seconds = time.perf_counter() - t0
        plans = [count_reduced_plans(g, p) for p in g.players]
        print(json.dumps({"game": name, "value": value, "plans": plans,
                          "seconds": round(seconds, 4)}), flush=True)


if __name__ == "__main__":
    main()
