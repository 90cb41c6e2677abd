#!/usr/bin/env python3
"""Census of converted poker benchmarks (folded representation with the
safe-imperfect-recall coordinator merge), per adversary position.

Prints, for each configuration: coordinator / adversary / terminal / chance
node counts, the number of probability-one chance nodes, the total, the
coordinator / adversary infoset counts, and the seconds spent converting
(``convert_folded`` plus the merge; generation excluded) and in the census.

Select configurations with --benchmarks.  All three positions of one
configuration take, on a 2-vCPU Xeon with Python 3.11: Kuhn-3 under a
second, Kuhn-4 ~6 s, Leduc 2x2 ~30 s, Kuhn-5 ~1 min (peak RSS ~550 MB) and
Leduc 3x1 ~1.2 min (peak RSS ~770 MB).
"""
from __future__ import annotations

import argparse
import time

from pubcoord import (
    PokerSpec,
    apply_safe_imperfect_recall,
    census,
    convert_folded,
    gen_kuhn3,
    gen_leduc3,
)

CONFIGS = {
    "kuhn3": [PokerSpec("kuhn", 3, adversary_position=p) for p in (0, 1, 2)],
    "kuhn4": [PokerSpec("kuhn", 4, adversary_position=p) for p in (0, 1, 2)],
    "kuhn5": [PokerSpec("kuhn", 5, adversary_position=p) for p in (0, 1, 2)],
    "leduc2x2": [PokerSpec("leduc", 2, raises=2, adversary_position=p)
                 for p in (0, 1, 2)],
    "leduc3x1": [PokerSpec("leduc", 3, raises=1, adversary_position=p)
                 for p in (0, 1, 2)],
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--benchmarks", nargs="+", default=["kuhn3"],
                    choices=sorted(CONFIGS) + ["all"])
    args = ap.parse_args()
    names = sorted(CONFIGS) if "all" in args.benchmarks else args.benchmarks
    print(f"{'game':>10} {'pos':>3} {'coord':>8} {'adv':>8} {'term':>8} "
          f"{'chance':>8} {'ch1':>8} {'total':>9} {'iso_c':>7} {'iso_a':>6} "
          f"{'conv_s':>7} {'cens_s':>7}")
    for name in names:
        for spec in CONFIGS[name]:
            gen = gen_kuhn3 if spec.variant == "kuhn" else gen_leduc3
            g = gen(spec)
            t0 = time.perf_counter()
            cg = apply_safe_imperfect_recall(convert_folded(g))
            t1 = time.perf_counter()
            c = census(cg)
            t2 = time.perf_counter()
            print(f"{name:>10} {spec.adversary_position:>3} "
                  f"{c.coordinator_nodes:>8} {c.adversary_nodes:>8} "
                  f"{c.terminal_nodes:>8} {c.chance_nodes:>8} "
                  f"{c.chance_single_child:>8} {c.total_nodes:>9} "
                  f"{c.coordinator_infosets:>7} {c.adversary_infosets:>6} "
                  f"{t1 - t0:>7.2f} {t2 - t1:>7.2f}", flush=True)


if __name__ == "__main__":
    main()
