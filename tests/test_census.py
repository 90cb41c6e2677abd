"""Closed-form size formulas and node censuses of converted benchmarks."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from pubcoord import (
    PokerSpec,
    ToySpec,
    apply_safe_imperfect_recall,
    census,
    convert_basic,
    convert_folded,
    convert_pruned,
    count_basic,
    count_folded,
    count_normal_plans,
    count_pruned,
    gen_kuhn3,
    gen_leduc3,
    gen_toy,
)
from pubcoord.census import toy_formula_count
from pubcoord.convert import coordinator_node_keys
from pubcoord.errors import SpecOutOfBounds

from conftest import mini_team_game

# Published size table for the parametric game with C=3 private outcomes and
# A=2 actions, H = 1..14 informed-player levels, in scientific notation with
# three significant digits.  Columns: normal-form plans, basic, pruned,
# folded conversion sizes.  Case (a): only the informed player has a private
# outcome; case (b): both players do (the folded column is identical).
SIZE_TABLE_A = """\
1 8.00E+00 3.00E+00 3.00E+00 9.00E+00
2 6.40E+01 2.70E+01 2.70E+01 7.50E+01
3 5.12E+02 2.19E+02 1.35E+02 3.75E+02
4 4.10E+03 1.76E+03 5.19E+02 1.46E+03
5 3.28E+04 1.40E+04 1.72E+03 4.86E+03
6 2.62E+05 1.12E+05 5.18E+03 1.48E+04
7 2.10E+06 8.99E+05 1.46E+04 4.18E+04
8 1.68E+07 7.19E+06 3.92E+04 1.13E+05
9 1.34E+08 5.75E+07 1.01E+05 2.93E+05
10 1.07E+09 4.60E+08 2.55E+05 7.40E+05
11 8.59E+09 3.68E+09 6.27E+05 1.82E+06
12 6.87E+10 2.95E+10 1.51E+06 4.41E+06
13 5.50E+11 2.36E+11 3.59E+06 1.05E+07
14 4.40E+12 1.88E+12 8.40E+06 2.46E+07"""

SIZE_TABLE_B = """\
1 8.00E+00 9.00E+00 9.00E+00 9.00E+00
2 6.40E+01 8.10E+01 8.10E+01 7.50E+01
3 5.12E+02 6.57E+02 4.05E+02 3.75E+02
4 4.10E+03 5.26E+03 1.56E+03 1.46E+03
5 3.28E+04 4.21E+04 5.16E+03 4.86E+03
6 2.62E+05 3.37E+05 1.55E+04 1.48E+04
7 2.10E+06 2.70E+06 4.37E+04 4.18E+04
8 1.68E+07 2.16E+07 1.17E+05 1.13E+05
9 1.34E+08 1.73E+08 3.04E+05 2.93E+05
10 1.07E+09 1.38E+09 7.65E+05 7.40E+05
11 8.59E+09 1.10E+10 1.88E+06 1.82E+06
12 6.87E+10 8.84E+10 4.53E+06 4.41E+06
13 5.50E+11 7.07E+11 1.08E+07 1.05E+07
14 4.40E+12 5.65E+12 2.52E+07 2.46E+07"""


def _fmt(n: int) -> str:
    return f"{n:.2E}"


@pytest.mark.parametrize("table,both", [(SIZE_TABLE_A, False),
                                        (SIZE_TABLE_B, True)])
def test_closed_forms_reproduce_size_table(table, both):
    for line in table.splitlines():
        h, normal, basic, pruned, folded = line.split()
        h = int(h)
        assert _fmt(count_normal_plans(3, 2, h)) == normal
        assert _fmt(count_basic(3, 2, h, both)) == basic
        assert _fmt(count_pruned(3, 2, h, both)) == pruned
        assert _fmt(count_folded(3, 2, h)) == folded


def test_closed_form_guards():
    with pytest.raises(SpecOutOfBounds):
        count_basic(0, 2, 1)
    with pytest.raises(SpecOutOfBounds):
        count_pruned(2, 1, 1)
    with pytest.raises(SpecOutOfBounds):
        count_folded(2, 2, 0)


@pytest.mark.parametrize("c", [2, 3])
@pytest.mark.parametrize("a", [2, 3])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_formula_matches_construction(c, a, h):
    if count_basic(c, a, h) > 200_000:
        pytest.skip("basic conversion too large for the construction check")
    g = gen_toy(ToySpec(c, a, h))
    assert toy_formula_count(convert_basic(g)) == count_basic(c, a, h)
    assert toy_formula_count(convert_pruned(g)) == count_pruned(c, a, h)
    assert toy_formula_count(convert_folded(g)) == count_folded(c, a, h)


def test_formula_matches_construction_both_private():
    for c, a, h in [(2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2), (2, 3, 1)]:
        g = gen_toy(ToySpec(c, a, h, both_private=True))
        assert (toy_formula_count(convert_basic(g))
                == count_basic(c, a, h, both_private=True))
        assert (toy_formula_count(convert_pruned(g))
                == count_pruned(c, a, h, both_private=True))
        assert toy_formula_count(convert_folded(g)) == count_folded(c, a, h)


def test_census_compact_drops_dummy_chance(mini):
    cg = convert_pruned(mini)
    full = census(cg)
    compact = census(cg, compact=True)
    assert compact.total_nodes < full.total_nodes
    assert compact.coordinator_nodes == full.coordinator_nodes
    # folded prescription chance is structural and never compacted
    cf = convert_folded(mini)
    assert census(cf, compact=True).chance_nodes == census(cf).chance_nodes


@pytest.mark.parametrize("outcomes", [2, 3])
def test_compact_census_drops_exactly_the_dummy_nodes(outcomes):
    for seed in range(20):
        g = mini_team_game(seed, outcomes)
        for convert in (convert_basic, convert_pruned, convert_folded):
            cg = convert(g)
            for v in [cg] + ([apply_safe_imperfect_recall(cg)]
                             if cg.mode != "basic" else []):
                full, compact = census(v), census(v, compact=True)
                dummy = np.array([k == "dummy" for k in v.node_kind])
                n = int(dummy.sum())
                assert (n > 0) == (v.mode != "folded")
                assert compact == replace(
                    full, chance_nodes=full.chance_nodes - n,
                    total_nodes=full.total_nodes - n,
                    chance_single_child=full.chance_single_child - int(
                        np.count_nonzero(v.tree.count()[dummy] == 1)))


# ---------------------------------------------------------------------------
# Kuhn: published conversion sizes (folded representation, with the
# safe-imperfect-recall infoset merge for the coordinator infoset column)
# ---------------------------------------------------------------------------

KUHN_ROWS = {
    # pos: (coord, adversary, terminal, chance, chance_single, total,
    #       coord_infosets, adversary_infosets)
    0: (222, 219, 1320, 1129, 936, 2890, 86, 12),
    1: (291, 372, 1704, 1405, 1188, 3772, 113, 12),
    2: (591, 288, 2436, 2461, 2184, 5776, 155, 12),
}


@pytest.mark.parametrize("pos", [0, 1, 2])
def test_kuhn_census_reproduces_published_row(pos):
    g = gen_kuhn3(PokerSpec("kuhn", 3, adversary_position=pos))
    cg = apply_safe_imperfect_recall(convert_folded(g))
    c = census(cg)
    assert (c.coordinator_nodes, c.adversary_nodes, c.terminal_nodes,
            c.chance_nodes, c.chance_single_child, c.total_nodes,
            c.coordinator_infosets, c.adversary_infosets) == KUHN_ROWS[pos]


@pytest.mark.parametrize("pos,expect", [(0, 392), (1, 556), (2, 856)])
def test_kuhn_rank4_merged_coordinator_infosets(pos, expect):
    g = gen_kuhn3(PokerSpec("kuhn", 4, adversary_position=pos))
    cg = apply_safe_imperfect_recall(convert_folded(g))
    assert len(set(coordinator_node_keys(cg).values())) == expect


# ---------------------------------------------------------------------------
# Leduc: the infoset columns match the published table exactly; the node
# totals are regression pins of this implementation (they run about 1.5%
# below the published totals for every configuration; the infoset agreement
# indicates an equivalent information structure with a slightly different
# tree layout).
# ---------------------------------------------------------------------------


def test_leduc_census_small_config():
    g = gen_leduc3(PokerSpec("leduc", 2, raises=2, adversary_position=0))
    cg = apply_safe_imperfect_recall(convert_folded(g))
    c = census(cg)
    assert c.coordinator_infosets == 5624   # published value
    assert c.adversary_infosets == 630      # published value
    assert c.total_nodes == 408465          # regression pin
