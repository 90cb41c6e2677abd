"""Reference sequence numbering: the dict-based form that
``ConvertedTree.walk`` replaced with a binary search over sorted codes.

Per depth and observer, the distinct ``(parent sequence, label)`` codes of
the edges the observer sees are visited in ascending order and numbered by
``dict.setdefault`` in visiting order, so a code met at an earlier depth
keeps its id.  Tests compare the walk's ``seq`` arrays and partition keys
against it.
"""
from __future__ import annotations

import numpy as np

from pubcoord.convert import COORD_SEEN, OPP_SEEN, ConvertedTree


def reference_sequences(tree: ConvertedTree):
    """``(seq, index)``: per observer bit, every node's sequence id (-1:
    unreached) and the dict from code to sequence id."""
    count = tree.count()
    n_labels = len(tree.labels)
    seq = {bit: np.full(len(tree.player), -1, dtype=np.int64)
           for bit in (COORD_SEEN, OPP_SEEN)}
    index: dict[int, dict[int, int]] = {bit: {} for bit in seq}
    level = np.array([tree.root], dtype=np.int64)
    for s in seq.values():
        s[level] = 0
    while level.size:
        e = tree.edges_of(level, count)
        kids = tree.child[e]
        at = np.repeat(level, count[level])
        for bit, s in seq.items():
            kid_seq = s[at]
            seen = (tree.seen[e] & bit) != 0
            pairs, inv = np.unique(
                kid_seq[seen] * n_labels + tree.label[e[seen]],
                return_inverse=True)
            ids = [index[bit].setdefault(p, len(index[bit]) + 1)
                   for p in pairs.tolist()]
            kid_seq[seen] = np.array(ids, dtype=np.int64)[inv]
            s[kids] = kid_seq
        level = kids.astype(np.int64)
    return seq, index


def reference_keys(tree: ConvertedTree, index: dict[int, int]
                   ) -> list[tuple[str, ...]]:
    """The label tuple of every sequence id of one observer's ``index``."""
    table: list[tuple[str, ...]] = [()]
    for code in index:  # insertion order is id order
        parent, label = divmod(code, len(tree.labels))
        table.append(table[parent] + (tree.labels[label],))
    return table
