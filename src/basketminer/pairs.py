"""Exact pair counting: FP-Growth's first level and Apriori's second.

Both engines start deep mining by counting, for every frequent item p, the
items q that occur with it often enough. FP-Growth needs the frequent items
of p's conditional pattern base, which are the items ranked before p that
share a transaction with it; counting them while the tree is built is
Grahne & Zhu's FP-array ("Efficiently Using Prefix-trees in Mining Frequent
Itemsets", FIMI 2003). Apriori needs its frequent 2-itemsets. Both are the
same count over rows of dense ints, and ``pair_counts`` does it in one of
two ways:

* by covers: each int's cover is an N-bit int whose bit i is set iff row i
  holds it, and a pair's count is the population count of the two covers'
  intersection (Zaki's vertical tidsets, IEEE TKDE 2000). This costs
  C(F, 2) intersections of ⌈N/64⌉ machine words for F ints over N rows;
* by prefixes: one C-level ``Counter`` per p over the prefixes before p of
  the rows that hold p. This costs one counted element per pair inside a
  row, Σ C(|row|, 2) in all.

A cost rule picks whichever does less: covers win on dense data (few ints,
long rows), prefixes on sparse data (many ints, few pairs per row). The
covers it builds come back with the counts, for Apriori's levels above 2.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import mul
from typing import Sequence

Row = tuple[int, ...]
# For each p, the (q, count) pairs with q < p whose count reaches the
# threshold, by ascending q.
PairCounts = list[list[tuple[int, int]]]

# What one counted prefix element costs, in intersected words. Measured
# in-process on the benchmark's seed-0 inputs (Python 3.11, 2-core x86-64
# host): a counted element costs 100-130 ns, an intersected word 4-7 ns.
# Words per pair there are 1.3 (dense), 37 (quest) and 80 (sparse), so any
# value from 2 to 36 picks the same path on all three.
_WORDS_PER_PAIR = 16


def pair_counts(rows: Sequence[Row], width: int,
                threshold: int) -> tuple[PairCounts, list[int] | None]:
    """For each p below ``width``, the (q, count) pairs with q < p that
    occur together in at least ``threshold`` of ``rows``; and the
    ``covers(rows, width)`` counted to find them, or None when the cost
    rule counted by prefixes.

    Each row is an ascending tuple of ints below ``width``.
    """
    if _covers_cheaper(rows, width):
        built = covers(rows, width)
        return count_by_covers(built, threshold), built
    return count_by_prefixes(rows, width, threshold), None


def _covers_cheaper(rows: Sequence[Row], width: int) -> bool:
    """The cost rule: C(F, 2)·⌈N/64⌉ intersected words against
    Σ C(|row|, 2) counted prefix elements."""
    words = width * (width - 1) // 2 * (-(-len(rows) // 64))
    sizes = list(map(len, rows))
    pairs = (sum(map(mul, sizes, sizes)) - sum(sizes)) // 2
    return words < _WORDS_PER_PAIR * pairs


def covers(rows: Sequence[Row], width: int) -> list[int]:
    """The cover of each int below ``width``: an int whose bit i is set iff
    ``rows[i]`` holds it."""
    size = (len(rows) + 7) // 8
    bits = [bytearray(size) for _ in range(width)]
    for tid, row in enumerate(rows):
        byte, bit = tid >> 3, 1 << (tid & 7)
        for p in row:
            bits[p][byte] |= bit
    return [int.from_bytes(cover, "little") for cover in bits]


def covers_of(rows: Sequence[Row], width: int,
              wanted: Sequence[int]) -> list[int]:
    """``[covers(rows, width)[p] for p in wanted]``, without building the
    covers of the other ints.

    A separate loop from ``covers``, because neither way of sharing one
    loop is free. Testing each int for a wanted cover makes ``covers``
    10-20% slower where it builds them all (dense benchmark input).
    Pointing every unwanted int at one shared throwaway cover keeps
    ``covers`` as fast, but this loop then writes every element of every
    row: 3 wanted of 1000 ints on the sparse benchmark input take 0.021
    instead of 0.011 s, and 92 of 428 on quest 0.023 instead of 0.018 s
    (best of 9 each), as long as building every cover there.
    """
    size = (len(rows) + 7) // 8
    bits: list[bytearray | None] = [None] * width
    for p in wanted:
        bits[p] = bytearray(size)
    for tid, row in enumerate(rows):
        byte, bit = tid >> 3, 1 << (tid & 7)
        for p in row:
            cover = bits[p]
            if cover is not None:
                cover[byte] |= bit
    return [int.from_bytes(bits[p], "little") for p in wanted]


def count_by_covers(covers: Sequence[int], threshold: int) -> PairCounts:
    """``pair_counts`` from each int's cover."""
    found: PairCounts = []
    for p, cover in enumerate(covers):
        counts = list(map(int.bit_count, map(cover.__and__, covers[:p])))
        found.append([(q, count) for q, count in enumerate(counts)
                      if count >= threshold]
                     if counts and max(counts) >= threshold else [])
    return found


def count_by_prefixes(rows: Sequence[Row], width: int,
                      threshold: int) -> PairCounts:
    """``pair_counts`` from the prefixes of the rows that hold each p."""
    holders: list[list[Row]] = [[] for _ in range(width)]
    for row in rows:
        for p in row:
            holders[p].append(row)
    found: PairCounts = []
    for p, held in enumerate(holders):
        counts = Counter(chain.from_iterable(
            [row[:row.index(p)] for row in held]))
        # Most bases hold no frequent item at all on sparse data, and one
        # C-level max() says so without a Python-level pass.
        found.append(sorted((q, count) for q, count in counts.items()
                            if count >= threshold)
                     if counts and max(counts.values()) >= threshold else [])
    return found
