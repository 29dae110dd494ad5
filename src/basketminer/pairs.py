"""Exact pair counting: Apriori's second level.

Apriori's level 2 joins every pair of frequent items, so finding its
frequent 2-itemsets means counting, for every frequent item p, the items
q that occur with it often enough. That is one count over rows of dense
ints, and ``pair_counts`` does it in one of two ways:

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
After a count by prefixes, those levels call the same ``covers`` for just
the items their candidates use.
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
    ``covers(rows, width, range(width))`` counted to find them, or None
    when the cost rule counted by prefixes.

    Each row is an ascending tuple of ints below ``width``.
    """
    if _covers_cheaper(rows, width):
        built = covers(rows, width, range(width))
        return count_by_covers(built, threshold), built
    return count_by_prefixes(rows, width, threshold), None


def _covers_cheaper(rows: Sequence[Row], width: int) -> bool:
    """The cost rule: C(F, 2)·⌈N/64⌉ intersected words against
    Σ C(|row|, 2) counted prefix elements."""
    words = width * (width - 1) // 2 * (-(-len(rows) // 64))
    sizes = list(map(len, rows))
    pairs = (sum(map(mul, sizes, sizes)) - sum(sizes)) // 2
    return words < _WORDS_PER_PAIR * pairs


def covers(rows: Sequence[Row], width: int,
           wanted: Sequence[int]) -> list[int]:
    """The cover of each int in ``wanted``, in that order: an int whose bit
    i is set iff ``rows[i]`` holds it. Ints not wanted get no cover.

    ``pair_counts`` wants every int below ``width``; Apriori's levels above
    2 want only the items their candidates use (3 of 1000 on the sparse
    benchmark input, 92 of 428 on quest). Testing each int for a wanted
    cover costs the first 2-3 ms on the dense benchmark input, under 1% of
    its run.
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
        counts = map(int.bit_count, map(cover.__and__, covers[:p]))
        found.append([(q, count) for q, count in enumerate(counts)
                      if count >= threshold])
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
        # Most bases hold no frequent item, and one C-level max() says so
        # without a Python-level pass: about 3 ms of the 86 ms kernel on
        # quest, nothing visible on sparse.
        found.append(sorted((q, count) for q, count in counts.items()
                            if count >= threshold)
                     if counts and max(counts.values()) >= threshold else [])
    return found
