"""Exact pair counting: Apriori's second level.

Apriori's level 2 joins every pair of frequent items, so finding its
frequent 2-itemsets means counting, for every frequent item p, the items
q that occur with it often enough. That is one count over rows of ints,
in which the ints counted below the threshold are ignored, and
``pair_counts`` does it in one of two ways:

* by covers: each int's cover is an N-bit int whose bit i is set iff row i
  holds it, and a pair's count is the population count of the two covers'
  intersection (Zaki's vertical tidsets, IEEE TKDE 2000). This costs
  C(F, 2) intersections of ⌈N/64⌉ machine words for F kept ints over N
  rows;
* by blocks: the kept ints are cut into blocks of consecutive ints, and a
  block's cover bounds the count of every pair it takes part in, as an
  ancestor's count bounds its descendants' (Srikant & Agrawal, VLDB 1995).
  Only the pairs whose bound reaches the threshold are intersected, so
  most covers are never built. An int in too many rows for a block is
  counted with every other int by one C-level ``Counter`` over its rows,
  and so is every int when the filter would cost more than that.

A cost rule picks covers when they do less than counting the pairs inside
the rows: on dense data (few ints, long rows). Otherwise blocks run: on
sparse data with few frequent pairs they intersect almost nothing. Either
way the cover of each int in a frequent pair comes back with the counts,
for Apriori's levels above 2. The blocks path reads the rows once for the
blocks, building the heavy ints' covers as it goes, and at most once more
through ``covers``, for the ints that still need one; only a layout
re-cut with every int heavy reads them a third time.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from itertools import chain, compress
from math import isqrt
from operator import mul

Row = tuple[int, ...]
# Under each p that has one, the (q, count) pairs with q < p whose count
# reaches the threshold, by ascending q.
PairCounts = dict[int, list[tuple[int, int]]]
# ``_cut_blocks``' marks for an int in no block: one counted in too many
# rows for a block, and one counted below the threshold.
HEAVY, IGNORED = -1, -2

# What one counted element costs, in intersected words. Measured in-process
# on the benchmark's seed-0 inputs (Python 3.11, 2-core x86-64 host): a
# counted element costs 100-130 ns, an intersected word 4-7 ns. Words per
# pair inside a row there are 1.3 (dense), 27.6 (quest, whose rows keep
# their 13% of infrequent ints) and 80 (sparse), so any value from 2 to 27
# picks the same path on all three. After the block filter, the words left
# to intersect per pair inside a row are 0 (sparse) and 0.96 (quest), so
# any value of 2 or more keeps both on blocks.
_WORDS_PER_PAIR = 16


def pair_counts(rows: Sequence[Row], counts: Sequence[int],
                threshold: int) -> tuple[PairCounts, dict[int, int]]:
    """The (q, count) pairs with q < p that occur together in at least
    ``threshold`` of ``rows``, under each p that has one; and the cover of
    each int in such a pair, as ``covers`` builds it.

    Each row is an ascending tuple of ints below ``len(counts)``.
    ``counts[p]`` is the number of rows that hold p when that reaches the
    threshold, and any smaller number otherwise: an int counted below the
    threshold is in no frequent pair, so it is ignored. It is in no block,
    it is never paired and it gets no cover.
    """
    kept = list(compress(range(len(counts)), map(threshold.__le__, counts)))
    budget = _row_cost(rows)
    if _covers_cost(len(rows), len(kept)) < budget:
        built = covers(rows, len(counts), kept)
        return count_by_covers(dict(zip(kept, built)), threshold)
    return count_by_blocks(rows, counts, kept, threshold, budget)


def _covers_cost(n: int, width: int) -> int:
    """What ``count_by_covers`` costs, in intersected words: C(width, 2)
    intersections of ⌈n/64⌉ words."""
    return width * (width - 1) // 2 * (-(-n // 64))


def _row_cost(rows: Sequence[Row]) -> int:
    """What counting the pairs inside every row costs, in intersected
    words: ``_WORDS_PER_PAIR`` for each of its Σ C(|row|, 2) elements."""
    sizes = list(map(len, rows))
    return _WORDS_PER_PAIR * ((sum(map(mul, sizes, sizes)) - sum(sizes)) // 2)


def _block_cap(threshold: int, n: int) -> int:
    """The most rows a block's items may be counted in, together.

    Two blocks whose counts sum to c each, spread at random over N rows,
    meet in about c²/N of them, which is the threshold t at c = √(t·N).
    So blocks of ¾·√(t·N) meet in about 9/16·t rows, below the threshold,
    and an item counted in more rows is heavy: it gets no block. Measured
    on the sparse benchmark input (seed 0; t = 150, N = 15,000, 1000
    items), factors from 0.6 to 1.0 beat counting the pairs inside the
    rows: at ¾, 198 blocks and 3 heavy items left no block pair to
    intersect; at 1.0, 43 block pairs and 2,213 item pairs. At 1.2, 6,227
    block pairs and 478,646 item pairs were left, 4x slower.
    """
    return 3 * isqrt(threshold * n) // 4


def _cut_blocks(counts: Sequence[int], kept: Sequence[int],
                cap: int) -> tuple[list[int], list[list[int]]]:
    """Each int's block: ``HEAVY`` if its count is above ``cap``,
    ``IGNORED`` if it is not in ``kept``; and each block's ints. The kept
    ints that are not heavy are cut, in ascending order, into maximal runs
    whose counts sum to at most ``cap``."""
    block_of = [IGNORED] * len(counts)
    members: list[list[int]] = []
    total = cap + 1
    for p in kept:
        count = counts[p]
        if count > cap:
            block_of[p] = HEAVY
            continue
        total += count
        if total > cap:
            members.append([])
            total = count
        members[-1].append(p)
        block_of[p] = len(members) - 1
    return block_of, members


def count_by_blocks(rows: Sequence[Row], counts: Sequence[int],
                    kept: Sequence[int], threshold: int,
                    budget: int) -> tuple[PairCounts, dict[int, int]]:
    """``pair_counts`` by block covers, over the ascending ``kept`` ints.

    One ``Counter`` over the rows that hold a heavy int (see
    ``_block_cap``) counts it with every other int. The covers of two
    blocks meet in every row that holds a pair across them, and a block's
    pairs within it lie in the rows that hold two or more of its ints. So
    only the pairs whose block bound reaches ``threshold`` are counted, by
    covers built for just their ints. When the block filter, or the work
    it leaves, would cost more than ``budget`` intersected words, every
    int is heavy instead: no block, and the rows count every pair.

    The pass that builds the block covers also builds the heavy ints'
    covers, when there are blocks; every other int of a frequent pair gets
    its cover from one ``covers`` pass, which also serves the block pairs.
    """
    n = len(rows)
    words = -(-n // 64)  # per exact intersection
    size = (n + 7) // 8
    # Blocks, or every int heavy (cap -1) when blocks cost over ``budget``.
    for cap in (_block_cap(threshold, n), -1):
        block_of, members = _cut_blocks(counts, kept, cap)
        if _covers_cost(n, len(members)) > budget:
            continue
        # Bytearrays while they are built, then ints. Since each block is a
        # run of consecutive kept ints, its ints in a row are adjacent,
        # heavy and ignored ones aside.
        block_covers: list = [bytearray(size) for _ in members]
        crowded = [0] * len(members)  # rows holding two or more of its ints
        heavy: dict[int, list[Row]] = {
            p: [] for p in kept if block_of[p] == HEAVY}
        # Heavy ints get their covers here only beside blocks: with every
        # int heavy, these would be every int's cover at once.
        heavy_bits = {p: bytearray(size) for p in heavy} if members else {}
        for tid, row in enumerate(rows):
            byte, bit = tid >> 3, 1 << (tid & 7)
            last = -1
            for p in row:
                block = block_of[p]
                if block >= 0:
                    if block != last:
                        block_covers[block][byte] |= bit
                        last, repeated = block, False
                    elif not repeated:
                        crowded[block] += 1
                        repeated = True
                elif block == HEAVY:
                    heavy[p].append(row)
                    if members:
                        heavy_bits[p][byte] |= bit
        for block, cover in enumerate(block_covers):
            block_covers[block] = int.from_bytes(cover, "little")
        live = []  # block pairs (a, b), a < b, whose covers meet often enough
        for b, cover in enumerate(block_covers):
            bounds = map(int.bit_count, map(cover.__and__, block_covers[:b]))
            live.extend([(a, b) for a, bound in enumerate(bounds)
                         if bound >= threshold])
        del block_covers  # freed before the covers pass, as is heavy
        inside = [b for b, bound in enumerate(crowded) if bound >= threshold]
        exact = sum([len(members[a]) * len(members[b]) for a, b in live]) + sum(
            [len(members[b]) * (len(members[b]) - 1) // 2 for b in inside])
        heavy_elements = sum(map(len, chain.from_iterable(heavy.values())))
        if not members or (
                exact * words + _WORDS_PER_PAIR * heavy_elements <= budget):
            break

    found: PairCounts = {}
    for h, held in heavy.items():
        for q, count in Counter(chain.from_iterable(held)).items():
            if count < threshold:
                continue
            if q < h:
                found.setdefault(h, []).append((q, count))
            elif block_of[q] >= 0:  # a heavy q > h counts h itself
                found.setdefault(q, []).append((h, count))
    del heavy
    # One pass for the ints of the live blocks and every other int paired
    # so far that has no cover yet; none when all have one, as on sparse.
    exact_ints = chain.from_iterable(
        members[b] for b in set(chain.from_iterable(live)).union(inside))
    wanted = sorted(_paired(found).union(exact_ints).difference(heavy_bits))
    cover_of = dict(zip(wanted, covers(rows, len(counts), wanted))) \
        if wanted else {}
    for p in list(heavy_bits):
        cover_of[p] = int.from_bytes(heavy_bits.pop(p), "little")
    for a, b in live:
        _count_into(found, cover_of, members[b], members[a], threshold)
    for b in inside:
        block = members[b]
        for i in range(1, len(block)):
            _count_into(found, cover_of, block[i:i + 1], block[:i], threshold)
    for entries in found.values():
        entries.sort()
    return found, {p: cover_of[p] for p in _paired(found)}


def _paired(found: PairCounts) -> set[int]:
    """Every int in a pair of ``found``."""
    return set(found).union(
        q for entries in found.values() for q, _ in entries)


def _count_into(found: PairCounts, cover_of: dict[int, int],
                ps: Sequence[int], qs: Sequence[int], threshold: int) -> None:
    """Add each (q, count) with q in ``qs`` and count >= ``threshold`` to
    ``found[p]``, for each p in ``ps``, counting by ``cover_of``."""
    q_covers = [cover_of[q] for q in qs]
    for p in ps:
        counts = map(int.bit_count, map(cover_of[p].__and__, q_covers))
        entries = [(q, count) for q, count in zip(qs, counts)
                   if count >= threshold]
        if entries:
            found.setdefault(p, []).extend(entries)


def covers(rows: Sequence[Row], width: int,
           wanted: Sequence[int]) -> list[int]:
    """The cover of each distinct int in ``wanted``, in that order: an int
    whose bit i is set iff ``rows[i]`` holds it. Ints not wanted get no
    cover.

    ``pair_counts`` wants every kept int on dense data, and on sparse data
    only the ints of the block pairs it must count exactly and of the
    pairs its heavy ints make: none on the sparse benchmark input, whose
    frequent pairs are all between heavy items. Testing each int for a
    wanted cover costs the first 2-3 ms on the dense benchmark input, under
    1% of its run.
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
    # Each bytearray goes as its int is made, so the two never all coexist.
    built = []
    for p in wanted:
        built.append(int.from_bytes(bits[p], "little"))
        bits[p] = None
    return built


def count_by_covers(cover_of: dict[int, int],
                    threshold: int) -> tuple[PairCounts, dict[int, int]]:
    """``pair_counts`` from the cover of each kept int, by ascending int."""
    ints = list(cover_of)
    built = list(cover_of.values())
    found: PairCounts = {}
    for i, cover in enumerate(built):
        counts = map(int.bit_count, map(cover.__and__, built[:i]))
        entries = [(q, count) for q, count in zip(ints, counts)
                   if count >= threshold]
        if entries:
            found[ints[i]] = entries
    return found, {p: cover_of[p] for p in _paired(found)}
