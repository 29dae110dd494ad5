"""Level-wise frequent-itemset mining with candidate generation and pruning.

Candidates of size k are produced by the classical prefix join of the
frequent (k-1)-itemsets, then pruned using the anti-monotone property: a
candidate survives only if every (k-1)-subset was frequent at the
previous level. Support is counted vertically (Zaki, IEEE TKDE 2000):
each item of a frequent pair gets a cover, the set of transactions
holding it as an int bitset, and a candidate's count is the population
count of the intersection of its items' covers. Level 2, where every pair
of frequent items is a candidate, is counted by ``pairs``' kernel
instead, which returns those covers with its counts. Its cost rule
intersects every pair's covers only on dense data. Elsewhere it bounds
each pair by the covers of blocks of items and intersects only the pairs
whose bound reaches the threshold, or, when too many do, counts the pairs
inside each transaction.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import groupby
from operator import itemgetter

from .core import (
    EmptyInputError,
    FrequentItemset,
    Frozen,
    ItemSet,
    MiningParams,
    TransactionDb,
)
from . import pairs


class CandidateSet(Frozen):
    """Deduplicated candidates, all of one size, each surviving subset
    pruning.

    Not re-checked here: ``candidate_gen``, the one builder, joins only
    itemsets of one size k - 1 into ``prefix + (a, b)``, and refuses a
    level of mixed sizes.
    """

    __slots__ = _fields = ("candidates",)

    def __init__(self, candidates: tuple[ItemSet, ...]) -> None:
        object.__setattr__(self, "candidates", candidates)


def frequent_singletons(db: TransactionDb, threshold: int) -> list[FrequentItemset]:
    """All single-item itemsets with count >= threshold, ordered by item id."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    counts = db.item_frequencies()
    return [FrequentItemset((item,), count)
            for item, count in sorted(counts.items())
            if count >= threshold]


def candidate_gen(prev_level: Sequence[FrequentItemset]) -> CandidateSet:
    """Join frequent (k-1)-itemsets into pruned k-candidates.

    Self-join on the first k-2 items, then drop any candidate with a
    (k-1)-subset missing from ``prev_level``. Sorted, the itemsets sharing
    a prefix form one run, and only pairs within a run are joined, so a
    level costs the sum of its runs' squared lengths, not its own. The two
    subsets that drop the last or second-to-last item are the join parents
    themselves, so only the k-2 others are looked up (none at k = 2).
    Output is lexicographically ordered and duplicate-free by construction.
    """
    if not prev_level:
        return CandidateSet(())
    sizes = {len(f.itemset) for f in prev_level}
    if len(sizes) != 1:
        raise ValueError(
            f"candidate_gen requires uniform itemset sizes, got {sorted(sizes)}")
    k = sizes.pop() + 1
    prev_sets = {f.itemset for f in prev_level}
    candidates = []
    for prefix, run in groupby(sorted(prev_sets), itemgetter(slice(0, -1))):
        lasts = [itemset[-1] for itemset in run]
        for i, a in enumerate(lasts):
            for b in lasts[i + 1:]:
                candidate = prefix + (a, b)
                if all(candidate[:j] + candidate[j + 1:] in prev_sets
                       for j in range(k - 2)):
                    candidates.append(candidate)
    return CandidateSet(tuple(candidates))


def _count(covers: dict[int, int], candidate_set: CandidateSet,
           threshold: int) -> list[FrequentItemset]:
    """Candidates whose covers' intersection holds >= ``threshold`` tids."""
    result = []
    for candidate in candidate_set.candidates:
        tids = covers[candidate[0]]
        for item in candidate[1:]:
            tids &= covers[item]
        count = tids.bit_count()
        if count >= threshold:
            result.append(FrequentItemset(candidate, count))
    return result


def mine_levels(db: TransactionDb, singletons: Sequence[FrequentItemset],
                threshold: int) -> tuple[list[FrequentItemset], int]:
    """Grow levels 2.. from ``singletons`` until a level is empty; returns
    (all frequents, peak candidates).

    The peak is the largest candidate table built at any level, the
    benchmark-visible cost of candidate generation. Level 2 joins every
    pair of singletons, so its table is C(F, 2) for F singletons; it is
    counted by ``pairs.pair_counts``, which also returns the cover of each
    item in a frequent pair, N/8 bytes each. It reads the transactions as
    they are stored, with item ids as its ints, and ignores the infrequent
    items. The levels above intersect those covers: a later candidate
    joins frequent itemsets of the level before, so it uses no other item.
    """
    counts = [0] * len(db.dictionary)
    for f in singletons:
        counts[f.itemset[0]] = f.count
    counted, covers = pairs.pair_counts(db.transactions, counts, threshold)
    level = [FrequentItemset((q, p), count)
             for p, found in counted.items() for q, count in found]
    result = list(singletons)
    result.extend(level)
    peak_candidates = len(singletons) * (len(singletons) - 1) // 2
    while level:
        candidate_set = candidate_gen(level)
        peak_candidates = max(peak_candidates, len(candidate_set.candidates))
        level = _count(covers, candidate_set, threshold)
        result.extend(level)
    result.sort(key=lambda f: (len(f.itemset), f.itemset))
    return result, peak_candidates


def apriori_mine(db: TransactionDb, params: MiningParams) -> list[FrequentItemset]:
    """All itemsets with count >= ceil(min_support * N), sorted by (size, ids)."""
    if db.n == 0:
        raise EmptyInputError("cannot mine an empty transaction database")
    threshold = params.absolute_threshold(db.n)
    singletons = frequent_singletons(db, threshold)
    result, _ = mine_levels(db, singletons, threshold)
    return result
