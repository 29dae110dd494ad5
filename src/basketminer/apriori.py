"""Level-wise frequent-itemset mining with candidate generation and pruning.

Candidates of size k are produced by the classical prefix join of the
frequent (k-1)-itemsets, then pruned using the anti-monotone property: a
candidate survives only if every (k-1)-subset was frequent at the
previous level. Support is counted vertically (Zaki, IEEE TKDE 2000):
one pass over the database gives each item a cover, the set of
transactions holding it as an int bitset, and a candidate's count is the
population count of the intersection of its items' covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    ContractViolationError,
    EmptyInputError,
    FrequentItemset,
    ItemSet,
    MiningParams,
    TransactionDb,
)


@dataclass(frozen=True)
class CandidateSet:
    """Deduplicated size-k candidates, each surviving subset pruning."""

    k: int
    candidates: tuple[ItemSet, ...]

    def __post_init__(self) -> None:
        if self.candidates and any(len(c) != self.k for c in self.candidates):
            raise ValueError(f"all candidates must have exactly {self.k} items")


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
    (k-1)-subset missing from ``prev_level``. The two subsets that drop
    the last or second-to-last item are the join parents themselves, so
    only the k-2 others are looked up (none at k = 2). Output is
    lexicographically ordered and duplicate-free by construction.
    """
    if not prev_level:
        return CandidateSet(2, ())
    sizes = {len(f.itemset) for f in prev_level}
    if len(sizes) != 1:
        raise ContractViolationError(
            f"candidate_gen requires uniform itemset sizes, got {sorted(sizes)}")
    k = sizes.pop() + 1
    prev_sets = {f.itemset for f in prev_level}
    ordered = sorted(prev_sets)
    candidates = []
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if a[:-1] != b[:-1]:
                break  # sorted input: no later b shares this prefix either
            candidate = a + (b[-1],)
            if all(candidate[:j] + candidate[j + 1:] in prev_sets
                   for j in range(k - 2)):
                candidates.append(candidate)
    return CandidateSet(k, tuple(candidates))


def _covers(db: TransactionDb, items: Iterable[int]) -> dict[int, int]:
    """The cover of each of ``items``: an int whose bit i is set iff
    transaction i holds the item."""
    rows = {item: bytearray((db.n + 7) // 8) for item in items}
    for tid, t in enumerate(db.transactions):
        byte, bit = tid >> 3, 1 << (tid & 7)
        for item in t:
            row = rows.get(item)
            if row is not None:
                row[byte] |= bit
    return {item: int.from_bytes(row, "little") for item, row in rows.items()}


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
    benchmark-visible cost of candidate generation. Covers are built once,
    for the frequent singletons only: no candidate uses another item, and
    memory stays at N/8 bytes per frequent item.
    """
    covers = _covers(db, (f.itemset[0] for f in singletons))
    result = list(singletons)
    level = list(singletons)
    peak_candidates = 0
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
