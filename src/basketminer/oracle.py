"""Brute-force reference miner and seeded synthetic transaction generator.

The brute-force miner enumerates every candidate itemset and counts by
naive scan. It is deliberately independent of the real engines so it can
serve as their correctness oracle on small universes.

The generator is deterministic per seed. It draws from the stdlib
Mersenne Twister (``random.Random``) and consumes only ``Random.random()``,
the one primitive whose stream is guaranteed stable across Python
versions, so a given seed reproduces the same corpus everywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .core import (
    ConfigError,
    EmptyInputError,
    FrequentItemset,
    GuardError,
    ItemDictionary,
    MiningParams,
    TransactionDb,
)

# 2^20 - 1 candidate itemsets keeps a full enumeration in the seconds range.
MAX_ORACLE_ITEMS = 20


def brute_force_mine(db: TransactionDb, params: MiningParams) -> list[FrequentItemset]:
    """Enumerate every non-empty itemset over the universe and count by scan.

    Same output contract as the real engines: exact counts, sorted by
    (size, item ids). Guard-fails on universes above MAX_ORACLE_ITEMS.
    """
    if db.n == 0:
        raise EmptyInputError("cannot mine an empty transaction database")
    universe = len(db.dictionary)
    if universe > MAX_ORACLE_ITEMS:
        raise GuardError(
            f"brute-force enumeration over {universe} items exceeds the "
            f"{MAX_ORACLE_ITEMS}-item guard; use a real engine")
    threshold = params.absolute_threshold(db.n)
    transactions = db.transaction_sets
    result: list[FrequentItemset] = []
    for size in range(1, universe + 1):
        found_any = False
        for candidate in combinations(range(universe), size):
            needed = frozenset(candidate)
            count = sum(1 for t in transactions if needed <= t)
            if count >= threshold:
                result.append(FrequentItemset(candidate, count))
                found_any = True
        # Downward closure: once a whole level is empty, no superset can win.
        if not found_any:
            break
    return result


@dataclass(frozen=True)
class GeneratorConfig:
    """Configuration for the synthetic basket generator.

    ``patterns`` embeds label groups with a per-transaction occurrence
    probability; pattern labels may be arbitrary and need not belong to
    the ``item_0001``-style universe used for random padding.
    """

    num_transactions: int
    universe_size: int
    basket_size_range: tuple[int, int] = (1, 8)
    patterns: tuple[tuple[tuple[str, ...], float], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_transactions < 1:
            raise ConfigError("num_transactions must be a positive integer")
        if self.universe_size < 1:
            raise ConfigError("universe_size must be a positive integer")
        lo, hi = self.basket_size_range
        if not 1 <= lo <= hi <= self.universe_size:
            raise ConfigError(
                f"basket_size_range {self.basket_size_range} must satisfy "
                f"1 <= min <= max <= universe_size ({self.universe_size})")
        for labels, probability in self.patterns:
            if not labels or any(not label.strip() for label in labels):
                raise ConfigError(f"pattern {labels!r} has empty labels")
            if not 0 <= probability <= 1:
                raise ConfigError(f"pattern probability {probability} not in [0, 1]")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be an unsigned 64-bit integer")


def item_label(index: int) -> str:
    """Universe label for padding item ``index`` (0-based): item_0001, ..."""
    return f"item_{index + 1:04d}"


def generate_db(config: GeneratorConfig) -> TransactionDb:
    """Generate a deterministic TransactionDb from ``config``.

    Per transaction: each embedded pattern is included with its
    probability, then the basket is padded with uniform random distinct
    universe items up to a size drawn uniformly from basket_size_range.
    Identical seeds produce bit-identical databases.
    """
    rng = random.Random(config.seed)
    lo, hi = config.basket_size_range
    span = hi - lo + 1
    dictionary = ItemDictionary()
    transactions: list[tuple[int, ...]] = []
    for _ in range(config.num_transactions):
        labels: dict[str, None] = {}
        for pattern_labels, probability in config.patterns:
            if rng.random() < probability:
                for label in pattern_labels:
                    labels[label.strip()] = None
        size = lo + int(rng.random() * span)
        while len(labels) < size:
            label = item_label(int(rng.random() * config.universe_size))
            labels[label] = None
        ids = {dictionary.intern(label).id for label in labels}
        transactions.append(tuple(sorted(ids)))
    return TransactionDb(tuple(transactions), dictionary)
