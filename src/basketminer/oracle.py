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
from itertools import combinations
from math import comb

from .core import (
    ConfigError,
    EmptyInputError,
    FrequentItemset,
    Frozen,
    GuardError,
    ItemDictionary,
    MiningParams,
    TransactionDb,
)

# Bounds the item universe, so at most 2^20 - 1 candidate itemsets.
MAX_ORACLE_ITEMS = 20
# Bounds the work. Each candidate is counted by a subset test against
# every transaction, so a level of k-itemsets over a universe U costs
# C(|U|, k)·N tests, and the levels reached so far may not pass this sum.
# Without it, one 20-item basket repeated N times at support 1/N took 7 s
# at N = 100 and 16-20 s at N = 400. A test of a 10-itemset against a
# 20-item transaction took 253 ns, so 2^22 tests take about a second at
# most (Python 3.11, 2-core x86-64 host).
MAX_ORACLE_TESTS = 2 ** 22


def brute_force_mine(db: TransactionDb, params: MiningParams) -> list[FrequentItemset]:
    """Enumerate every non-empty itemset over the universe and count by scan.

    Same output contract as the real engines: exact counts, sorted by
    (size, item ids). Guard-fails on universes above MAX_ORACLE_ITEMS, and
    before a level that would take its subset tests past MAX_ORACLE_TESTS.
    """
    if db.n == 0:
        raise EmptyInputError("cannot mine an empty transaction database")
    universe = len(db.dictionary)
    if universe > MAX_ORACLE_ITEMS:
        raise GuardError(
            f"brute-force enumeration over {universe} items exceeds the "
            f"{MAX_ORACLE_ITEMS}-item guard; use a real engine")
    threshold = params.absolute_threshold(db.n)
    transactions = [frozenset(t) for t in db.transactions]
    result: list[FrequentItemset] = []
    tests = 0
    for size in range(1, universe + 1):
        tests += comb(universe, size) * db.n
        if tests > MAX_ORACLE_TESTS:
            raise GuardError(
                f"brute-force enumeration up to the {size}-itemsets would "
                f"take {tests} subset tests, past the {MAX_ORACLE_TESTS}-test "
                f"guard; use a real engine")
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


class GeneratorConfig(Frozen):
    """Configuration for the synthetic basket generator.

    ``patterns`` embeds label groups with a per-transaction occurrence
    probability; pattern labels may be arbitrary and need not belong to
    the ``item_0001``-style universe used for random padding.
    """

    __slots__ = _fields = ("num_transactions", "universe_size",
                           "basket_size_range", "patterns", "seed")

    def __init__(self, num_transactions: int, universe_size: int,
                 basket_size_range: tuple[int, int] = (1, 8),
                 patterns: tuple[tuple[tuple[str, ...], float], ...] = (),
                 seed: int = 0) -> None:
        if num_transactions < 1:
            raise ConfigError("num_transactions must be a positive integer")
        if universe_size < 1:
            raise ConfigError("universe_size must be a positive integer")
        lo, hi = basket_size_range
        if not 1 <= lo <= hi <= universe_size:
            raise ConfigError(
                f"basket_size_range {basket_size_range} must satisfy "
                f"1 <= min <= max <= universe_size ({universe_size})")
        for labels, probability in patterns:
            if not labels or any(not label.strip() for label in labels):
                raise ConfigError(f"pattern {labels!r} has empty labels")
            if not 0 <= probability <= 1:
                raise ConfigError(f"pattern probability {probability} not in [0, 1]")
        if not 0 <= seed < 2 ** 64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        super().__init__(num_transactions, universe_size, basket_size_range,
                         patterns, seed)


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
        ids = {dictionary.intern(label) for label in labels}
        transactions.append(tuple(sorted(ids)))
    return TransactionDb(tuple(transactions), dictionary)
