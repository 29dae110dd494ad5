"""Shared test utilities: direct db builders, the support count that the
engines are checked against, the dense gate's database, the uncached
reference parsers that ingest is checked and timed against,
the reference that pair counting is checked against, each pair kernel on
its own, and perfbench's independent miner."""

from __future__ import annotations

import importlib.util
import random
import sys
from functools import cache
from pathlib import Path
from types import ModuleType
from typing import Iterable, Sequence

from basketminer import pairs
from basketminer.core import (
    DomainError,
    EmptyInputError,
    IngestionError,
    ItemDictionary,
    TransactionDb,
)
from basketminer.oracle import GeneratorConfig, generate_db

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def db_from_ids(transactions: Iterable[Sequence[int]], n_items: int) -> TransactionDb:
    """Build a TransactionDb whose item ids are exactly 0..n_items-1.

    Labels are "i0".."i<n-1>", interned in id order so label ik has id k.
    """
    dictionary = ItemDictionary()
    for k in range(n_items):
        dictionary.intern(f"i{k}")
    canonical = tuple(tuple(sorted(set(t))) for t in transactions)
    return TransactionDb(canonical, dictionary)


def support_count(db: TransactionDb, ids: Iterable[int]) -> int:
    """Exact number of transactions containing every id in ``ids``: the
    independent count the engines are checked against.

    The empty itemset is contained in every transaction, so its count is N.
    Raises DomainError for ids absent from the dictionary.
    """
    needed = frozenset(ids)
    n_items = len(db.dictionary)
    for i in needed:
        if not 0 <= i < n_items:
            raise DomainError(f"unknown item id: {i}")
    if not needed:
        return db.n
    return sum(1 for t in db.transactions if needed.issubset(t))


def random_db(rng: random.Random, max_items: int = 12,
              max_transactions: int = 64, max_basket: int = 6) -> TransactionDb:
    """A small random db for engine-equivalence sweeps."""
    n_items = rng.randint(4, max_items)
    n_transactions = rng.randint(5, max_transactions)
    transactions = []
    for _ in range(n_transactions):
        size = rng.randint(1, min(max_basket, n_items))
        transactions.append(tuple(sorted(rng.sample(range(n_items), size))))
    return db_from_ids(transactions, n_items)


def dense_db() -> TransactionDb:
    """The dense gate's database: 10,000 baskets over 100 items.

    Eight overlapping 5-item patterns over item_1..item_60, labels apart
    from the item_0001-style padding universe; itemsets reach size 8."""
    patterns = tuple(
        (tuple(f"item_{(3 * k + j) % 60 + 1}" for j in range(5)), 0.15)
        for k in range(8))
    return generate_db(GeneratorConfig(
        num_transactions=10_000, universe_size=100, basket_size_range=(5, 15),
        patterns=patterns, seed=3))


def as_pairs(frequents) -> frozenset:
    return frozenset((f.itemset, f.count) for f in frequents)


def basket_reference(lines):
    """Basket ingest as a strip, a split and an intern per field."""
    dictionary = ItemDictionary()
    transactions = []
    for number, line in enumerate(lines, start=1):
        if not line.strip() or line.strip().startswith("#"):
            continue
        ids = set()
        for field in line.split(","):
            if not field.strip():
                raise IngestionError("empty item label", number)
            ids.add(dictionary.intern(field))
        transactions.append(tuple(sorted(ids)))
    if not transactions:
        raise EmptyInputError("input contains no transactions")
    return transactions, dictionary


def tid_pairs_reference(lines, skip_header):
    """Tidpairs ingest with every check run on every row."""
    dictionary = ItemDictionary()
    groups = {}
    for number, line in enumerate(lines, start=1):
        if (skip_header and number == 1) or not line.strip() \
                or line.strip().startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise IngestionError(
                f"expected exactly 2 fields 'tid,item_label', got {len(parts)}",
                number)
        if not parts[0].strip():
            raise IngestionError("empty transaction id", number)
        if not parts[1].strip():
            raise IngestionError("empty item label", number)
        item = dictionary.intern(parts[1])
        groups.setdefault(parts[0].strip(), set()).add(item)
    if not groups:
        raise EmptyInputError("input contains no transactions")
    return [tuple(sorted(ids)) for ids in groups.values()], dictionary


def brute_pair_counts(rows, counts, threshold):
    """``pairs.pair_counts``' counts by testing every pair against every
    row: under each p below ``len(counts)`` that has one, the (q, count)
    pairs with q < p that reach ``threshold``."""
    found = {}
    for p in range(len(counts)):
        pairs = []
        for q in range(p):
            count = sum(1 for row in rows if p in row and q in row)
            if count >= threshold:
                pairs.append((q, count))
        if pairs:
            found[p] = pairs
    return found


def row_counts(rows, width):
    """How many of ``rows`` hold each int below ``width``."""
    counts = [0] * width
    for row in rows:
        for p in row:
            counts[p] += 1
    return counts


def kept_ints(counts, threshold):
    """The ints that ``pairs.pair_counts`` does not ignore, ascending."""
    return [p for p, count in enumerate(counts) if count >= threshold]


def shaped_rows(seed, n, width, sizes):
    """``n`` rows of uniform random ints below ``width``, each of a size
    drawn uniformly from ``sizes``."""
    rng = random.Random(seed)
    low, high = sizes
    return [tuple(sorted(rng.sample(range(width), rng.randint(low, high))))
            for _ in range(n)]


# The benchmark's level-2 inputs in small: (n, width, sizes) for
# ``shaped_rows``, and a threshold. Every int is frequent in each.
PAIR_SHAPES = {
    # dense: 20k rows over 100 frequent items, 5-15 each.
    "dense": ((20_000, 100, (5, 15)), 600),
    # sparse: 15k rows over 1000 frequent items, 8-20 each.
    "sparse": ((15_000, 1000, (8, 20)), 150),
    # quest: 20k rows over 428 frequent items, about 9 each.
    "quest": ((20_000, 428, (5, 13)), 170),
}


def with_rare_tail(rows, width, share, seed):
    """``rows`` with rare ints added, so that they make up about ``share``
    of all the ints the rows hold; and the new width. Each rare int is at
    or above ``width`` and in about two rows."""
    rng = random.Random(seed)
    extra = round(sum(map(len, rows)) * share / (1 - share))
    universe = max(1, extra // 2)
    added = [set() for _ in rows]
    for _ in range(extra):
        added[rng.randrange(len(rows))].add(width + rng.randrange(universe))
    return ([row + tuple(sorted(more)) for row, more in zip(rows, added)],
            width + universe)


PAIR_KERNELS = ("covers", "blocks", "rows")
# A ``count_by_blocks`` budget above any cost a test input reaches, so the
# block filter always keeps its blocks. A budget of 0 makes every int heavy
# wherever there is a pair to count, so the rows count every pair.
NO_HAND_OVER = 1 << 64


def forced_pair_counts(kernel: str):
    """``pairs.pair_counts`` with its cost rule set aside: every count goes
    through ``kernel``, one of ``PAIR_KERNELS``: covers, blocks whatever
    they cost, or rows (``count_by_blocks`` at budget 0)."""
    def counted(rows, counts, threshold):
        kept = kept_ints(counts, threshold)
        if kernel == "covers":
            built = pairs.covers(rows, len(counts), kept)
            return pairs.count_by_covers(dict(zip(kept, built)), threshold)
        budget = NO_HAND_OVER if kernel == "blocks" else 0
        return pairs.count_by_blocks(rows, counts, kept, threshold, budget)
    return counted


@cache
def load_perfbench(name: str) -> ModuleType:
    """``perfbench/<name>.py``, loaded by file path: ``perfbench`` is a
    directory of scripts, not a package."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are made.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def labelled_counts(db: TransactionDb, frequents) -> dict:
    """``frequents`` as perfbench's reference miner reports itemsets:
    sorted label tuples mapped to their counts."""
    labels = list(db.dictionary)
    return {tuple(sorted([labels[i] for i in f.itemset])): f.count
            for f in frequents}


def reference_itemsets(db: TransactionDb, min_support) -> dict:
    """Every frequent itemset of ``db`` by ``perfbench/reference.py``'s
    bitset miner, which imports nothing from ``basketminer``."""
    labels = list(db.dictionary)
    transactions = [frozenset([labels[i] for i in row])
                    for row in db.transactions]
    return load_perfbench("reference").frequent_itemsets(
        transactions, min_support)
