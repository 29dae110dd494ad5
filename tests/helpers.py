"""Shared test utilities: direct db builders, the uncached reference
parsers that ingest is checked and timed against, and the references that
pair counting and FP-tree building are checked against."""

from __future__ import annotations

import random
from collections import Counter
from typing import Iterable, Sequence

from basketminer.core import (
    EmptyInputError,
    IngestionError,
    ItemDictionary,
    TransactionDb,
)
from basketminer.fpgrowth import FpTree, WeightedRow, _header


def db_from_ids(transactions: Iterable[Sequence[int]], n_items: int) -> TransactionDb:
    """Build a TransactionDb whose item ids are exactly 0..n_items-1.

    Labels are "i0".."i<n-1>", interned in id order so label ik has id k.
    """
    dictionary = ItemDictionary()
    for k in range(n_items):
        dictionary.intern(f"i{k}")
    canonical = tuple(tuple(sorted(set(t))) for t in transactions)
    return TransactionDb(canonical, dictionary)


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
            ids.add(dictionary.intern(field).id)
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
        item = dictionary.intern(parts[1]).id
        groups.setdefault(parts[0].strip(), set()).add(item)
    if not groups:
        raise EmptyInputError("input contains no transactions")
    return [tuple(sorted(ids)) for ids in groups.values()], dictionary


def brute_pair_counts(rows, width, threshold):
    """``pairs.pair_counts`` by testing every pair against every row."""
    found = []
    for p in range(width):
        pairs = []
        for q in range(p):
            count = sum(1 for row in rows if p in row and q in row)
            if count >= threshold:
                pairs.append((q, count))
        found.append(pairs)
    return found


def dict_insertion_tree(rows: Iterable[WeightedRow], threshold: int) -> FpTree:
    """The FP tree of weighted ``rows``, built one row at a time with a
    child dict keyed by ``parent * width + rank``: FP-Growth's own builder
    before it inserted sorted paths."""
    rows = list(rows)
    totals = Counter()
    for items, weight in rows:
        for item in items:
            totals[item] += weight
    header = _header(totals.items(), threshold)
    tree = FpTree(threshold)
    tree.header = header
    width = len(header)
    by_rank = [entry.item for entry in header]
    rank = {item: position for position, item in enumerate(by_rank)}
    heads = [0] * width
    children = {}
    for items, weight in rows:
        node = 0
        for position in sorted([rank[i] for i in items if i in rank]):
            key = node * width + position
            child = children.get(key)
            if child is None:
                child = len(tree.item)
                children[key] = child
                tree.item.append(by_rank[position])
                tree.count.append(weight)
                tree.parent.append(node)
                tree.next_same_item.append(heads[position])
                heads[position] = child
            else:
                tree.count[child] += weight
            node = child
    for entry, head in zip(header, heads):
        entry.head = head
    return tree


def tree_paths(tree: FpTree) -> Counter:
    """The multiset of (root-to-node item path, count) over the tree's
    nodes, the root excepted: equal for two trees exactly when they are
    the same tree, however their nodes are numbered."""
    paths = Counter()
    for node in range(1, tree.node_count):
        path = []
        ancestor = node
        while ancestor:
            path.append(tree.item[ancestor])
            ancestor = tree.parent[ancestor]
        paths[tuple(reversed(path)), tree.count[node]] += 1
    return paths
