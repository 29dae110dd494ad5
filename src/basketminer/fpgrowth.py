"""Candidate-generation-free mining via a frequency-ordered prefix tree.

Transactions are filtered to frequent items, reordered by descending
item frequency (ties broken by ascending item id), and inserted into a
prefix tree whose shared prefixes merge with accumulated counts. A
header table chains all nodes of each item, enabling conditional
pattern-base extraction. Mining recurses over conditional trees; a
single-path tree short-circuits into direct subset enumeration. Each
pattern base is counted before it is built, so a base in which no item
reaches the threshold is never built.

The tree is stored as parallel int lists indexed by node: ``item``,
``count``, ``parent`` and ``next_same_item``. Node 0 is the root, and
nodes are numbered in creation order, so a parent always has a smaller
index than its children. Node 0 also ends every header chain, since the
root never joins one. While the tree is built, child lookup goes through
one dict keyed by ``parent * width + rank``, where ``width`` is the
header length. Nothing in the tree refers back to anything and the lists
and the dict hold only ints, so the cyclic garbage collector has nothing
to walk, and a tree no longer used is freed at once by reference counting.

Output is count-for-count identical to the Apriori engine.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations
from typing import Iterable, Sequence

from .core import (
    ContractViolationError,
    EmptyInputError,
    FrequentItemset,
    ItemSet,
    MiningParams,
    TransactionDb,
)

ROOT_ITEM = -1

# (items, weight) rows: a plain transaction has weight 1, a conditional
# pattern-base path carries the count of the node it was lifted from.
WeightedRow = tuple[Sequence[int], int]


class HeaderEntry:
    """Header-table row: item id, its total count, and the index of the
    most recently created node of the item (0 when it has none)."""

    __slots__ = ("item", "total", "head")

    def __init__(self, item: int, total: int):
        self.item = item
        self.total = total
        self.head = 0


class FpTree:
    """Prefix tree plus header table, pinned to the threshold it was built with.

    ``item``, ``count``, ``parent`` and ``next_same_item`` are indexed by
    node; node 0 is the root, whose own ``parent`` entry is never read.
    ``next_same_item`` threads each header chain, newest node first, and
    0 ends it.
    """

    def __init__(self, threshold: int, n_transactions: int):
        self.item = [ROOT_ITEM]
        self.count = [0]
        self.parent = [0]
        self.next_same_item = [0]
        self.header: list[HeaderEntry] = []
        self.threshold = threshold
        self.n_transactions = n_transactions

    @property
    def node_count(self) -> int:
        """Total nodes including the root."""
        return len(self.item)

    def single_path(self) -> list[int] | None:
        """The root-to-leaf node indices if the tree is one path, else None.

        Nodes are numbered in creation order, so the tree is one path
        exactly when every node's parent is the node created just before it.
        """
        parent = self.parent
        for node in range(1, len(parent)):
            if parent[node] != node - 1:
                return None
        return list(range(1, len(parent)))


def _header(totals: Iterable[tuple[int, int]],
            threshold: int) -> list[HeaderEntry]:
    """Entries for the ``(item, total)`` pairs reaching ``threshold``, by
    descending total, ties broken by ascending item id."""
    kept = sorted((-total, item) for item, total in totals if total >= threshold)
    return [HeaderEntry(item, -negated) for negated, item in kept]


def _build_tree(rows: Iterable[WeightedRow], header: list[HeaderEntry],
                threshold: int, n_transactions: int) -> FpTree:
    """Insert each row's header items in header order; ``header`` holds
    the rows' item totals."""
    tree = FpTree(threshold, n_transactions)
    tree.header = header
    if not header:
        return tree
    width = len(header)
    by_rank = [entry.item for entry in header]
    rank = {item: position for position, item in enumerate(by_rank)}
    heads = [0] * width
    item_of, count, parent, next_same_item = (
        tree.item, tree.count, tree.parent, tree.next_same_item)
    children: dict[int, int] = {}
    for items, weight in rows:
        node = 0
        for position in sorted([rank[i] for i in items if i in rank]):
            key = node * width + position
            child = children.get(key)
            if child is None:
                child = len(item_of)
                children[key] = child
                item_of.append(by_rank[position])
                count.append(weight)
                parent.append(node)
                next_same_item.append(heads[position])
                heads[position] = child
            else:
                count[child] += weight
            node = child
    for entry, head in zip(header, heads):
        entry.head = head
    return tree


def build_fp_tree(db: TransactionDb, threshold: int) -> FpTree:
    """First pass drops items below ``threshold``; second pass inserts
    each transaction's surviving items in header order."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    header = _header(Counter(chain.from_iterable(db.transactions)).items(),
                     threshold)
    return _build_tree(((t, 1) for t in db.transactions), header, threshold,
                       db.n)


def _base_totals(tree: FpTree, entry: HeaderEntry) -> dict[int, int]:
    """Each item's total in the conditional pattern base of ``entry``: the
    summed counts of the entry's nodes that lie below a node of the item."""
    item, count, parent, next_same_item = (
        tree.item, tree.count, tree.parent, tree.next_same_item)
    totals: dict[int, int] = {}
    total_of = totals.get
    node = entry.head
    while node:
        weight = count[node]
        ancestor = parent[node]
        while ancestor:
            above = item[ancestor]
            totals[above] = total_of(above, 0) + weight
            ancestor = parent[ancestor]
        node = next_same_item[node]
    return totals


def _pattern_base(tree: FpTree, entry: HeaderEntry) -> list[WeightedRow]:
    item, count, parent, next_same_item = (
        tree.item, tree.count, tree.parent, tree.next_same_item)
    rows: list[WeightedRow] = []
    node = entry.head
    while node:
        path = []
        ancestor = parent[node]
        while ancestor:
            path.append(item[ancestor])
            ancestor = parent[ancestor]
        if path:
            rows.append((path, count[node]))
        node = next_same_item[node]
    return rows


def _mine(tree: FpTree, suffix: ItemSet, threshold: int,
          max_size: int | None, out: list[FrequentItemset]) -> None:
    path = tree.single_path()
    if path is not None:
        item, count = tree.item, tree.count
        budget = None if max_size is None else max_size - len(suffix)
        limit = len(path) if budget is None else min(len(path), budget)
        for r in range(1, limit + 1):
            for combo in combinations(path, r):
                items = tuple(sorted(suffix + tuple(item[n] for n in combo)))
                out.append(FrequentItemset(items, min(count[n] for n in combo)))
        return
    # Least-frequent items first: their conditional trees are smallest.
    for entry in reversed(tree.header):
        extended = tuple(sorted(suffix + (entry.item,)))
        out.append(FrequentItemset(extended, entry.total))
        if max_size is not None and len(extended) >= max_size:
            continue
        # Count the pattern base before building it: most bases hold no
        # item that reaches the threshold, and then nothing else is done.
        header = _header(_base_totals(tree, entry).items(), threshold)
        if header:
            conditional = _build_tree(_pattern_base(tree, entry), header,
                                      threshold, tree.n_transactions)
            _mine(conditional, extended, threshold, max_size, out)


def fp_growth_mine(tree: FpTree, threshold: int,
                   params: MiningParams) -> list[FrequentItemset]:
    """Mine the tree; result contract identical to ``apriori_mine``.

    ``threshold`` must equal the threshold the tree was built with.
    """
    if threshold != tree.threshold:
        raise ContractViolationError(
            f"tree was built with threshold {tree.threshold}, "
            f"cannot mine with {threshold}")
    result: list[FrequentItemset] = []
    _mine(tree, (), threshold, params.max_itemset_size, result)
    result.sort(key=lambda f: (len(f.itemset), f.itemset))
    return result


def mine(db: TransactionDb, params: MiningParams) -> list[FrequentItemset]:
    """Build-and-mine convenience wrapper over the two-phase operations."""
    if db.n == 0:
        raise EmptyInputError("cannot mine an empty transaction database")
    threshold = params.absolute_threshold(db.n)
    tree = build_fp_tree(db, threshold)
    return fp_growth_mine(tree, threshold, params)
