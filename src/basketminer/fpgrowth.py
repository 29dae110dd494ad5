"""Candidate-generation-free mining via a frequency-ordered prefix tree.

FP-Growth as in Han, Pei & Yin (SIGMOD 2000). Transactions are filtered
to frequent items, reordered by descending item frequency (ties broken by
ascending item id), and inserted into a prefix tree whose shared prefixes
merge with accumulated counts. A header table chains all nodes of each
item, enabling conditional pattern-base extraction. Mining recurses over
conditional trees; a single-path tree short-circuits into direct subset
enumeration.

One builder makes every tree, the top tree from the transactions (each of
weight 1) and each conditional tree from its pattern base. It turns each
row into its ascending tuple of header ranks and inserts the distinct
tuples in sorted order, so each path shares exactly its common prefix with
the one before it: no child lookup is needed, and counts are summed
bottom-up in one reverse pass. Each pattern base is walked once, its item
totals summed on the way, and a conditional tree is built only when some
item reaches the threshold.

The tree is stored as parallel int lists indexed by node: ``item``,
``count``, ``parent`` and ``next_same_item``. Node 0 is the root, and
nodes are numbered in creation order, so a parent always has a smaller
index than its children. Node 0 also ends every header chain, since the
root never joins one. Nothing in the tree refers back to anything and the
lists hold only ints, so the cyclic garbage collector has nothing to walk,
and a tree no longer used is freed at once by reference counting.

A tree is pinned to the threshold it was built with, and it is mined at
that threshold: ``fp_growth_mine`` takes the tree and nothing else.
Output is count-for-count identical to the Apriori engine.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .core import (
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

    def __init__(self, threshold: int):
        self.item = [ROOT_ITEM]
        self.count = [0]
        self.parent = [0]
        self.next_same_item = [0]
        self.header: list[HeaderEntry] = []
        self.threshold = threshold

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
                threshold: int) -> FpTree:
    """The tree of each row's header items in header order; ``header``
    holds the rows' item totals.

    Each row becomes its ascending tuple of header ranks, and equal tuples
    merge their weights. The tuples are inserted in sorted order, so each
    one shares exactly its common prefix with the one before it, and only
    the nodes of that path (``stack``) can be reused. A path's weight goes
    on its last node, and one reverse pass then adds each node's count to
    its parent's, so the root ends up with the total weight.
    """
    rank = {entry.item: position for position, entry in enumerate(header)}
    paths: dict[tuple[int, ...], int] = {}
    for items, weight in rows:
        path = tuple(sorted([rank[i] for i in items if i in rank]))
        paths[path] = paths.get(path, 0) + weight
    tree = FpTree(threshold)
    tree.header = header
    by_rank = [entry.item for entry in header]
    heads = [0] * len(header)
    item_of, count, parent, next_same_item = (
        tree.item, tree.count, tree.parent, tree.next_same_item)
    stack = [0]  # the root, then the previous path's nodes by depth
    previous: tuple[int, ...] = ()
    for path in sorted(paths):
        shared = 0
        for here, before in zip(path, previous):
            if here != before:
                break
            shared += 1
        del stack[shared + 1:]
        node = stack[-1]
        for position in path[shared:]:
            child = len(item_of)
            item_of.append(by_rank[position])
            count.append(0)
            parent.append(node)
            next_same_item.append(heads[position])
            heads[position] = child
            stack.append(child)
            node = child
        count[node] += paths[path]
        previous = path
    for node in range(len(parent) - 1, 0, -1):
        count[parent[node]] += count[node]
    for entry, head in zip(header, heads):
        entry.head = head
    return tree


def build_fp_tree(db: TransactionDb, threshold: int) -> FpTree:
    """The tree of ``db``'s transactions over the items reaching
    ``threshold``."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    header = _header(db.item_frequencies().items(), threshold)
    return _build_tree(((t, 1) for t in db.transactions), header, threshold)


def _pattern_base(tree: FpTree, entry: HeaderEntry
                  ) -> tuple[list[WeightedRow], dict[int, int]]:
    """The conditional pattern base of ``entry``, and each item's total in
    it: one row per node of the entry's chain with a non-root ancestor,
    holding those ancestors and weighted by the node's count."""
    item, count, parent, next_same_item = (
        tree.item, tree.count, tree.parent, tree.next_same_item)
    rows: list[WeightedRow] = []
    totals: dict[int, int] = {}
    total_of = totals.get
    node = entry.head
    while node:
        weight = count[node]
        path = []
        ancestor = parent[node]
        while ancestor:
            above = item[ancestor]
            path.append(above)
            totals[above] = total_of(above, 0) + weight
            ancestor = parent[ancestor]
        if path:
            rows.append((path, weight))
        node = next_same_item[node]
    return rows, totals


def _mine(tree: FpTree, suffix: ItemSet, out: list[FrequentItemset]) -> None:
    path = tree.single_path()
    if path is not None:
        item, count = tree.item, tree.count
        for r in range(1, len(path) + 1):
            for combo in combinations(path, r):
                items = tuple(sorted(suffix + tuple(item[n] for n in combo)))
                out.append(FrequentItemset(items, min(count[n] for n in combo)))
        return
    threshold = tree.threshold
    # Least-frequent items first: their conditional trees are smallest.
    for entry in reversed(tree.header):
        extended = tuple(sorted(suffix + (entry.item,)))
        out.append(FrequentItemset(extended, entry.total))
        rows, totals = _pattern_base(tree, entry)
        base_header = _header(totals.items(), threshold)
        if base_header:
            _mine(_build_tree(rows, base_header, threshold), extended, out)


def fp_growth_mine(tree: FpTree) -> list[FrequentItemset]:
    """Every itemset reaching the threshold the tree was built with;
    result contract identical to ``apriori_mine``."""
    result: list[FrequentItemset] = []
    _mine(tree, (), result)
    result.sort(key=lambda f: (len(f.itemset), f.itemset))
    return result


def mine(db: TransactionDb, params: MiningParams) -> list[FrequentItemset]:
    """Build-and-mine convenience wrapper over the two-phase operations."""
    if db.n == 0:
        raise EmptyInputError("cannot mine an empty transaction database")
    threshold = params.absolute_threshold(db.n)
    tree = build_fp_tree(db, threshold)
    return fp_growth_mine(tree)
