import gc
import random
from collections import Counter
from fractions import Fraction
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketminer.apriori import apriori_mine
from basketminer.core import (
    EmptyInputError,
    ItemDictionary,
    MiningParams,
    TransactionDb,
)
from basketminer.fpgrowth import (
    FpTree,
    WeightedRow,
    _build_tree,
    _header,
    build_fp_tree,
    fp_growth_mine,
    mine,
)
from helpers import as_pairs, db_from_ids, random_db, support_count


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


# Weighted rows as conditional pattern bases hold them: item ids in any
# order, each row with a positive weight.
weighted_rows = st.lists(st.tuples(
    st.lists(st.integers(0, 7), unique=True), st.integers(1, 4)), max_size=30)


class TestBuildTree:
    def test_grocery_header_order(self, grocery_db):
        # Pulses(6), Wheat(5), Sugar(4), Rice(3): descending totals.
        tree = build_fp_tree(grocery_db, 3)
        assert [(e.item, e.total) for e in tree.header] == [
            (2, 6), (1, 5), (0, 4), (3, 3)]

    def test_header_ties_break_by_ascending_id(self):
        db = db_from_ids([(0, 1), (0, 1), (1, 2), (0, 2)], 3)
        tree = build_fp_tree(db, 1)
        totals = [(e.item, e.total) for e in tree.header]
        assert totals == [(0, 3), (1, 3), (2, 2)]

    def test_identical_transactions_share_one_path(self):
        db = db_from_ids([(0, 1)] * 5, 2)
        tree = build_fp_tree(db, 1)
        path = tree.single_path()
        assert path is not None
        assert [(tree.item[node], tree.count[node]) for node in path] == [
            (0, 5), (1, 5)]
        assert tree.node_count == 3  # root plus two path nodes

    def test_threshold_above_everything_gives_bare_tree(self, grocery_db):
        tree = build_fp_tree(grocery_db, 7)
        assert tree.header == []
        assert tree.node_count == 1
        assert tree.single_path() == []

    def test_two_branches_are_not_a_single_path(self):
        db = db_from_ids([(0,), (1,)], 2)
        tree = build_fp_tree(db, 1)
        assert tree.node_count == 3
        assert tree.single_path() is None

    def test_threshold_below_one_rejected(self, grocery_db):
        with pytest.raises(ValueError):
            build_fp_tree(grocery_db, 0)

    def test_chain_counts_conserve_item_totals(self):
        rng = random.Random(5)
        for _ in range(20):
            db = random_db(rng, max_items=9, max_transactions=32)
            threshold = rng.randint(1, max(1, db.n // 2))
            tree = build_fp_tree(db, threshold)
            for entry in tree.header:
                chained = 0
                node = entry.head
                while node:
                    assert tree.item[node] == entry.item
                    chained += tree.count[node]
                    node = tree.next_same_item[node]
                assert chained == entry.total
                assert entry.total == support_count(db, (entry.item,))

    def test_node_count_bounded_by_frequent_item_occurrences(self):
        rng = random.Random(6)
        for _ in range(20):
            db = random_db(rng, max_items=9, max_transactions=32)
            threshold = rng.randint(1, db.n)
            tree = build_fp_tree(db, threshold)
            frequent = {entry.item for entry in tree.header}
            bound = 1 + sum(len(frequent.intersection(t)) for t in db.transactions)
            assert tree.node_count <= bound

    def test_child_count_never_exceeds_parent(self, grocery_db):
        tree = build_fp_tree(grocery_db, 1)
        assert tree.node_count > 1
        for node in range(1, tree.node_count):
            parent = tree.parent[node]
            assert parent < node
            if parent:
                assert tree.count[node] <= tree.count[parent]

    def test_build_and_mine_leave_no_cyclic_garbage(self):
        rng = random.Random(10)
        db = db_from_ids([tuple(sorted(rng.sample(range(12), rng.randint(1, 6))))
                          for _ in range(200)], 12)
        params = MiningParams(min_support=Fraction(1, 20), min_confidence=1)
        gc.collect()
        gc.disable()
        try:
            tree = build_fp_tree(db, params.absolute_threshold(db.n))
            assert tree.node_count > 1
            del tree
            assert mine(db, params)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSortedInsertion:
    @settings(max_examples=150, deadline=None)
    @given(rows=weighted_rows, threshold=st.integers(1, 6))
    def test_builds_the_dict_insertion_tree(self, rows, threshold):
        totals = {}
        for items, weight in rows:
            for item in items:
                totals[item] = totals.get(item, 0) + weight
        tree = _build_tree(rows, _header(totals.items(), threshold), threshold)
        assert tree_paths(tree) == tree_paths(dict_insertion_tree(rows, threshold))
        for node in range(1, tree.node_count):
            assert tree.parent[node] < node

    def test_top_tree_is_the_dict_insertion_tree(self):
        rng = random.Random(12)
        for _ in range(30):
            db = random_db(rng, max_items=10, max_transactions=40)
            threshold = rng.randint(1, db.n)
            tree = build_fp_tree(db, threshold)
            reference = dict_insertion_tree(
                ((t, 1) for t in db.transactions), threshold)
            assert tree_paths(tree) == tree_paths(reference)
            assert tree.node_count == reference.node_count
            for node in range(1, tree.node_count):
                assert tree.parent[node] < node

    @settings(max_examples=60, deadline=None)
    @given(depth=st.integers(1, 6), data=st.data())
    def test_single_path_found_for_any_insertion_order(self, depth, data):
        # Prefixes of one path, weighted, in any order: every total differs
        # from the next, so the header order is the path's own order.
        prefixes = [(tuple(range(size)), 1) for size in range(1, depth + 1)]
        rows = data.draw(st.permutations(prefixes))
        tree = _build_tree(rows, _header(
            [(item, depth - item) for item in range(depth)], 1), 1)
        assert tree.single_path() == list(range(1, depth + 1))
        assert [tree.count[node] for node in tree.single_path()] == \
            [depth - item for item in range(depth)]

    @settings(max_examples=60, deadline=None)
    @given(rows=weighted_rows)
    def test_single_path_agrees_with_the_reference(self, rows):
        tree = dict_insertion_tree(rows, 1)
        branching = len({tree.parent[node]
                         for node in range(1, tree.node_count)}) \
            < tree.node_count - 1
        rebuilt = _build_tree(rows, tree.header, 1)
        assert (rebuilt.single_path() is None) == branching


class TestMine:
    def test_grocery_matches_apriori(self, grocery_db):
        params = MiningParams(min_support=Fraction(3, 7), min_confidence=1)
        assert as_pairs(mine(grocery_db, params)) == \
            as_pairs(apriori_mine(grocery_db, params))

    def test_bare_tree_mines_nothing(self, grocery_db):
        tree = build_fp_tree(grocery_db, 7)
        assert fp_growth_mine(tree) == []

    def test_single_path_enumerates_all_subsets(self):
        db = db_from_ids([(0, 1, 2)] * 4, 3)
        params = MiningParams(min_support=1, min_confidence=1)
        result = mine(db, params)
        assert {f.itemset: f.count for f in result} == {
            (0,): 4, (1,): 4, (2,): 4,
            (0, 1): 4, (0, 2): 4, (1, 2): 4,
            (0, 1, 2): 4}

    def test_empty_db_rejected(self):
        empty = TransactionDb((), ItemDictionary())
        with pytest.raises(EmptyInputError):
            mine(empty, MiningParams(min_support=1, min_confidence=1))

    def test_all_counts_meet_threshold(self):
        rng = random.Random(8)
        for _ in range(20):
            db = random_db(rng, max_items=9, max_transactions=32)
            threshold = rng.randint(1, db.n)
            params = MiningParams(Fraction(threshold, db.n), 1)
            for frequent in mine(db, params):
                assert frequent.count >= threshold
                assert frequent.count == support_count(db, frequent.itemset)

    def test_matches_apriori_on_random_dbs(self):
        rng = random.Random(9)
        for _ in range(30):
            db = random_db(rng, max_items=10, max_transactions=40)
            threshold = rng.randint(1, db.n)
            params = MiningParams(Fraction(threshold, db.n), 1)
            assert as_pairs(mine(db, params)) == \
                as_pairs(apriori_mine(db, params))
