import gc
import random
from fractions import Fraction

import pytest

from basketminer.apriori import apriori_mine
from basketminer.core import (
    EmptyInputError,
    ItemDictionary,
    MiningParams,
    TransactionDb,
    support_count,
)
from basketminer.fpgrowth import build_fp_tree, fp_growth_mine, mine
from helpers import as_pairs, db_from_ids, random_db


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
