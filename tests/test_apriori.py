import gc
import random
from fractions import Fraction
from itertools import combinations, islice
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketminer import pairs
from basketminer.apriori import (
    apriori_mine,
    candidate_gen,
    frequent_singletons,
    mine_levels,
)
from basketminer.core import (
    EmptyInputError,
    FrequentItemset,
    ItemDictionary,
    MiningParams,
    TransactionDb,
    support_count,
)
from basketminer.oracle import brute_force_mine
from helpers import (
    PAIR_SHAPES,
    as_pairs,
    db_from_ids,
    labelled_counts,
    random_db,
    reference_itemsets,
    shaped_rows,
    with_rare_tail,
)

PARAMS_3_OF_7 = MiningParams(min_support=Fraction(3, 7), min_confidence=1)

# Grocery ids: Sugar=0, Wheat=1, Pulses=2, Rice=3.
GROCERY_FREQUENT_AT_3 = {
    (0,): 4, (1,): 5, (2,): 6, (3,): 3,
    (0, 2): 3, (1, 2): 4, (2, 3): 3,
}


class TestFrequentSingletons:
    def test_grocery_at_threshold_three(self, grocery_db):
        result = frequent_singletons(grocery_db, 3)
        assert [(f.itemset, f.count) for f in result] == [
            ((0,), 4), ((1,), 5), ((2,), 6), ((3,), 3)]

    def test_grocery_at_threshold_seven_is_empty(self, grocery_db):
        assert frequent_singletons(grocery_db, 7) == []

    def test_threshold_one_keeps_every_occurring_item(self, grocery_db):
        result = frequent_singletons(grocery_db, 1)
        assert [f.itemset for f in result] == [(0,), (1,), (2,), (3,)]

    def test_threshold_below_one_rejected(self, grocery_db):
        with pytest.raises(ValueError):
            frequent_singletons(grocery_db, 0)


class TestCandidateGen:
    def test_four_singletons_join_to_all_six_pairs(self):
        level = [FrequentItemset((i,), 3) for i in range(4)]
        assert candidate_gen(level).candidates == (
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_grocery_frequent_pairs_yield_no_triples(self):
        # {Sugar,Pulses}, {Wheat,Pulses}, {Pulses,Rice}: no two share a
        # first item, so the prefix join is empty.
        level = [FrequentItemset(pair, 3) for pair in ((0, 2), (1, 2), (2, 3))]
        assert candidate_gen(level).candidates == ()

    def test_pruning_drops_candidate_with_infrequent_subset(self):
        level = [FrequentItemset(pair, 3) for pair in ((0, 1), (0, 2))]
        # Join proposes (0,1,2) but (1,2) was not frequent.
        assert candidate_gen(level).candidates == ()

    def test_candidate_survives_when_all_subsets_frequent(self):
        level = [FrequentItemset(pair, 3) for pair in ((0, 1), (0, 2), (1, 2))]
        assert candidate_gen(level).candidates == ((0, 1, 2),)

    def test_empty_level_is_fixpoint(self):
        assert candidate_gen([]).candidates == ()

    def test_mixed_sizes_violate_contract(self):
        level = [FrequentItemset((0,), 3), FrequentItemset((1, 2), 3)]
        with pytest.raises(ValueError, match="uniform itemset sizes"):
            candidate_gen(level)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 4), data=st.data())
    def test_matches_join_with_every_subset_checked(self, k, data):
        # Either a few itemsets over 7 items, or up to 150 over 16 items,
        # which splits a sorted level into many runs that share a prefix.
        universe, most = data.draw(st.sampled_from([(7, 20), (16, 150)]))
        level = data.draw(st.sets(
            st.frozensets(st.integers(0, universe - 1), min_size=k,
                          max_size=k),
            max_size=most))
        prev_sets = {tuple(sorted(s)) for s in level}
        # Every k+1 set of items whose k-subsets are all frequent, found
        # without the prefix join.
        items = sorted({i for s in prev_sets for i in s})
        expected = tuple(c for c in combinations(items, k + 1)
                         if all(sub in prev_sets
                                for sub in combinations(c, k)))
        result = candidate_gen([FrequentItemset(s, 1) for s in prev_sets])
        assert result.candidates == expected

    def test_join_time_grows_with_runs_not_level(self):
        # Itemsets (a, b, b + 1) with distinct prefixes (a, b): nothing
        # joins, so the time should grow with the level, not its square.
        # A join that scans the rest of the sorted level for each itemset
        # reads a ratio of about 170 here; the per-prefix join 10-19. The
        # smaller level takes about 10 ms, well above scheduler noise, and
        # each level's best of 5 runs is kept.
        def level(size):
            itemsets = ((a, b, b + 1) for a in range(1000)
                        for b in range(a + 1, 1000))
            return [FrequentItemset(s, 1)
                    for s in islice(itemsets, size)]

        def best_of_5(prev_level):
            times = []
            for _ in range(5):
                gc.collect()
                started = perf_counter()
                result = candidate_gen(prev_level)
                times.append(perf_counter() - started)
            assert result.candidates == ()
            return min(times)

        ratio = best_of_5(level(60_000)) / best_of_5(level(6_000))
        assert ratio < 40, f"10x the level took {ratio:.0f}x the time"


class TestCountLevel:
    """Support counting of each candidate level, through ``mine_levels``."""

    @staticmethod
    def level(db, k, threshold):
        """The frequent k-itemsets that ``mine_levels`` counts."""
        result, _ = mine_levels(db, frequent_singletons(db, threshold),
                                threshold)
        return [f for f in result if len(f.itemset) == k]

    def test_counts_match_direct_support(self, grocery_db):
        result = self.level(grocery_db, 2, 1)
        assert result
        for frequent in result:
            assert frequent.count == support_count(grocery_db, frequent.itemset)

    def test_threshold_filters(self, grocery_db):
        result = self.level(grocery_db, 2, 4)
        assert [(f.itemset, f.count) for f in result] == [((1, 2), 4)]

    def test_no_candidates_short_circuits(self, grocery_db):
        assert mine_levels(grocery_db, [], 1) == ([], 0)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65])
    def test_counts_at_byte_and_word_boundaries(self, n, k):
        # Items 0-4 fill the transactions at random; the last transaction
        # (the highest bit) holds items 0-5, so item 5 occurs once and
        # item 6 never.
        rng = random.Random(n)
        transactions = [rng.sample(range(5), rng.randint(1, 4))
                        for _ in range(n - 1)]
        if n:
            transactions.append(range(6))
        db = db_from_ids(transactions, 7)
        candidates = tuple(combinations(range(7), k))
        result = self.level(db, k, 1)
        expected = [(c, support_count(db, c)) for c in candidates
                    if support_count(db, c) >= 1]
        assert [(f.itemset, f.count) for f in result] == expected


def planted(rows, itemsets, rate, seed):
    """``rows``, each holding each of ``itemsets`` too with probability
    ``rate``."""
    rng = random.Random(seed)
    return [tuple(sorted(set(row).union(
        *[itemset for itemset in itemsets if rng.random() < rate])))
        for row in rows]


class TestLevelTwoHandOff:
    """What ``mine_levels`` hands the pair kernel, and how often the
    transactions are read again for covers."""

    # Planted as in the benchmark: sparse's three items at 0.3, heavy, so
    # its frequent pairs are all between heavy items; quest's 4-item
    # patterns at 0.03 each, frequent but in blocks, up to level 4.
    PLANTED = {
        "dense": ((), 0),
        "sparse": (((0, 1, 2),), 0.3),
        "quest": (tuple(tuple(range(k, 428, 107)) for k in range(8)), 0.03),
    }

    @pytest.mark.parametrize("name", ["dense", "sparse", "quest"])
    def test_at_most_one_cover_pass(self, monkeypatch, name):
        (n, width, sizes), threshold = PAIR_SHAPES[name]
        itemsets, rate = self.PLANTED[name]
        db = db_from_ids(planted(shaped_rows(1, n, width, sizes), itemsets,
                                 rate, 2), width)
        passes = []

        def spy(*args, covers=pairs.covers):
            passes.append(args[2])
            return covers(*args)

        monkeypatch.setattr(pairs, "covers", spy)
        result, _ = mine_levels(db, frequent_singletons(db, threshold),
                                threshold)
        assert len(passes) <= (0 if name == "sparse" else 1)
        assert max(len(f.itemset) for f in result) == (
            {"dense": 1, "sparse": 3, "quest": 4}[name])

    @pytest.mark.parametrize("share, stored", [(0.13, True), (0.5, False)],
                             ids=["13%-rare", "50%-rare"])
    def test_rare_share_picks_the_rows(self, monkeypatch, share, stored):
        # Over a quarter of the items held infrequent, and the kernel gets
        # a copy of the transactions with the frequent items alone; at most
        # a quarter, and it gets them as stored. The ids are shuffled, so
        # the rare items sit between the frequent ones.
        rows = planted(shaped_rows(3, 2000, 40, (2, 6)), [(0, 1, 2, 3)],
                       0.05, 4)
        rows, width = with_rare_tail(rows, 40, share, 5)
        shuffled = list(range(width))
        random.Random(6).shuffle(shuffled)
        db = db_from_ids([[shuffled[i] for i in row] for row in rows], width)
        handed = []

        def spy(rows, counts, threshold, pair_counts=pairs.pair_counts):
            handed.append(rows)
            return pair_counts(rows, counts, threshold)

        monkeypatch.setattr(pairs, "pair_counts", spy)
        threshold = 20
        singletons = frequent_singletons(db, threshold)
        result, _ = mine_levels(db, singletons, threshold)
        assert labelled_counts(db, result) == reference_itemsets(
            db, Fraction(threshold, db.n))
        assert max(len(f.itemset) for f in result) == 4
        held = sum(map(len, db.transactions))
        frequent = sum(f.count for f in singletons)
        assert abs((held - frequent) / held - share) < 0.02
        if stored:
            assert handed == [db.transactions]
            assert handed[0] is db.transactions
        else:
            rank = {f.itemset[0]: r for r, f in enumerate(singletons)}
            assert handed == [[tuple(rank[i] for i in t if i in rank)
                               for t in db.transactions]]


class TestAprioriMine:
    def test_grocery_at_three_sevenths(self, grocery_db):
        result = apriori_mine(grocery_db, PARAMS_3_OF_7)
        assert {f.itemset: f.count for f in result} == GROCERY_FREQUENT_AT_3

    def test_output_sorted_by_size_then_ids(self, grocery_db):
        result = apriori_mine(grocery_db, PARAMS_3_OF_7)
        assert [f.itemset for f in result] == sorted(
            (f.itemset for f in result), key=lambda s: (len(s), s))

    def test_grocery_at_full_support_is_empty(self, grocery_db):
        params = MiningParams(min_support=1, min_confidence=1)
        assert apriori_mine(grocery_db, params) == []

    def test_grocery_at_four_sevenths(self, grocery_db):
        params = MiningParams(min_support=Fraction(4, 7), min_confidence=1)
        result = apriori_mine(grocery_db, params)
        assert {f.itemset: f.count for f in result} == {
            (0,): 4, (1,): 5, (2,): 6, (1, 2): 4}

    def test_empty_db_rejected(self):
        empty = TransactionDb((), ItemDictionary())
        with pytest.raises(EmptyInputError):
            apriori_mine(empty, PARAMS_3_OF_7)

    def test_downward_closure_of_results(self):
        rng = random.Random(7)
        from itertools import combinations
        for _ in range(20):
            db = random_db(rng, max_items=8, max_transactions=24)
            result = apriori_mine(
                db, MiningParams(Fraction(1, db.n), 1))
            reported = {f.itemset for f in result}
            for s in reported:
                for size in range(1, len(s)):
                    for sub in combinations(s, size):
                        assert sub in reported

    def test_threshold_antitonicity(self):
        rng = random.Random(11)
        for _ in range(15):
            db = random_db(rng, max_items=8, max_transactions=24)
            results = []
            for threshold in (1, max(1, db.n // 2), db.n):
                params = MiningParams(Fraction(threshold, db.n), 1)
                results.append({f.itemset for f in apriori_mine(db, params)})
            assert results[0] >= results[1] >= results[2]

    def test_matches_oracle_on_random_dbs(self):
        rng = random.Random(13)
        for _ in range(25):
            db = random_db(rng, max_items=9, max_transactions=32)
            threshold = rng.randint(1, db.n)
            params = MiningParams(Fraction(threshold, db.n), 1)
            assert as_pairs(apriori_mine(db, params)) == \
                as_pairs(brute_force_mine(db, params))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mine_levels_matches_oracle(self, data):
        n_items = data.draw(st.integers(1, 8))
        baskets = data.draw(st.lists(
            st.frozensets(st.integers(0, n_items - 1), min_size=1),
            min_size=1, max_size=70))
        db = db_from_ids(baskets, n_items)
        threshold = data.draw(st.integers(1, db.n))
        result, _ = mine_levels(db, frequent_singletons(db, threshold),
                                threshold)
        expected = brute_force_mine(db, MiningParams(Fraction(threshold, db.n), 1))
        assert [(f.itemset, f.count) for f in result] == \
            [(f.itemset, f.count) for f in expected]
