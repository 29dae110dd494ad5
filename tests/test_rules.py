import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketminer import cli
from basketminer.core import (
    DomainError,
    FrequentItemset,
    InternalConsistencyError,
    MiningParams,
)
from basketminer.oracle import brute_force_mine
from basketminer.rules import generate_rules
from helpers import db_from_ids, random_db


class TestPercentRendering:
    """A rule's exact score as the table prints it, through
    ``cli.whole_percent``."""

    @pytest.mark.parametrize("value, expected", [
        (Fraction(4, 7), 57),     # 57.14... rounds down
        (Fraction(3, 7), 43),     # 42.86... rounds up
        (Fraction(1, 2), 50),
        (Fraction(1, 200), 1),    # exactly 0.5% rounds away from zero
        (Fraction(3, 200), 2),    # exactly 1.5% also rounds up
        (Fraction(199, 200), 100),  # exactly 99.5% rounds up to 100
        (Fraction(0), 0),
        (Fraction(1), 100),
    ])
    def test_round_half_away_from_zero(self, value, expected):
        assert cli.whole_percent(value.numerator, value.denominator) == expected


class TestGenerateRules:
    def _grocery_frequents(self, grocery_db):
        return brute_force_mine(
            grocery_db, MiningParams(Fraction(3, 7), 1))

    def test_grocery_at_point_eight(self, grocery_db):
        params = MiningParams(Fraction(3, 7), Fraction(4, 5))
        ruleset = generate_rules(self._grocery_frequents(grocery_db),
                                 grocery_db, params)
        # Rice(3)->Pulses(2) at confidence 1 sorts before Wheat(1)->Pulses.
        assert [(r.antecedent, r.consequent, r.union_count, r.antecedent_count)
                for r in ruleset] == [
            ((3,), (2,), 3, 3),
            ((1,), (2,), 4, 5)]
        rice, wheat = ruleset.rules
        assert (rice.support, rice.confidence) == (Fraction(3, 7), Fraction(1))
        assert (wheat.support, wheat.confidence) == (Fraction(4, 7), Fraction(4, 5))

    def test_float_confidence_keeps_exact_boundary_rule(self, grocery_db):
        # Wheat -> Pulses has confidence exactly 4/5; the binary value of
        # 0.8 lies above it.
        params = MiningParams(min_support=Fraction(3, 7), min_confidence=0.8)
        assert params.min_confidence == Fraction(4, 5)
        rules = generate_rules(self._grocery_frequents(grocery_db),
                               grocery_db, params)
        assert ((1,), (2,), 4, 5) in {
            (r.antecedent, r.consequent, r.union_count, r.antecedent_count)
            for r in rules}

    def test_grocery_at_full_confidence(self, grocery_db):
        params = MiningParams(Fraction(3, 7), 1)
        ruleset = generate_rules(self._grocery_frequents(grocery_db),
                                 grocery_db, params)
        assert [(r.antecedent, r.consequent) for r in ruleset] == [((3,), (2,))]

    def test_singletons_alone_make_no_rules(self, grocery_db):
        frequents = [FrequentItemset((i,), 3) for i in range(3)]
        params = MiningParams(Fraction(1, 7), Fraction(1, 2))
        assert len(generate_rules(frequents, grocery_db, params)) == 0

    def test_max_antecedent_caps_split_size(self):
        db = db_from_ids([(0, 1, 2)] * 4, 3)
        params = MiningParams(1, Fraction(1, 2))
        frequents = brute_force_mine(db, params)
        unrestricted = generate_rules(frequents, db, params)
        assert {len(r.antecedent) for r in unrestricted} == {1, 2}
        # Three pairs contribute 2 splits each, the triple 3, all capped at
        # antecedent size 1; uncapped, the triple adds its 3 size-2 splits.
        assert len(unrestricted) == 12
        capped = generate_rules(frequents, db, params, max_antecedent=1)
        assert {len(r.antecedent) for r in capped} == {1}
        assert len(capped) == 9

    @pytest.mark.parametrize("cap", [0, -1])
    def test_max_antecedent_below_one_is_refused(self, grocery_db, cap):
        params = MiningParams(Fraction(3, 7), Fraction(1, 2))
        frequents = self._grocery_frequents(grocery_db)
        assert len(generate_rules(frequents, grocery_db, params,
                                  max_antecedent=1)) == 6
        with pytest.raises(ValueError,
                           match=f"max_antecedent must be >= 1, got {cap}"):
            generate_rules(frequents, grocery_db, params, max_antecedent=cap)

    def test_missing_subset_count_is_inconsistency(self, grocery_db):
        broken = [FrequentItemset((1, 2), 4)]
        params = MiningParams(Fraction(3, 7), Fraction(1, 2))
        with pytest.raises(InternalConsistencyError):
            generate_rules(broken, grocery_db, params)

    def test_missing_first_item_of_pair_is_inconsistency(self, grocery_db):
        # The rule (2,) -> (1,) passes confidence before (1,) is looked up.
        broken = [FrequentItemset((2,), 6), FrequentItemset((1, 2), 4)]
        params = MiningParams(Fraction(3, 7), Fraction(1, 2))
        with pytest.raises(InternalConsistencyError):
            generate_rules(broken, grocery_db, params)

    def test_subset_count_below_itemset_is_inconsistency(self, grocery_db):
        broken = [FrequentItemset((1,), 3), FrequentItemset((2,), 5),
                  FrequentItemset((1, 2), 4)]
        params = MiningParams(Fraction(3, 7), Fraction(1, 2))
        with pytest.raises(InternalConsistencyError):
            generate_rules(broken, grocery_db, params)

    def test_filters_frequents_mined_at_lower_support(self, grocery_db):
        frequents = brute_force_mine(grocery_db, MiningParams(Fraction(1, 7), 1))
        params = MiningParams(Fraction(3, 7), Fraction(1, 100))
        ruleset = generate_rules(frequents, grocery_db, params)
        unions = {tuple(sorted(r.antecedent + r.consequent)) for r in ruleset}
        assert unions == {f.itemset for f in frequents
                          if len(f.itemset) > 1 and f.count >= 3}
        # Wheat-Pulses has count 4, Sugar-Pulses and Pulses-Rice exactly 3.
        assert unions == {(1, 2), (0, 2), (2, 3)}

    def test_subset_count_above_n_is_inconsistency(self, grocery_db):
        broken = [FrequentItemset((1,), 8), FrequentItemset((2,), 6),
                  FrequentItemset((1, 2), 4)]
        params = MiningParams(Fraction(3, 7), Fraction(1, 2))
        with pytest.raises(InternalConsistencyError):
            generate_rules(broken, grocery_db, params)

    def test_empty_database_is_domain_error(self):
        empty = db_from_ids([], 2)
        frequents = [FrequentItemset((0,), 1), FrequentItemset((1,), 1),
                     FrequentItemset((0, 1), 1)]
        params = MiningParams(Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(DomainError, match="empty transaction database"):
            generate_rules(frequents, empty, params)

    def test_order_is_exact_at_huge_n(self):
        n = 10**17
        db = SimpleNamespace(n=n)
        frequents = [FrequentItemset((0,), n - 1), FrequentItemset((1,), n - 2),
                     FrequentItemset((0, 1), n - 3)]
        params = MiningParams(Fraction(1, 2), Fraction(1, 2))
        ruleset = generate_rules(frequents, db, params)
        # (n-3)/(n-2) > (n-3)/(n-1), but both round to the float 1.0.
        assert [(r.antecedent, r.consequent) for r in ruleset] == [
            ((1,), (0,)), ((0,), (1,))]

    def test_rows_are_the_documented_int_keys(self):
        # N = 3 and R = 3: confidence field 9 - 1·9//2 = 5, support field
        # N - u = 2 in 2 bits, then the two ranks in 2 bits each.
        db = db_from_ids([(0, 1), (0,), (1,)], 2)
        params = MiningParams(Fraction(1, 3), Fraction(1, 2))
        ruleset = generate_rules(brute_force_mine(db, params), db, params)
        assert ruleset.itemsets == ((0,), (0, 1), (1,))
        assert ruleset.counts == (2, 1, 2)
        assert ruleset.rows == ((5 << 6) + (2 << 4) + (0 << 2) + 2,
                                (5 << 6) + (2 << 4) + (2 << 2) + 0)
        assert list(ruleset.decoded()) == [(0, 2, 1, 2), (2, 0, 1, 2)]
        assert [(r.antecedent, r.consequent) for r in ruleset] == [
            ((0,), (1,)), ((1,), (0,))]

    def test_no_duplicate_rule_pairs(self):
        rng = random.Random(21)
        for _ in range(15):
            db = random_db(rng, max_items=8, max_transactions=24)
            params = MiningParams(Fraction(1, db.n), Fraction(1, 4))
            ruleset = generate_rules(brute_force_mine(db, params), db, params)
            pairs = [(r.antecedent, r.consequent) for r in ruleset]
            assert len(pairs) == len(set(pairs))

    def test_confidence_at_least_support(self):
        rng = random.Random(22)
        for _ in range(15):
            db = random_db(rng, max_items=8, max_transactions=24)
            params = MiningParams(Fraction(1, db.n), Fraction(1, 4))
            for rule in generate_rules(brute_force_mine(db, params), db, params):
                assert rule.confidence >= rule.support >= params.min_support
                assert rule.confidence >= params.min_confidence

    def test_confidence_antitonicity(self):
        rng = random.Random(23)
        for _ in range(15):
            db = random_db(rng, max_items=8, max_transactions=24)
            frequents = brute_force_mine(db, MiningParams(Fraction(2, db.n), 1))
            previous = None
            for conf in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1):
                params = MiningParams(Fraction(2, db.n), conf)
                current = {(r.antecedent, r.consequent)
                           for r in generate_rules(frequents, db, params)}
                if previous is not None:
                    assert previous >= current
                previous = current

    def test_complete_against_exhaustive_split_enumeration(self):
        rng = random.Random(24)
        for _ in range(15):
            db = random_db(rng, max_items=7, max_transactions=20)
            params = MiningParams(Fraction(2, db.n), Fraction(1, 2))
            frequents = brute_force_mine(db, params)
            counts = {f.itemset: f.count for f in frequents}
            expected = set()
            for z, union_count in counts.items():
                if len(z) < 2:
                    continue
                for size in range(1, len(z)):
                    for x in combinations(z, size):
                        confidence = Fraction(union_count, counts[x])
                        if confidence >= params.min_confidence:
                            y = tuple(i for i in z if i not in x)
                            expected.add((x, y, union_count, counts[x]))
            ruleset = generate_rules(frequents, db, params)
            actual = {(r.antecedent, r.consequent, r.union_count,
                       r.antecedent_count) for r in ruleset}
            assert actual == expected

    def test_frequents_in_any_order_give_the_same_rules(self):
        # Each antecedent's rank is read from the table row of a smaller
        # itemset, so itemsets must be visited by size whatever their order.
        rng = random.Random(26)
        emitted = 0
        for _ in range(10):
            db = random_db(rng, max_items=7, max_transactions=20)
            params = MiningParams(Fraction(1, db.n), Fraction(1, 4))
            frequents = brute_force_mine(db, params)
            expected = generate_rules(frequents, db, params)
            shuffled = list(frequents)
            rng.shuffle(shuffled)
            assert generate_rules(shuffled, db, params) == expected
            assert generate_rules(shuffled[::-1], db, params) == expected
            emitted += len(expected)
        assert emitted > 0

    def test_canonical_ordering(self):
        rng = random.Random(25)
        for _ in range(10):
            db = random_db(rng, max_items=7, max_transactions=20)
            params = MiningParams(Fraction(1, db.n), Fraction(1, 4))
            ruleset = generate_rules(brute_force_mine(db, params), db, params)
            keys = [(-r.confidence, -r.support, r.antecedent, r.consequent)
                    for r in ruleset]
            assert keys == sorted(keys)


@st.composite
def rule_inputs(draw):
    n_items = draw(st.integers(2, 7))
    baskets = draw(st.lists(
        st.lists(st.integers(0, n_items - 1), min_size=1, max_size=n_items),
        min_size=1, max_size=24))
    db = db_from_ids(baskets, n_items)
    threshold = draw(st.integers(1, db.n))
    confidence = draw(st.fractions(Fraction(1, 20), 1))
    return db, MiningParams(Fraction(threshold, db.n), confidence)


@settings(max_examples=150, deadline=None)
@given(rule_inputs())
def test_matches_exhaustive_splits_under_every_antecedent_cap(case):
    db, params = case
    frequents = brute_force_mine(db, params)
    counts = {f.itemset: f.count for f in frequents}
    widest = max((len(z) for z in counts), default=1)
    for cap in [None, *range(1, widest)]:
        expected = []
        for z, union_count in counts.items():
            for size in range(1, len(z)):
                if cap is not None and size > cap:
                    continue
                for x in combinations(z, size):
                    confidence = Fraction(union_count, counts[x])
                    if confidence >= params.min_confidence:
                        y = tuple(i for i in z if i not in x)
                        expected.append((-confidence,
                                         -Fraction(union_count, db.n), x, y))
        expected.sort()
        ruleset = generate_rules(frequents, db, params, max_antecedent=cap)
        assert [(-r.confidence, -r.support, r.antecedent, r.consequent)
                for r in ruleset] == expected
