import hashlib
import random
from fractions import Fraction

import pytest

from basketminer.core import (
    ConfigError,
    EmptyInputError,
    GuardError,
    ItemDictionary,
    MiningParams,
    TransactionDb,
    support_count,
    to_basket_text,
)
from basketminer.oracle import (
    MAX_ORACLE_ITEMS,
    GeneratorConfig,
    brute_force_mine,
    generate_db,
    item_label,
)
from helpers import db_from_ids

# Pins the documented RNG contract: stdlib Mersenne Twister, consuming
# only Random.random(), whose stream is stable across Python versions.
GOLDEN_CONFIG = GeneratorConfig(
    num_transactions=50, universe_size=12, basket_size_range=(1, 6),
    patterns=((("alpha", "beta"), 0.5),), seed=0)
GOLDEN_SHA256 = "3d165add0aa97afc78c2133c63e0ed30cfc200498e0b9de3fc8cf6f5075b52ca"


class TestBruteForceMine:
    def test_grocery_at_three_sevenths(self, grocery_db):
        result = brute_force_mine(
            grocery_db, MiningParams(Fraction(3, 7), 1))
        assert {f.itemset: f.count for f in result} == {
            (0,): 4, (1,): 5, (2,): 6, (3,): 3,
            (0, 2): 3, (1, 2): 4, (2, 3): 3}

    def test_single_transaction_full_support(self):
        db = db_from_ids([(0,)], 1)
        result = brute_force_mine(db, MiningParams(1, 1))
        assert [(f.itemset, f.count) for f in result] == [((0,), 1)]

    def test_grocery_at_six_sevenths(self, grocery_db):
        result = brute_force_mine(
            grocery_db, MiningParams(Fraction(6, 7), 1))
        assert [(f.itemset, f.count) for f in result] == [((2,), 6)]

    def test_guard_refuses_large_universe(self):
        db = db_from_ids([tuple(range(MAX_ORACLE_ITEMS + 1))],
                         MAX_ORACLE_ITEMS + 1)
        with pytest.raises(GuardError):
            brute_force_mine(db, MiningParams(1, 1))

    def test_guard_boundary_is_inclusive(self):
        db = db_from_ids([(0, 1)], MAX_ORACLE_ITEMS)
        assert brute_force_mine(db, MiningParams(1, 1))

    def test_empty_db_rejected(self):
        empty = TransactionDb((), ItemDictionary())
        with pytest.raises(EmptyInputError):
            brute_force_mine(empty, MiningParams(1, 1))

    def test_output_ordering_and_recounts(self, grocery_db):
        result = brute_force_mine(grocery_db, MiningParams(Fraction(1, 7), 1))
        keys = [(len(f.itemset), f.itemset) for f in result]
        assert keys == sorted(keys)
        for frequent in result:
            assert frequent.count == support_count(grocery_db, frequent.itemset)


class TestGeneratorConfig:
    def test_valid_config_accepted(self):
        GeneratorConfig(num_transactions=10, universe_size=5,
                        basket_size_range=(1, 5))

    @pytest.mark.parametrize("kwargs", [
        {"num_transactions": 0, "universe_size": 5},
        {"num_transactions": 10, "universe_size": 0},
        {"num_transactions": 10, "universe_size": 5, "basket_size_range": (0, 3)},
        {"num_transactions": 10, "universe_size": 5, "basket_size_range": (4, 3)},
        {"num_transactions": 10, "universe_size": 5, "basket_size_range": (1, 6)},
        {"num_transactions": 10, "universe_size": 5,
         "patterns": ((("a", ""), 0.5),)},
        {"num_transactions": 10, "universe_size": 5,
         "patterns": (((), 0.5),)},
        {"num_transactions": 10, "universe_size": 5,
         "patterns": ((("a",), 1.5),)},
        {"num_transactions": 10, "universe_size": 5, "seed": -1},
        {"num_transactions": 10, "universe_size": 5, "seed": 2 ** 64},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GeneratorConfig(**kwargs)


class TestGenerateDb:
    def test_same_seed_is_bit_identical(self):
        a = generate_db(GOLDEN_CONFIG)
        b = generate_db(GOLDEN_CONFIG)
        assert a.transactions == b.transactions
        assert a.dictionary == b.dictionary
        assert to_basket_text(a) == to_basket_text(b)

    def test_different_seeds_differ(self):
        base = generate_db(GeneratorConfig(50, 12, seed=0, basket_size_range=(1, 6)))
        other = generate_db(GeneratorConfig(50, 12, seed=1, basket_size_range=(1, 6)))
        assert base.transactions != other.transactions

    def test_golden_corpus_checksum(self):
        text = to_basket_text(generate_db(GOLDEN_CONFIG))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == GOLDEN_SHA256

    def test_certain_pattern_appears_everywhere(self):
        config = GeneratorConfig(num_transactions=40, universe_size=10,
                                 basket_size_range=(1, 4),
                                 patterns=((("a", "b"), 1.0),), seed=3)
        db = generate_db(config)
        d = db.dictionary
        assert support_count(db, (d.id_of("a"), d.id_of("b"))) == 40

    def test_impossible_pattern_never_appears(self):
        config = GeneratorConfig(num_transactions=40, universe_size=10,
                                 basket_size_range=(1, 4),
                                 patterns=((("a", "b"), 0.0),), seed=3)
        db = generate_db(config)
        assert "a" not in db.dictionary
        assert "b" not in db.dictionary

    def test_basket_sizes_within_range_without_patterns(self):
        config = GeneratorConfig(num_transactions=200, universe_size=15,
                                 basket_size_range=(2, 5), seed=11)
        db = generate_db(config)
        assert db.n == 200
        assert all(2 <= len(t) <= 5 for t in db.transactions)

    def test_padding_labels_come_from_the_universe(self):
        config = GeneratorConfig(num_transactions=100, universe_size=7, seed=2,
                                 basket_size_range=(1, 7))
        db = generate_db(config)
        universe = {item_label(i) for i in range(7)}
        assert {item.label for item in db.dictionary} <= universe

    def test_pattern_labels_may_exceed_basket_size_range(self):
        config = GeneratorConfig(num_transactions=30, universe_size=5,
                                 basket_size_range=(1, 1),
                                 patterns=((("x", "y", "z"), 1.0),), seed=4)
        db = generate_db(config)
        assert all(len(t) >= 3 for t in db.transactions)

    def test_calibration_at_half_probability(self):
        config = GeneratorConfig(num_transactions=2000, universe_size=30,
                                 basket_size_range=(1, 6),
                                 patterns=((("alpha", "beta"), 0.5),),
                                 seed=20260814)
        db = generate_db(config)
        d = db.dictionary
        count = support_count(db, (d.id_of("alpha"), d.id_of("beta")))
        assert 0.44 <= count / db.n <= 0.56


class TestOracleAsOracle:
    def test_results_are_downward_closed(self):
        from itertools import combinations
        rng = random.Random(30)
        for _ in range(10):
            db = db_from_ids(
                [tuple(sorted(rng.sample(range(8), rng.randint(1, 5))))
                 for _ in range(rng.randint(5, 30))], 8)
            result = brute_force_mine(db, MiningParams(Fraction(2, db.n), 1))
            reported = {f.itemset for f in result}
            for s in reported:
                for size in range(1, len(s)):
                    for sub in combinations(s, size):
                        assert sub in reported

    def test_item_label_format(self):
        assert item_label(0) == "item_0001"
        assert item_label(999) == "item_1000"
