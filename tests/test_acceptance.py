"""Acceptance suite: one test per criterion, asserting the frozen
expectations exactly and enforcing the stated runtime budgets."""

import gc
import random
from fractions import Fraction
from itertools import combinations
from time import perf_counter

from hypothesis import given, settings
from hypothesis import strategies as st

from basketminer import cli
from basketminer.apriori import apriori_mine
from basketminer.core import MiningParams, ingest_basket, support_count, to_basket_text
from basketminer.fpgrowth import build_fp_tree, fp_growth_mine
from basketminer.fpgrowth import mine as fpgrowth_mine
from basketminer.oracle import GeneratorConfig, brute_force_mine, generate_db
from basketminer.rules import generate_rules
from helpers import as_pairs, db_from_ids, random_db

GOLDEN_TABLE = (
    "People who bought this item | Also bought the following items | Support | Confidence\n"
    "----------------------------+---------------------------------+---------+-----------\n"
    "Rice                        | Pulses                          | 43%     | 100%\n"
    "Wheat                       | Pulses                          | 57%     | 80%\n"
)


def test_criterion_1_grocery_table_reproduction(capsys, basket_path):
    started = perf_counter()
    code = cli.main(["mine", "--input", str(basket_path),
                     "--min-support", "0.42", "--min-confidence", "0.8",
                     "--max-antecedent", "1"])
    out = capsys.readouterr().out
    elapsed = perf_counter() - started
    assert code == 0
    assert out == GOLDEN_TABLE

    with open(basket_path, encoding="utf-8") as fh:
        db = ingest_basket(fh)
    params = MiningParams(Fraction(3, 7), Fraction(4, 5))
    ruleset = generate_rules(fpgrowth_mine(db, params), db, params,
                             max_antecedent=1)
    by_label = {
        (db.dictionary.labels(r.antecedent), db.dictionary.labels(r.consequent)):
        (r.support, r.confidence) for r in ruleset}
    assert by_label == {
        (("Wheat",), ("Pulses",)): (Fraction(4, 7), Fraction(4, 5)),
        (("Rice",), ("Pulses",)): (Fraction(3, 7), Fraction(3, 3))}
    assert elapsed < 1.0
    print(f"criterion 1 PASS: grocery table reproduced exactly in {elapsed:.3f}s")


def test_criterion_2_frequent_itemset_ground_truth(grocery_db):
    expected = {
        ("Sugar",): 4, ("Wheat",): 5, ("Pulses",): 6, ("Rice",): 3,
        ("Sugar", "Pulses"): 3, ("Wheat", "Pulses"): 4, ("Pulses", "Rice"): 3}
    params = MiningParams(Fraction(3, 7), 1)
    labels = grocery_db.dictionary.labels
    for engine in (apriori_mine, fpgrowth_mine, brute_force_mine):
        mined = {labels(f.itemset): f.count for f in engine(grocery_db, params)}
        assert mined == expected, engine.__name__
    print("criterion 2 PASS: all three engines produce the 7 ground-truth itemsets")


def test_criterion_3_cross_engine_equivalence():
    started = perf_counter()
    rng = random.Random(20260814)
    comparisons = 0
    for index in range(500):
        db = random_db(rng)
        n = db.n
        min_confidence = rng.choice(
            (Fraction(1, 2), Fraction(3, 4), Fraction(1)))
        # Absolute thresholds 1 and N every time; the middle point cycles
        # with the db index so every value in 1..N occurs across the corpus.
        for threshold in sorted({1, 1 + index % n, n}):
            params = MiningParams(Fraction(threshold, n), min_confidence)
            from_apriori = apriori_mine(db, params)
            from_fpgrowth = fpgrowth_mine(db, params)
            from_oracle = brute_force_mine(db, params)
            assert as_pairs(from_apriori) == as_pairs(from_oracle)
            assert as_pairs(from_fpgrowth) == as_pairs(from_oracle)
            rulesets = [generate_rules(frequents, db, params) for frequents
                        in (from_apriori, from_fpgrowth, from_oracle)]
            assert rulesets[0] == rulesets[1] == rulesets[2]
            comparisons += 1
    elapsed = perf_counter() - started
    assert comparisons >= 500
    assert elapsed < 60.0
    print(f"criterion 3 PASS: {comparisons} threshold points over 500 dbs, "
          f"three engines identical, in {elapsed:.1f}s")


@st.composite
def small_dbs(draw):
    n_items = draw(st.integers(2, 8))
    baskets = draw(st.lists(
        st.frozensets(st.integers(0, n_items - 1), min_size=1),
        min_size=1, max_size=16))
    return db_from_ids(baskets, n_items)


def test_criterion_4_invariant_suite():
    checks = settings(max_examples=40, deadline=None)

    @checks
    @given(db=small_dbs(), data=st.data())
    def support_is_antimonotone(db, data):
        y = data.draw(st.frozensets(
            st.integers(0, len(db.dictionary) - 1), min_size=1))
        x = data.draw(st.frozensets(st.sampled_from(sorted(y))))
        assert support_count(db, x) >= support_count(db, y)

    @checks
    @given(db=small_dbs(), data=st.data())
    def results_are_downward_closed(db, data):
        threshold = data.draw(st.integers(1, db.n))
        reported = {f.itemset for f in apriori_mine(
            db, MiningParams(Fraction(threshold, db.n), 1))}
        for s in reported:
            for size in range(1, len(s)):
                for sub in combinations(s, size):
                    assert sub in reported

    @checks
    @given(db=small_dbs())
    def confidence_dominates_support(db):
        params = MiningParams(Fraction(1, db.n), Fraction(1, 4))
        for rule in generate_rules(apriori_mine(db, params), db, params):
            assert rule.confidence >= rule.support

    @checks
    @given(db=small_dbs(), data=st.data())
    def thresholds_are_antitone(db, data):
        low = data.draw(st.integers(1, db.n))
        high = data.draw(st.integers(low, db.n))
        loose = MiningParams(Fraction(low, db.n), Fraction(1, 2))
        tight = MiningParams(Fraction(high, db.n), Fraction(3, 4))
        loose_itemsets = {f.itemset for f in apriori_mine(db, loose)}
        tight_itemsets = {f.itemset for f in apriori_mine(db, tight)}
        assert tight_itemsets <= loose_itemsets
        loose_rules = {(r.antecedent, r.consequent) for r in generate_rules(
            apriori_mine(db, loose), db, loose)}
        tight_rules = {(r.antecedent, r.consequent) for r in generate_rules(
            apriori_mine(db, tight), db, tight)}
        assert tight_rules <= loose_rules

    label_text = st.text(alphabet="abcdefgh XYZ_-", min_size=1).map(
        str.strip).filter(bool)

    @checks
    @given(baskets=st.lists(st.lists(label_text, min_size=1, max_size=5),
                            min_size=1, max_size=12))
    def ingestion_round_trips(baskets):
        db = ingest_basket(",".join(basket) for basket in baskets)
        again = ingest_basket(to_basket_text(db).splitlines())
        assert again.transactions == db.transactions
        assert again.dictionary == db.dictionary

    @checks
    @given(db=small_dbs(), data=st.data())
    def repeated_runs_are_deterministic(db, data):
        threshold = data.draw(st.integers(1, db.n))
        params = MiningParams(Fraction(threshold, db.n), Fraction(1, 2))
        assert apriori_mine(db, params) == apriori_mine(db, params)
        assert fpgrowth_mine(db, params) == fpgrowth_mine(db, params)
        first = generate_rules(apriori_mine(db, params), db, params)
        second = generate_rules(apriori_mine(db, params), db, params)
        assert first == second

    support_is_antimonotone()
    results_are_downward_closed()
    confidence_dominates_support()
    thresholds_are_antitone()
    ingestion_round_trips()
    repeated_runs_are_deterministic()
    print("criterion 4 PASS: six spec invariants hold as property tests")


def test_criterion_5_scale_smoke(capsys):
    config = GeneratorConfig(
        num_transactions=100_000, universe_size=1000,
        basket_size_range=(8, 20),
        patterns=((("item_0001", "item_0002", "item_0003"), 0.3),), seed=42)
    db = generate_db(config)
    assert db.n == 100_000

    params = MiningParams(Fraction(1, 100), 1)
    threshold = params.absolute_threshold(db.n)
    started = perf_counter()
    tree = build_fp_tree(db, threshold)
    result = fp_growth_mine(tree, threshold, params)
    elapsed = perf_counter() - started
    assert elapsed < 30.0
    mined = {f.itemset for f in result}
    d = db.dictionary
    planted = tuple(sorted(
        (d.id_of("item_0001"), d.id_of("item_0002"), d.id_of("item_0003"))))
    assert planted in mined
    assert len(result) == 1004  # 1000 singles, the planted pairs, the triple

    code = cli.main(["bench", "--transactions", "2000", "--items", "100",
                     "--basket-max", "8", "--seed", "9",
                     "--thresholds", "0.02,0.05,0.1",
                     "--algorithms", "apriori,fpgrowth", "--output", "json"])
    bench_out = capsys.readouterr().out
    assert code == 0
    import json
    runs = json.loads(bench_out)["runs"]
    assert len(runs) == 6
    for run in runs:
        assert run["total_seconds"] == \
            run["build_seconds"] + run["mine_seconds"]
    print(f"criterion 5 PASS: 100k x 1000 FP-Growth mine in {elapsed:.1f}s; "
          f"bench agreement gate held at 3 thresholds")


def test_criterion_6_generator_calibration():
    config = GeneratorConfig(
        num_transactions=10_000, universe_size=30, basket_size_range=(1, 6),
        patterns=((("alpha", "beta"), 0.5),), seed=20260814)
    db = generate_db(config)
    d = db.dictionary
    count = support_count(db, (d.id_of("alpha"), d.id_of("beta")))
    measured = count / db.n
    assert 0.47 <= measured <= 0.53
    print(f"criterion 6 PASS: planted 0.5 pattern measured at {measured:.4f}")


def test_dense_data_engines_agree_within_time_bound():
    # Eight overlapping 5-item patterns over item_1..item_60, labels apart
    # from the item_0001-style padding universe; itemsets reach size 8.
    patterns = tuple(
        (tuple(f"item_{(3 * k + j) % 60 + 1}" for j in range(5)), 0.15)
        for k in range(8))
    db = generate_db(GeneratorConfig(
        num_transactions=10_000, universe_size=100, basket_size_range=(5, 15),
        patterns=patterns, seed=3))
    params = MiningParams(Fraction(3, 100), 1)
    results = {}
    for engine in (apriori_mine, fpgrowth_mine):
        # Free any cyclic garbage earlier tests left, so that collecting it
        # does not land inside the timed call and the bound times the
        # engine alone.
        gc.collect()
        started = perf_counter()
        results[engine] = engine(db, params)
        elapsed = perf_counter() - started
        assert elapsed < 5.0, f"{engine.__module__} took {elapsed:.1f}s"
    from_apriori, from_fpgrowth = results.values()
    assert from_apriori == from_fpgrowth
    assert len(from_apriori) == 4071
    assert max(len(f.itemset) for f in from_apriori) == 8
    print("dense gate PASS: Apriori and FP-Growth agree on 4071 itemsets")
