"""Acceptance suite: one test per criterion, asserting the frozen
expectations exactly and enforcing the stated runtime budgets."""

import gc
import io
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketminer import cli, pairs
from basketminer.apriori import apriori_mine
from basketminer.core import (
    MiningParams,
    ingest_basket,
    read_lines,
    to_basket_text,
)
from basketminer.fpgrowth import build_fp_tree, fp_growth_mine
from basketminer.fpgrowth import mine as fpgrowth_mine
from basketminer.oracle import GeneratorConfig, brute_force_mine, generate_db
from basketminer.rules import generate_rules
from helpers import (
    PAIR_KERNELS,
    as_pairs,
    basket_reference,
    db_from_ids,
    dense_db,
    forced_pair_counts,
    labelled_counts,
    random_db,
    reference_itemsets,
    support_count,
    tid_pairs_reference,
)

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
    ruleset = generate_rules(apriori_mine(db, params), db, params,
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


def cross_engine_sweep():
    """Apriori, FP-Growth and the oracle over 500 seeded random databases:
    identical itemsets and rules at thresholds 1, N and a middle point.
    Returns the number of threshold points compared."""
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
    return comparisons


def test_criterion_3_cross_engine_equivalence():
    started = perf_counter()
    comparisons = cross_engine_sweep()
    elapsed = perf_counter() - started
    assert comparisons >= 500
    assert elapsed < 60.0
    print(f"criterion 3 PASS: {comparisons} threshold points over 500 dbs, "
          f"three engines identical, in {elapsed:.1f}s")


@pytest.mark.parametrize("kernel", PAIR_KERNELS)
def test_cross_engine_equivalence_on_each_pair_path(monkeypatch, kernel):
    # On the sweep's small databases the cost rule picks covers whenever
    # there are two or more frequent items to pair; forcing one kernel runs
    # every database through it, the block filter without a hand-over.
    monkeypatch.setattr(pairs, "pair_counts", forced_pair_counts(kernel))
    assert cross_engine_sweep() >= 500


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


def assert_matches_reference(db, frequents, want):
    """``frequents`` holds exactly the itemsets and counts of ``want``, the
    reference miner's result, once each and in (size, ids) order."""
    assert len(frequents) == len(want)
    assert labelled_counts(db, frequents) == want
    assert frequents == sorted(frequents,
                               key=lambda f: (len(f.itemset), f.itemset))


def traced_peak(call) -> int:
    """The tracemalloc peak of ``call()``, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_criterion_5_scale_smoke():
    config = GeneratorConfig(
        num_transactions=100_000, universe_size=1000,
        basket_size_range=(8, 20),
        patterns=((("item_0001", "item_0002", "item_0003"), 0.3),), seed=42)
    db = generate_db(config)
    assert db.n == 100_000

    params = MiningParams(Fraction(1, 100), 1)
    threshold = params.absolute_threshold(db.n)
    want = reference_itemsets(db, params.min_support)
    assert ("item_0001", "item_0002", "item_0003") in want
    assert len(want) == 1004  # 1000 singles, the planted pairs, the triple

    started = perf_counter()
    tree = build_fp_tree(db, threshold)
    result = fp_growth_mine(tree)
    elapsed = perf_counter() - started
    assert elapsed < 30.0
    assert_matches_reference(db, result, want)
    del tree, result

    started = perf_counter()
    from_apriori = apriori_mine(db, params)
    apriori_elapsed = perf_counter() - started
    assert apriori_elapsed < 30.0
    assert_matches_reference(db, from_apriori, want)
    del from_apriori

    # Untimed, since tracemalloc slows mining several times over. The
    # peaks measured 87.7 MiB for FP-Growth on Python 3.11, and
    # 13.6-13.7 MiB for Apriori on Python 3.10, 3.11 and 3.12.
    peak = traced_peak(lambda: fp_growth_mine(build_fp_tree(db, threshold)))
    assert peak < 100 * 2**20, f"FP-Growth peaked at {peak / 2**20:.1f} MiB"
    apriori_peak = traced_peak(lambda: apriori_mine(db, params))
    assert apriori_peak < 20 * 2**20, \
        f"Apriori peaked at {apriori_peak / 2**20:.1f} MiB"

    print(f"criterion 5 PASS: 100k x 1000 FP-Growth mine in {elapsed:.1f}s "
          f"(peak {peak / 2**20:.1f} MiB), Apriori in {apriori_elapsed:.1f}s "
          f"(peak {apriori_peak / 2**20:.1f} MiB), both the reference's "
          f"1004 itemsets")


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
    db = dense_db()
    params = MiningParams(Fraction(3, 100), 1)
    want = reference_itemsets(db, params.min_support)
    assert len(want) == 4071
    assert max(map(len, want)) == 8
    for engine in (apriori_mine, fpgrowth_mine):
        # Free any cyclic garbage earlier tests left, so that collecting it
        # does not land inside the timed call and the bound times the
        # engine alone.
        gc.collect()
        started = perf_counter()
        frequents = engine(db, params)
        elapsed = perf_counter() - started
        assert elapsed < 5.0, f"{engine.__module__} took {elapsed:.1f}s"
        assert_matches_reference(db, frequents, want)
    print("dense gate PASS: Apriori and FP-Growth each mine the reference's "
          "4071 itemsets")


def test_dense_rules_within_time_and_memory_bounds():
    db = dense_db()
    params = MiningParams(Fraction(1, 40), Fraction(3, 5))
    frequents = apriori_mine(db, params)
    gc.collect()
    started = perf_counter()
    ruleset = generate_rules(frequents, db, params)
    text = cli.rules_as_csv(ruleset, db, None)
    elapsed = perf_counter() - started
    assert len(ruleset) == 154_168
    assert text.count("\n") == 154_169
    assert elapsed < 2.5, f"rules and CSV took {elapsed:.2f}s"
    del ruleset, text

    # tracemalloc slows allocation-heavy code by an order of magnitude, so
    # the peak is taken on a smaller cut of the same data.
    params = MiningParams(Fraction(3, 100), Fraction(4, 5))
    frequents = apriori_mine(db, params)
    gc.collect()
    tracemalloc.start()
    try:
        ruleset = generate_rules(frequents, db, params)
        text = cli.rules_as_csv(ruleset, db, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ruleset) == 29_502
    assert peak < 4 * 2**20, f"rules and CSV peaked at {peak / 2**20:.1f} MiB"
    print(f"dense rules gate PASS: 154,168 rules and CSV in {elapsed:.2f}s; "
          f"29,502 rules and CSV peaked at {peak / 2**20:.1f} MiB")


def test_dense_rules_retain_only_their_ruleset():
    # What generate_rules leaves allocated beyond the RuleSet's own keys
    # and tuples, such as its working tables' small tuples kept in the
    # interpreter's free lists. The full collection empties those lists
    # first; the itemsets and counts are the mined objects, so not new.
    db = dense_db()
    params = MiningParams(Fraction(3, 100), Fraction(4, 5))
    frequents = apriori_mine(db, params)
    gc.collect()
    tracemalloc.start()
    try:
        ruleset = generate_rules(frequents, db, params)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ruleset) == 29_502
    own = sum(map(sys.getsizeof, (ruleset, ruleset.rows, ruleset.itemsets,
                                  ruleset.counts, *ruleset.rows)))
    left = held - own
    assert left < 256 << 10, f"rules left {left / 1024:.0f} KiB behind"
    print(f"dense rules retention PASS: {left / 1024:.0f} KiB left beyond "
          f"the 29,502 rules")


def load_within_bounds(path, file_format, repeat):
    """``cli.load_db`` on ``path``: the db, the best wall time of ``repeat``
    loads, the ratio of that best time to the best time of the uncached
    reference parser over the file's ``read_text().splitlines()``, each
    reference run just after a load, and the tracemalloc peak of one more
    load.

    Host speed drifts from second to second, and the loads and reference
    runs are interleaved, so their ratio holds on a slow host and on a fast
    one alike. Each best time is the run that the rest of the host
    disturbed least, so a busy second that slows one load or one reference
    run does not move the ratio."""
    def reference():
        lines = path.read_text(encoding="utf-8").splitlines()
        if file_format == "tidpairs":
            return tid_pairs_reference(lines, False)
        return basket_reference(lines)

    times, reference_times = [], []
    for _ in range(repeat):
        gc.collect()
        started = perf_counter()
        db = cli.load_db(str(path), file_format)
        times.append(perf_counter() - started)
        del db
        gc.collect()
        started = perf_counter()
        transactions, dictionary = reference()
        reference_times.append(perf_counter() - started)
    gc.collect()
    tracemalloc.start()
    try:
        db = cli.load_db(str(path), file_format)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(db.transactions) == transactions
    assert list(db.dictionary) == list(dictionary)
    return db, min(times), min(times) / min(reference_times), peak


def test_hostile_wide_basket_within_bounds(tmp_path):
    # One 89 KB line: longer than a read chunk, and 10^4 fields to intern.
    # Every field misses the raw-field cache, so caching cannot win here;
    # the peak bound catches a reader that holds the line more than once.
    path = tmp_path / "wide.basket"
    path.write_text(",".join(f"item{k}" for k in range(10_000)) + "\n",
                    encoding="utf-8")
    db, elapsed, _, peak = load_within_bounds(path, "basket", 1)
    assert db.transactions == (tuple(range(10_000)),)
    assert peak < 4 * 2**20, f"ingest peaked at {peak / 2**20:.1f} MiB"
    print(f"wide basket gate PASS: {elapsed:.3f}s, {peak / 2**20:.1f} MiB")


def test_hostile_single_tid_within_bounds(tmp_path):
    path = tmp_path / "one-tid.csv"
    path.write_text("".join(f"7,item{k % 1000}\n" for k in range(100_000)),
                    encoding="utf-8")
    db, elapsed, ratio, peak = load_within_bounds(path, "tidpairs", 5)
    assert db.transactions == (tuple(range(1000)),)
    # A raw-tid hit skips every check the reference runs on each row;
    # ingest without that cache reads about as fast as the reference.
    assert ratio < 0.7, f"ingest took {elapsed:.3f}s, {ratio:.2f} of reference"
    assert peak < 4 * 2**20, f"ingest peaked at {peak / 2**20:.1f} MiB"
    print(f"single tid gate PASS: {elapsed:.3f}s, {ratio:.2f} of reference, "
          f"{peak / 2**20:.1f} MiB")


def many_tid_rows():
    """20,000 tids of 10 rows each over 1000 labels, then 1000 of them again
    with their fields padded and 1000 more as they were: the shape of the
    quest benchmark input. The tid map holds 20,000 keys."""
    rows = [f"{t},item{(t * 7 + j * 13) % 1000}"
            for t in range(20_000) for j in range(10)]
    rows += [f" {t} ,item{t % 1000} " for t in range(0, 20_000, 20)]
    rows += [f"{t},item{t % 999}" for t in range(5, 20_000, 20)]
    return rows


def test_many_tids_ingest_within_memory_bound(tmp_path):
    # The peak read 4.6 MiB on Python 3.11. The first 200,000 rows ascend,
    # so each tid's rows close into a sorted tuple as the next tid starts,
    # with no tid map kept; the first returning row rebuilds the map from
    # those tuples. Runs closed while the map is kept are gated below, by
    # the same tids in other orders.
    path = tmp_path / "many-tids.csv"
    path.write_text("\n".join(many_tid_rows()) + "\n", encoding="utf-8")
    db, elapsed, _, peak = load_within_bounds(path, "tidpairs", 1)
    assert db.n == 20_000 and len(db.dictionary) == 1000
    assert peak < 5 * 2**20, f"ingest peaked at {peak / 2**20:.1f} MiB"
    print(f"many tids gate PASS: {elapsed:.3f}s, {peak / 2**20:.1f} MiB")


def test_grouped_ascending_tids_within_memory_bound(tmp_path):
    # The many-tids rows without their 2,000 returning rows: 20,000 tids in
    # ascending order, as a point-of-sale export lists its receipts, and
    # the shape of the quest benchmark input. The peak read 3.45 MiB on
    # Python 3.11 with no tid map kept while tids ascend, and 4.53 MiB with
    # a map from each trimmed tid to its items. The time ratio read
    # 0.54-0.55 there when every closed run went through a set and every
    # line cost a generator resume, and 0.45-0.46 with neither.
    path = tmp_path / "ascending-tids.csv"
    path.write_text("\n".join(many_tid_rows()[:-2000]) + "\n",
                    encoding="utf-8")
    db, elapsed, ratio, peak = load_within_bounds(path, "tidpairs", 5)
    assert db.n == 20_000 and len(db.dictionary) == 1000
    assert ratio < 0.7, f"ingest took {elapsed:.3f}s, {ratio:.2f} of reference"
    assert peak < 4 * 2**20, f"ingest peaked at {peak / 2**20:.1f} MiB"
    print(f"ascending tids gate PASS: {elapsed:.3f}s, {ratio:.2f} of "
          f"reference, {peak / 2**20:.1f} MiB")


@pytest.mark.parametrize("order", ["text", "descending"])
def test_contiguous_unordered_tids_within_memory_bound(tmp_path, order):
    # The many-tids rows without their 2,000 returning rows, each tid's
    # rows still contiguous, but the tids in text order ("0", "1", "10",
    # "100", ...) or descending: not in (length, text) order, so ingest
    # keeps its tid map. The peak read 4.56 (text) and 4.57 MiB
    # (descending) on Python 3.11 with each first run of two or more rows
    # closed into its sorted tuple when the next tid starts, and 5.73 and
    # 5.74 MiB with every first run a list until the end of the file.
    rows = many_tid_rows()[:-2000]
    if order == "text":
        rows.sort(key=lambda row: row.split(",")[0])
    else:
        rows.sort(key=lambda row: int(row.split(",")[0]), reverse=True)
    path = tmp_path / f"contiguous-tids-{order}.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    db, elapsed, _, peak = load_within_bounds(path, "tidpairs", 1)
    assert db.n == 20_000 and len(db.dictionary) == 1000
    assert peak < 5 * 2**20, f"ingest peaked at {peak / 2**20:.2f} MiB"
    print(f"contiguous {order} tids gate PASS: {elapsed:.3f}s, "
          f"{peak / 2**20:.2f} MiB")


def test_many_tids_sorted_by_label_within_bounds(tmp_path):
    # The same rows sorted by label, as an export ordered by item writes
    # them: no tid's rows are contiguous, so each first run is one row
    # long and almost every row returns to a tid seen before. A tid closed
    # and reopened row by row would cost a tuple and a list copy a row.
    rows = sorted(many_tid_rows(), key=lambda row: row.split(",")[1].strip())
    path = tmp_path / "many-tids-by-label.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    db, elapsed, ratio, peak = load_within_bounds(path, "tidpairs", 5)
    assert db.n == 20_000 and len(db.dictionary) == 1000
    assert ratio < 1.0, f"ingest took {elapsed:.3f}s, {ratio:.2f} of reference"
    assert peak < 7 * 2**20, f"ingest peaked at {peak / 2**20:.1f} MiB"
    print(f"tids by label gate PASS: {elapsed:.3f}s, {ratio:.2f} of "
          f"reference, {peak / 2**20:.1f} MiB")


def test_alternating_tids_within_time_bound(tmp_path):
    # 200,000 rows that alternate between two tids: every row returns to
    # the other tid, so a return that copies its tid's items would take
    # time quadratic in the rows.
    path = tmp_path / "alternating.csv"
    path.write_text("".join(f"{k % 2},item{k % 1000}\n"
                            for k in range(200_000)), encoding="utf-8")
    db, elapsed, ratio, _ = load_within_bounds(path, "tidpairs", 5)
    assert db.transactions == (tuple(range(0, 1000, 2)), tuple(range(1, 1000, 2)))
    assert ratio < 1.5, f"ingest took {elapsed:.3f}s, {ratio:.2f} of reference"
    print(f"alternating tids gate PASS: {elapsed:.3f}s, {ratio:.2f} of "
          f"reference")


def test_hostile_long_line_reads_in_linear_time():
    # 16 MiB with no line break spans 256 read chunks; splitting what has
    # been carried again at each chunk would take over a second.
    stream = io.BytesIO(b"x" * (16 << 20) + b"\ny")
    started = perf_counter()
    lengths = [len(line) for line in read_lines(stream)]
    elapsed = perf_counter() - started
    assert lengths == [16 << 20, 1]
    assert elapsed < 0.5, f"reading took {elapsed:.2f}s"
    print(f"long line gate PASS: 16 MiB line read in {elapsed:.3f}s")


@pytest.fixture(scope="module")
def million_lines():
    """10^6 one-item baskets over 1000 labels (7.9 MB)."""
    return "".join(f"item{k % 1000}\n" for k in range(1_000_000))


def test_hostile_million_one_item_lines_within_bounds(tmp_path, million_lines):
    path = tmp_path / "million.basket"
    path.write_text(million_lines, encoding="utf-8")
    db, elapsed, ratio, peak = load_within_bounds(path, "basket", 3)
    assert db.n == 1_000_000 and len(db.dictionary) == 1000
    assert db.transactions[999_999] == (999,)
    # The reference strips and interns every field; ingest that does the
    # same on top of a whole-file read takes about 1.6 times as long.
    assert ratio < 1.3, f"ingest took {elapsed:.2f}s, {ratio:.2f} of reference"
    # About 56 MiB of the peak is the 10^6 result tuples themselves.
    assert peak < 90 * 2**20, f"ingest peaked at {peak / 2**20:.1f} MiB"
    print(f"million lines gate PASS: {elapsed:.2f}s, {ratio:.2f} of reference, "
          f"{peak / 2**20:.1f} MiB")


def test_hostile_million_lines_then_empty_label_exits_3(capsys, tmp_path,
                                                        million_lines):
    path = tmp_path / "million-bad.basket"
    path.write_text(million_lines + "a,,b\n", encoding="utf-8")
    code = cli.main(["mine", "--input", str(path), "--min-support", "1/2",
                     "--min-confidence", "1/2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: line 1000001: empty item label\n"
