"""Self-tests of the benchmark: generator, reference miner, gate, tracing.

Run with: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reference
import run
import workloads
from proc import Launcher, python_env

from basketminer import apriori_mine, cli, fpgrowth_mine
from basketminer.core import MiningParams, ingest_basket, ingest_tid_pairs
from basketminer.rules import generate_rules

ROOT = Path(__file__).resolve().parents[2]
GROCERY = ROOT / "data" / "market_baskets.basket"
GROCERY_PAIRS = ROOT / "data" / "market_baskets_pairs.csv"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    first = workloads.write_input(workload, 3, tmp_path / "a")
    again = workloads.write_input(workload, 3, tmp_path / "b")
    other = workloads.write_input(workload, 4, tmp_path / "c")
    assert first.sha256 == again.sha256
    assert first.sha256 != other.sha256
    assert first.size_bytes == first.path.stat().st_size


def test_pinned_inputs_match_the_generator(tmp_path):
    pins = json.loads(run.PINS.read_text(encoding="utf-8"))
    for name, workload in workloads.WORKLOADS.items():
        made = workloads.write_input(workload, pins["seed"], tmp_path)
        assert made.sha256 == pins["input_sha256"][name], name


def small_databases():
    """(name, basket text) pairs: the grocery file and small generated ones."""
    yield "grocery", GROCERY.read_text(encoding="utf-8")
    for seed in range(4):
        planted = (((0, 1, 2), 0.3), ((2, 3, 4, 5), 0.2))
        baskets = workloads._padded(random.Random(-seed), random.Random(seed),
                                    120, 14, (1, 6), planted)
        yield f"generated-{seed}", "\n".join(
            ",".join(workloads.label(i) for i in items) for items in baskets) + "\n"


def labelled(db, itemset):
    return tuple(sorted(db.dictionary.labels(itemset)))


@pytest.mark.parametrize("min_support", ["1/7", "2/7", "3/50", "1/10"])
@pytest.mark.parametrize("case", list(small_databases()), ids=lambda case: case[0])
def test_reference_agrees_with_the_engines_and_rules(case, min_support):
    _, text = case
    params = MiningParams(Fraction(min_support), Fraction(3, 5))
    db = ingest_basket(text.splitlines())
    transactions = [frozenset(db.dictionary.labels(t)) for t in db.transactions]
    want = reference.frequent_itemsets(transactions, params.min_support)
    for engine in (apriori_mine, fpgrowth_mine):
        mined = engine(db, params)
        assert {labelled(db, f.itemset): f.count for f in mined} == want
    ruleset = generate_rules(apriori_mine(db, params), db, params)
    got = {(labelled(db, r.antecedent), labelled(db, r.consequent),
            r.union_count, r.antecedent_count) for r in ruleset}
    assert got == reference.rules(want, params.min_confidence)


def test_reference_reads_tidpairs_like_basket_files():
    basket = reference.read_transactions(GROCERY, "basket", False)
    pairs = reference.read_transactions(GROCERY_PAIRS, "tidpairs", True)
    assert basket == pairs
    db = ingest_tid_pairs(GROCERY_PAIRS.read_text().splitlines(), skip_header=True)
    assert len(pairs) == db.n


@pytest.mark.parametrize("output", ["csv", "json"])
def test_gate_accepts_real_output_and_rejects_tampering(output, capsys):
    argv = ["mine", "--input", str(GROCERY), "--min-support", "2/7",
            "--min-confidence", "1/2", "--output", output, "--show-itemsets"]
    assert cli.main(argv) == 0
    text = capsys.readouterr().out
    want = reference.expected(GROCERY, "basket", False, Fraction(2, 7),
                              Fraction(1, 2))
    assert want.rules
    assert reference.check_output(text, output, want) == []

    if output == "csv":
        rules, rest = text.split("\n\n")
        lines = rules.splitlines(keepends=True)
        dropped = "".join(lines[:1] + lines[2:]) + "\n" + rest
        swapped = "".join(lines[:1] + lines[-1:] + lines[2:-1] + lines[1:2])
        swapped += "\n" + rest
        label, count, support = rest.splitlines()[-1].split(",")
        miscounted = text.replace(f"{label},{count},", f"{label},{int(count) + 1},")
    else:
        payload = json.loads(text)
        first = payload["rules"].pop(0)
        dropped = json.dumps(payload)
        payload["rules"].append(first)
        swapped = json.dumps(payload)
        payload = json.loads(text)
        payload["itemsets"][-1]["count"] += 1
        miscounted = json.dumps(payload)
    for tampered in (dropped, swapped, miscounted):
        assert reference.check_output(tampered, output, want)
    assert reference.check_output("garbage", output, want)


def test_self_times_subtract_direct_children():
    spans = [
        {"id": 1, "name": "a", "start": 1.0, "end": 2.0, "parent": 0},
        {"id": 2, "name": "b", "start": 2.5, "end": 3.0, "parent": 0},
        {"id": 3, "name": "c", "start": 1.2, "end": 1.4, "parent": 1},
        {"id": 0, "name": "run", "start": 0.0, "end": 4.0, "parent": None},
    ]
    own = run.self_times(spans)
    assert own == pytest.approx({0: 2.5, 1: 0.8, 2: 0.5, 3: 0.2})


def test_traced_run_records_every_layer_it_enters(tmp_path):
    spans_path = tmp_path / "spans.json"
    argv = [sys.executable, str(run.BENCH / "traced.py"), str(spans_path),
            "grocery", "7", "mine", "--input", str(GROCERY),
            "--min-support", "2/7", "--min-confidence", "1/2", "--output", "csv"]
    done = subprocess.run(argv, env=python_env(run.SRC), capture_output=True,
                          text=True, timeout=60, check=True)
    trace = json.loads(spans_path.read_text())
    names = {span["name"] for span in trace["spans"]}
    assert {"run", "core.ingest", "fpgrowth.build", "fpgrowth.mine",
            "rules.generate", "cli.render"} <= names
    assert all(span["workload"] == "grocery" and span["run_id"] == 7
               for span in trace["spans"])
    counters = trace["counters"]
    assert counters["rules.emitted"] == len(done.stdout.splitlines()) - 1
    assert counters["cli.output_bytes"] == len(done.stdout.encode())
    assert counters["core.transactions"] == 7
    times, unaccounted = run.layer_figures(trace, wall_s=10.0)
    assert times["apriori.levels_s"] == 0.0 and times["rules.generate_s"] > 0
    assert 0 < unaccounted < 10.0


def test_child_peak_rss_is_its_own(tmp_path):
    env = python_env(run.SRC)
    touch = "x = bytearray(100 * 2**20); x[::4096] = b'1' * len(x[::4096])"
    ballast = bytearray(150 * 2**20)
    ballast[::4096] = b"1" * len(ballast[::4096])
    with Launcher() as launcher:
        big = launcher.run(["-c", touch], env, tmp_path / "o", tmp_path / "e", 60)
        small = launcher.run(["-c", "pass"], env, tmp_path / "o", tmp_path / "e", 60)
    del ballast
    assert big.exit_code == small.exit_code == 0
    # Neither the earlier big child nor this process's 150 MiB shows.
    assert big.peak_rss_mb > 100 > small.peak_rss_mb


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_launcher_waits_for_its_helper(tmp_path):
    with Launcher() as launcher:
        launcher.run(["-c", "pass"], python_env(run.SRC), tmp_path / "o",
                     tmp_path / "e", 60)
        helper = launcher._helper
    assert helper.returncode == 0


def test_speed_scale_uses_the_probes_on_both_sides(monkeypatch):
    probes = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(run, "speed_probe", lambda: next(probes))
    speed = run.SpeedProbe()
    assert speed.scale() == pytest.approx(run.PROBE_NOMINAL_S / 0.2)
    assert speed.scale() == pytest.approx(run.PROBE_NOMINAL_S / 0.25)
