import csv
import gc
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import basketminer
from basketminer import cli
from basketminer.apriori import apriori_mine
from basketminer.core import (
    ItemDictionary,
    MiningParams,
    TransactionDb,
)
from basketminer.oracle import brute_force_mine
from basketminer.rules import RuleSet, generate_rules
from helpers import PERFBENCH, db_from_ids, load_perfbench

GOLDEN_TABLE = (
    "People who bought this item | Also bought the following items | Support | Confidence\n"
    "----------------------------+---------------------------------+---------+-----------\n"
    "Rice                        | Pulses                          | 43%     | 100%\n"
    "Wheat                       | Pulses                          | 57%     | 80%\n"
)

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PAPER_FLAGS = ["--min-support", "0.42", "--min-confidence", "0.8",
               "--max-antecedent", "1"]


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMine:
    def test_paper_table_golden(self, capsys, basket_path):
        code, out, err = run_cli(
            capsys, ["mine", "--input", str(basket_path)] + PAPER_FLAGS)
        assert code == 0
        assert out == GOLDEN_TABLE
        assert err == ""

    def test_fraction_literal_threshold_matches(self, capsys, basket_path):
        code, out, _ = run_cli(capsys, [
            "mine", "--input", str(basket_path), "--min-support", "3/7",
            "--min-confidence", "4/5", "--max-antecedent", "1"])
        assert code == 0
        assert out == GOLDEN_TABLE

    def test_full_confidence_keeps_only_rice_rule(self, capsys, basket_path):
        code, out, _ = run_cli(capsys, [
            "mine", "--input", str(basket_path), "--min-support", "0.42",
            "--min-confidence", "1.0"])
        assert code == 0
        rows = out.splitlines()[2:]
        assert len(rows) == 1
        assert rows[0].startswith("Rice")

    @pytest.mark.parametrize("algorithm", ["apriori", "bruteforce"])
    def test_every_engine_reproduces_the_table(self, capsys, basket_path,
                                               algorithm):
        code, out, _ = run_cli(
            capsys, ["mine", "--input", str(basket_path),
                     "--algorithm", algorithm] + PAPER_FLAGS)
        assert code == 0
        assert out == GOLDEN_TABLE

    def test_missing_input_exits_3(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, [
            "mine", "--input", str(tmp_path / "nope.basket"),
            "--min-support", "0.5", "--min-confidence", "0.5"])
        assert code == 3
        assert out == ""
        assert "error" in err

    def test_empty_input_exits_3(self, capsys, tmp_path):
        empty = tmp_path / "empty.basket"
        empty.write_text("# nothing here\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, [
            "mine", "--input", str(empty),
            "--min-support", "0.5", "--min-confidence", "0.5"])
        assert code == 3
        assert out == ""

    def test_out_of_range_threshold_exits_2(self, basket_path):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["mine", "--input", str(basket_path),
                      "--min-support", "0", "--min-confidence", "0.5"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("algorithm", ["eclat", "fpgrowth"])
    def test_unknown_algorithm_exits_2(self, capsys, basket_path, algorithm):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["mine", "--input", str(basket_path),
                      "--min-support", "0.5", "--min-confidence", "0.5",
                      "--algorithm", algorithm])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"invalid choice: '{algorithm}'" in captured.err

    def test_bruteforce_guard_exits_4(self, capsys, tmp_path):
        wide = tmp_path / "wide.basket"
        wide.write_text(",".join(f"x{i}" for i in range(21)) + "\n",
                        encoding="utf-8")
        code, out, err = run_cli(capsys, [
            "mine", "--input", str(wide), "--algorithm", "bruteforce",
            "--min-support", "0.5", "--min-confidence", "0.5"])
        assert code == 4
        assert out == ""
        assert "guard" in err

    def test_bruteforce_work_guard_exits_4_in_time(self, capsys, tmp_path):
        # 20 items, in each of 400 baskets: levels 1-4 take 2,478,000
        # subset tests, and level 5 would take them past 2^22.
        full = tmp_path / "full.basket"
        full.write_text((",".join(f"x{i}" for i in range(20)) + "\n") * 400,
                        encoding="utf-8")
        started = perf_counter()
        code, out, err = run_cli(capsys, [
            "mine", "--input", str(full), "--algorithm", "bruteforce",
            "--min-support", "1/400", "--min-confidence", "1/2"])
        elapsed = perf_counter() - started
        assert code == 4
        assert out == ""
        assert err == (
            "error: brute-force enumeration up to the 5-itemsets would take "
            "8679600 subset tests, past the 4194304-test guard; use a real "
            "engine\n")
        assert elapsed < 2.0

    def test_skip_header_on_basket_exits_2(self, capsys, basket_path):
        code, out, err = run_cli(capsys, [
            "mine", "--input", str(basket_path), "--skip-header",
            "--min-support", "0.42", "--min-confidence", "0.8"])
        assert code == 2
        assert out == ""
        assert err == ("error: --skip-header applies only to --format "
                       "tidpairs, not basket\n")

    @pytest.mark.parametrize("argv, message", [
        (["mine", "--max-antecedent", "0"], "must be >= 1, got 0"),
        (["mine", "--min-items", "x"], "not an integer: 'x'"),
        (["gen", "--transactions", "0"], "must be >= 1, got 0"),
        (["gen", "--items", "-3"], "must be >= 1, got -3"),
        (["gen", "--basket-min", "0"], "must be >= 1, got 0"),
        (["gen", "--basket-max", "1.5"], "not an integer: '1.5'"),
        (["gen", "--seed", "-1"], "must be >= 0, got -1"),
        (["mine", "--min-support", "abc"], "not a number: 'abc'"),
        (["mine", "--min-support", "1/0"], "not a number: '1/0'"),
        (["mine", "--min-confidence", "2"],
         "threshold must be in (0, 1], got 2"),
        (["gen", "--pattern", "a,b"],
         "pattern needs a :probability suffix, got 'a,b'"),
        (["gen", "--pattern", "a, :0.5"], "empty item label in 'a, :0.5'"),
        (["gen", "--pattern", "a,b:often"], "not a probability: 'often'"),
        (["gen", "--pattern", "a,b:1.5"],
         "probability must be in [0, 1], got 1.5"),
        # Fraction would compute 10**exponent first: about 14 s at 10**7.
        (["mine", "--min-support", "1e-10000000"],
         "too many digits (over 4300): '1e-10000000'"),
        (["mine", "--min-confidence", "1e10000000"],
         "too many digits (over 4300): '1e10000000'"),
    ])
    def test_integer_flags_keep_their_bounds(self, capsys, basket_path,
                                             argv, message):
        """Every flag-parser error, of ``mine`` and ``gen`` alike, exits 2
        and names its flag and its reason."""
        if argv[0] == "mine":
            argv = argv + ["--input", str(basket_path), "--min-support",
                           "0.5", "--min-confidence", "0.5"]
        started = perf_counter()
        with pytest.raises(SystemExit) as exc_info:
            cli.main(argv)
        assert perf_counter() - started < 1.0
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument {argv[1]}: {message}\n")

    def test_tidpairs_matches_basket(self, capsys, basket_path, pairs_path):
        argv_tail = ["--min-support", "0.42", "--min-confidence", "0.8",
                     "--output", "json"]
        _, from_basket, _ = run_cli(capsys, [
            "mine", "--input", str(basket_path)] + argv_tail)
        code, from_pairs, _ = run_cli(capsys, [
            "mine", "--input", str(pairs_path), "--format", "tidpairs",
            "--skip-header"] + argv_tail)
        assert code == 0
        assert from_pairs == from_basket

    def test_min_items_filters_small_baskets(self, capsys, tmp_path):
        path = tmp_path / "mixed.basket"
        path.write_text("solo\na,b\nb,c\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, [
            "mine", "--input", str(path), "--min-items", "2",
            "--min-support", "0.5", "--min-confidence", "0.5",
            "--output", "json"])
        assert code == 0
        assert json.loads(out)["n_transactions"] == 2

    def test_json_round_trips_exact_rationals(self, capsys, basket_path):
        code, out, _ = run_cli(capsys, [
            "mine", "--input", str(basket_path), "--min-support", "0.42",
            "--min-confidence", "0.8", "--output", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["n_transactions"] == 7
        assert payload["params"]["min_confidence"] == {
            "num": 4, "den": 5, "decimal": 0.8}
        rules = [
            (tuple(rule["antecedent"]), tuple(rule["consequent"]),
             Fraction(rule["support"]["num"], rule["support"]["den"]),
             Fraction(rule["confidence"]["num"], rule["confidence"]["den"]))
            for rule in payload["rules"]]
        assert rules == [
            (("Rice",), ("Pulses",), Fraction(3, 7), Fraction(1)),
            (("Wheat",), ("Pulses",), Fraction(4, 7), Fraction(4, 5))]

    def test_csv_output_parses(self, capsys, basket_path):
        code, out, _ = run_cli(capsys, [
            "mine", "--input", str(basket_path), "--min-support", "0.42",
            "--min-confidence", "0.8", "--output", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["antecedent", "consequent", "support", "confidence"]
        assert rows[1] == ["Rice", "Pulses", "3/7", "1"]
        assert rows[2] == ["Wheat", "Pulses", "4/7", "4/5"]

    def test_show_itemsets_table_section(self, capsys, basket_path):
        code, out, _ = run_cli(capsys, [
            "mine", "--input", str(basket_path), "--show-itemsets",
            "--min-support", "0.42", "--min-confidence", "0.8"])
        assert code == 0
        assert out.startswith(GOLDEN_TABLE)
        assert "Frequent itemsets (count >= 3 of 7):" in out
        assert "Wheat, Pulses" in out

    def test_show_itemsets_json_lists_all_seven(self, capsys, basket_path):
        code, out, _ = run_cli(capsys, [
            "mine", "--input", str(basket_path), "--show-itemsets",
            "--min-support", "0.42", "--min-confidence", "0.8",
            "--output", "json"])
        assert code == 0
        itemsets = json.loads(out)["itemsets"]
        assert len(itemsets) == 7
        assert {"items": ["Wheat", "Pulses"], "count": 4,
                "support": {"num": 4, "den": 7, "decimal": 4 / 7}} in itemsets

    @pytest.mark.parametrize("output", ["table", "csv", "json"])
    def test_output_is_deterministic(self, capsys, basket_path, output):
        argv = ["mine", "--input", str(basket_path), "--min-support", "0.42",
                "--min-confidence", "0.8", "--output", output]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second


class TestDefaultEngine:
    """``mine`` runs Apriori unless told otherwise."""

    ARGV = ["--min-support", "1/7", "--min-confidence", "1/2",
            "--show-itemsets"]

    def mine(self, capsys, basket_path, *extra):
        code, out, err = run_cli(
            capsys, ["mine", "--input", str(basket_path)] + self.ARGV
            + list(extra))
        assert code == 0
        return out, err

    @pytest.mark.parametrize("output", ["table", "csv"])
    def test_default_stdout_is_apriori_stdout(self, capsys, basket_path,
                                              output):
        default, default_err = self.mine(capsys, basket_path,
                                         "--output", output)
        apriori, apriori_err = self.mine(capsys, basket_path, "--output",
                                         output, "--algorithm", "apriori")
        assert default.count("\n") > 20
        assert default == apriori
        assert default_err == apriori_err == ""

    def test_json_names_apriori_by_default(self, capsys, basket_path):
        out, err = self.mine(capsys, basket_path, "--output", "json")
        assert json.loads(out)["params"]["algorithm"] == "apriori"
        assert err == ""

    def test_help_names_the_default(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["mine", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "mining engine (default apriori)" in text


class TestSubcommands:
    """``mine`` and ``gen`` are the whole CLI: engine timing lives in
    ``perfbench/`` and engine agreement in the acceptance tests."""

    def test_bench_is_not_a_subcommand(self):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["bench"])
        assert exc_info.value.code == 2

    def test_package_exports_no_benchmark_names(self):
        for name in ("benchmark", "BenchmarkReport", "EngineRun",
                     "EngineDisagreementError", "Item", "itemset",
                     "to_basket_lines", "ContractViolationError", "percent",
                     "format_percent"):
            assert name not in basketminer.__all__
            assert not hasattr(basketminer, name)

    def test_every_exported_name_resolves(self):
        assert len(basketminer.__all__) == 28
        namespace: dict = {}
        exec("from basketminer import *", namespace)
        for name in basketminer.__all__:
            assert namespace[name] is getattr(basketminer, name)

    def test_engines_are_the_algorithm_choices(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["mine", "--help"])
        assert "--algorithm {apriori,bruteforce}" in capsys.readouterr().out
        assert list(cli.ENGINES) == ["apriori", "bruteforce"]


# Run by a fresh interpreter with no site packages: reports which modules
# ``import basketminer.cli`` loaded that a ``mine`` run never uses, then
# reaches each of them on demand.
LAZY_IMPORT_CHILD = """
import contextlib, io, json, sys
src, basket, generated = sys.argv[1:]
sys.path.insert(0, src)
import basketminer.cli
unused = ("dataclasses", "inspect", "random", "typing",
          "basketminer.fpgrowth", "basketminer.oracle")
report = {"loaded": [name for name in unused if name in sys.modules]}
import basketminer
from basketminer import apriori, cli, fpgrowth
report["undir"] = sorted(set(basketminer.__all__) - set(dir(basketminer)))
db = cli.load_db(basket, "basket")
params = basketminer.MiningParams("0.42", "0.8")
report["fpgrowth_agrees"] = (basketminer.fpgrowth_mine is fpgrowth.mine
                             and basketminer.fpgrowth_mine(db, params)
                             == apriori.apriori_mine(db, params))
with contextlib.redirect_stderr(io.StringIO()):
    report["gen"] = cli.main(["gen", "--transactions", "30", "--output",
                              generated])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    report["bruteforce"] = cli.main(
        ["mine", "--input", basket, "--algorithm", "bruteforce",
         "--min-support", "0.42", "--min-confidence", "0.8",
         "--max-antecedent", "1"])
report["table"] = out.getvalue()
print(json.dumps(report))
"""


class TestStartup:
    """A ``mine`` process imports only what it runs; the rest loads on
    first use."""

    def test_cli_import_leaves_unused_modules_unloaded(self, basket_path,
                                                       tmp_path):
        src_dir = Path(basketminer.__file__).resolve().parent.parent
        generated = tmp_path / "gen.basket"
        proc = subprocess.run(
            [sys.executable, "-E", "-S", "-B", "-c", LAZY_IMPORT_CHILD,
             str(src_dir), str(basket_path), str(generated)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report == {"loaded": [], "undir": [], "fpgrowth_agrees": True,
                          "gen": cli.EXIT_OK, "bruteforce": cli.EXIT_OK,
                          "table": GOLDEN_TABLE}
        assert generated.read_text(encoding="utf-8").count("\n") == 30


class TestBenchmarkPins:
    """Seed 0 of each benchmark workload, mined in process with the
    workload's own ``mine`` flags, prints the stdout pinned in
    ``perfbench/pins.json``."""

    @pytest.mark.parametrize("name", ["sparse", "dense", "quest"])
    def test_seed_0_stdout_matches_the_pin(self, capsys, tmp_path, name):
        workloads = load_perfbench("workloads")
        pins = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))
        workload = workloads.WORKLOADS[name]
        source = workloads.write_input(workload, pins["seed"], tmp_path)
        assert source.sha256 == pins["input_sha256"][name]
        code, out, _ = run_cli(capsys, ["mine", "--input", str(source.path),
                                        *workload.mine_args])
        assert code == 0
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == pins["stdout_sha256"][name]


class TestStreamedInput:
    @pytest.mark.parametrize("fixture, flags", [
        ("basket_path", []),
        ("pairs_path", ["--format", "tidpairs", "--skip-header"])],
        ids=["basket", "tidpairs"])
    def test_line_endings_give_identical_stdout(self, capsys, tmp_path,
                                                request, fixture, flags):
        text = request.getfixturevalue(fixture).read_text(encoding="utf-8")
        outs = []
        for name, newline in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
            path = tmp_path / name
            path.write_bytes(text.replace("\n", newline).encode("utf-8"))
            code, out, _ = run_cli(capsys, [
                "mine", "--input", str(path), "--min-support", "2/7",
                "--min-confidence", "1/2", "--output", "csv",
                "--show-itemsets"] + flags)
            assert code == 0
            outs.append(out)
        assert outs[0] and outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("file_format, data, message", [
        ("basket", b"apple,bread\n" * 10_000 + b"b,\xff\n", None),
        ("basket", b"a,b\na,,b\n\xff\n", "line 2: empty item label"),
        ("basket", b"\xff\na,,b\n", None),
        ("basket", b"# only a comment\n", "input contains no transactions"),
        ("tidpairs", b"1,a\n1,a,b\n",
         "line 2: expected exactly 2 fields 'tid,item_label', got 3"),
    ], ids=["undecodable-after-10k-lines", "parse-error-first",
            "decode-error-first", "empty-input", "field-count"])
    def test_errors_exit_3_and_close_the_file(self, capsys, tmp_path,
                                              file_format, data, message):
        path = tmp_path / "input"
        path.write_bytes(data)
        if message is None:  # undecodable: worded as a whole-file read words it
            with pytest.raises(UnicodeDecodeError) as whole:
                data.decode("utf-8")
            message = f"cannot read {path}: {whole.value}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code, out, err = run_cli(capsys, [
                "mine", "--input", str(path), "--format", file_format,
                "--min-support", "1/2", "--min-confidence", "1/2"])
            gc.collect()
        assert (code, out, err) == (3, "", f"error: {message}\n")
        assert not [w for w in caught if w.category is ResourceWarning]


class TestRatioFormatting:
    PAIRS = [(part, whole) for whole in range(1, 61)
             for part in range(whole + 1)] + [
        (33_924, 20_000), (17, 2_000), (299_999, 300_000), (2**61, 3**40)]

    def test_ratio_text_prints_the_fraction(self):
        for part, whole in self.PAIRS:
            assert cli.ratio_text(part, whole) == str(Fraction(part, whole))

    def test_ratio_object_matches_the_fraction(self):
        for part, whole in self.PAIRS:
            value = Fraction(part, whole)
            expected = {"num": value.numerator, "den": value.denominator,
                        "decimal": float(value)}
            text = cli.json_ratio(part, whole, "")
            assert json.loads(text) == expected
            assert text == json.dumps(expected, indent=2)

    def test_whole_percent_matches_the_reference(self):
        for part, whole in self.PAIRS:
            assert f"{cli.whole_percent(part, whole)}%" == \
                reference_percent(Fraction(part, whole))


def reference_percent(value):
    """``value >= 0`` as a whole percent, floor(100·value + 1/2), in exact
    rational arithmetic."""
    return f"{math.floor(value * 100 + Fraction(1, 2))}%"


def reference_table(ruleset, db, frequents):
    """The table built from ``AssociationRule`` objects, cell by cell."""
    label = db.dictionary.label_of

    def table(columns, rows):
        widths = [len(column) for column in columns]
        for row in rows:
            widths = [max(width, len(cell)) for width, cell in zip(widths, row)]
        lines = [" | ".join(cell.ljust(width) for cell, width
                            in zip(row, widths)).rstrip()
                 for row in [columns, *rows]]
        lines.insert(1, "-+-".join("-" * width for width in widths))
        return "\n".join(lines) + "\n"

    out = table(cli.RULE_TABLE_HEADER, [
        (", ".join(map(label, r.antecedent)), ", ".join(map(label, r.consequent)),
         reference_percent(r.support), reference_percent(r.confidence))
        for r in ruleset])
    if frequents is not None:
        n = ruleset.n_transactions
        out += (f"\nFrequent itemsets (count >= "
                f"{ruleset.params.absolute_threshold(n)} of {n}):\n")
        out += table(("Itemset", "Count", "Support"), [
            (", ".join(map(label, f.itemset)), str(f.count), f"{f.count}/{n}")
            for f in frequents])
    return out


def reference_csv(ruleset, db, frequents):
    """The CSV report as ``csv.writer`` writes it from ``AssociationRule``s."""
    label = db.dictionary.label_of
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["antecedent", "consequent", "support", "confidence"])
    writer.writerows([";".join(map(label, r.antecedent)),
                      ";".join(map(label, r.consequent)),
                      str(r.support), str(r.confidence)] for r in ruleset)
    if frequents is not None:
        writer.writerow([])
        writer.writerow(["itemset", "count", "support"])
        writer.writerows([";".join(map(label, f.itemset)), f.count,
                          str(Fraction(f.count, ruleset.n_transactions))]
                         for f in frequents)
    return buffer.getvalue()


def reference_json(ruleset, db, algorithm, frequents):
    """The JSON report as ``json.dumps(indent=2)`` writes it from
    ``AssociationRule``s."""
    labels = db.dictionary.labels

    def fraction(value):
        value = Fraction(value)
        return {"num": value.numerator, "den": value.denominator,
                "decimal": float(value)}

    payload = {
        "n_transactions": ruleset.n_transactions,
        "params": {"min_support": fraction(ruleset.params.min_support),
                   "min_confidence": fraction(ruleset.params.min_confidence),
                   "algorithm": algorithm},
        "rules": [{"antecedent": list(labels(r.antecedent)),
                   "consequent": list(labels(r.consequent)),
                   "support": fraction(r.support),
                   "confidence": fraction(r.confidence)} for r in ruleset],
    }
    if frequents is not None:
        payload["itemsets"] = [
            {"items": list(labels(f.itemset)), "count": f.count,
             "support": fraction(Fraction(f.count, ruleset.n_transactions))}
            for f in frequents]
    return json.dumps(payload, indent=2) + "\n"


def render_all(ruleset, db, frequents):
    return (cli.rules_as_table(ruleset, db, frequents),
            cli.rules_as_csv(ruleset, db, frequents),
            cli.rules_as_json(ruleset, db, "apriori", frequents))


def reference_all(ruleset, db, frequents):
    return (reference_table(ruleset, db, frequents),
            reference_csv(ruleset, db, frequents),
            reference_json(ruleset, db, "apriori", frequents))


QUOTED_BASKETS = (
    'say "hi", a;b, plain\n'
    'say "hi", a;b\n'
    'a;b, plain, x y\n'
    'say "hi", plain, a;b\n')


@pytest.fixture(scope="module")
def batches_case():
    """A database with more rules and more frequent itemsets than one
    batch of report lines holds."""
    rng = random.Random(19)
    db = db_from_ids([rng.sample(range(10), rng.randint(5, 9))
                      for _ in range(24)], 10)
    params = MiningParams(Fraction(4, 24), Fraction(3, 4))
    frequents = apriori_mine(db, params)
    ruleset = generate_rules(frequents, db, params)
    assert min(len(frequents), len(ruleset)) > cli.LINES_PER_BATCH
    return db, frequents, ruleset


class TestRenderers:
    @pytest.mark.parametrize("size", [
        0, 1, cli.LINES_PER_BATCH - 1, cli.LINES_PER_BATCH,
        cli.LINES_PER_BATCH + 1])
    @pytest.mark.parametrize("show_itemsets", [False, True])
    def test_batch_edges_match_the_references(self, batches_case, size,
                                              show_itemsets):
        # A line, newline or JSON comma lost or doubled where two batches
        # meet shows at these sizes.
        db, frequents, ruleset = batches_case
        cut = RuleSet(ruleset.rows[:size], ruleset.itemsets, ruleset.counts,
                      ruleset.params, ruleset.n_transactions)
        assert len(cut) == size
        shown = frequents[:size] if show_itemsets else None
        assert render_all(cut, db, shown) == reference_all(cut, db, shown)

    @pytest.mark.parametrize("show_itemsets", [False, True])
    def test_csv_quotes_labels_as_csv_writer_does(self, capsys, tmp_path,
                                                  show_itemsets):
        path = tmp_path / "quoted.basket"
        path.write_text(QUOTED_BASKETS, encoding="utf-8")
        argv = ["mine", "--input", str(path), "--min-support", "1/2",
                "--min-confidence", "1/2", "--output", "csv"]
        code, out, _ = run_cli(
            capsys, argv + ["--show-itemsets"] * show_itemsets)
        assert code == 0
        db = cli.load_db(str(path), "basket")
        params = MiningParams(Fraction(1, 2), Fraction(1, 2))
        frequents = apriori_mine(db, params)
        ruleset = generate_rules(frequents, db, params)
        assert len(ruleset) > 0
        assert out == reference_csv(ruleset, db,
                                    frequents if show_itemsets else None)
        assert '"say ""hi"""' in out and "a;b" in out

    @pytest.mark.parametrize("output", ["table", "json"])
    @pytest.mark.parametrize("show_itemsets", [False, True])
    def test_grocery_table_and_json_unchanged(self, capsys, basket_path,
                                              grocery_db, output,
                                              show_itemsets):
        code, out, _ = run_cli(capsys, [
            "mine", "--input", str(basket_path), "--min-support", "3/7",
            "--min-confidence", "1/2", "--output", output]
            + ["--show-itemsets"] * show_itemsets)
        assert code == 0
        params = MiningParams(Fraction(3, 7), Fraction(1, 2))
        frequents = brute_force_mine(grocery_db, params)
        ruleset = generate_rules(frequents, grocery_db, params)
        shown = frequents if show_itemsets else None
        expected = (reference_table(ruleset, grocery_db, shown)
                    if output == "table" else
                    reference_json(ruleset, grocery_db, "apriori", shown))
        assert out == expected

    @settings(max_examples=60, deadline=None)
    @given(labels=st.lists(
               st.text(st.sampled_from(',";\r\n\\ xé\u2028') | st.characters(),
                       min_size=1, max_size=6).map(str.strip).filter(bool),
               min_size=2, max_size=6, unique=True),
           data=st.data())
    def test_every_renderer_matches_its_reference(self, labels, data):
        dictionary = ItemDictionary()
        for label in labels:
            dictionary.intern(label)
        ids = st.integers(0, len(labels) - 1)
        baskets = data.draw(st.lists(st.frozensets(ids, min_size=1),
                                     min_size=1, max_size=12))
        db = TransactionDb(tuple(tuple(sorted(b)) for b in baskets),
                           dictionary)
        params = MiningParams(Fraction(1, db.n), Fraction(1, 3))
        frequents = brute_force_mine(db, params)
        ruleset = generate_rules(frequents, db, params)
        for shown in (None, frequents):
            assert render_all(ruleset, db, shown) == \
                reference_all(ruleset, db, shown)


class TestGen:
    def test_writes_to_stdout_by_default(self, capsys):
        code, out, err = run_cli(capsys, [
            "gen", "--transactions", "10", "--items", "10", "--seed", "0"])
        assert code == 0
        assert len(out.splitlines()) == 10
        assert "generated 10 transactions" in err
        assert "seed 0" in err

    def test_same_seed_writes_identical_files(self, capsys, tmp_path):
        paths = [tmp_path / "a.basket", tmp_path / "b.basket"]
        for path in paths:
            code, _, _ = run_cli(capsys, [
                "gen", "--transactions", "100", "--items", "10",
                "--seed", "7", "--output", str(path)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_certain_pattern_is_mined_at_full_support(self, capsys, tmp_path):
        path = tmp_path / "patterned.basket"
        code, _, _ = run_cli(capsys, [
            "gen", "--transactions", "50", "--items", "10",
            "--pattern", "a,b:1.0", "--seed", "5", "--output", str(path)])
        assert code == 0
        code, out, _ = run_cli(capsys, [
            "mine", "--input", str(path), "--min-support", "1.0",
            "--min-confidence", "1.0", "--show-itemsets", "--output", "json"])
        assert code == 0
        items = [entry["items"] for entry in json.loads(out)["itemsets"]]
        assert ["a", "b"] in items

    def test_generated_file_round_trips_through_mine(self, capsys, tmp_path):
        path = tmp_path / "default.basket"
        code, _, _ = run_cli(capsys, ["gen", "--output", str(path)])
        assert code == 0
        code, _, _ = run_cli(capsys, [
            "mine", "--input", str(path), "--min-support", "0.05",
            "--min-confidence", "0.5"])
        assert code == 0

    def test_impossible_basket_range_exits_2(self, capsys):
        code, out, err = run_cli(capsys, [
            "gen", "--items", "6", "--basket-max", "8"])
        assert code == 2
        assert out == ""
        assert "basket_size_range (1, 8) must satisfy 1 <= min <= max <= " \
            "universe_size (6)" in err

    @pytest.mark.parametrize("items, widest", [(1, 1), (5, 5), (8, 8),
                                               (9, 8)])
    def test_default_basket_max_fits_the_items(self, capsys, items, widest):
        code, out, err = run_cli(capsys, [
            "gen", "--transactions", "200", "--items", str(items)])
        assert code == 0
        assert err.startswith("generated 200 transactions")
        sizes = [len(line.split(",")) for line in out.splitlines()]
        assert max(sizes) == widest

    def test_unwritable_output_exits_3(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, [
            "gen", "--output", str(tmp_path / "missing-dir" / "x.basket")])
        assert code == 3
        assert "cannot write" in err


def entry_point_command():
    """The `basketminer` console script declared in pyproject.toml, as a
    command that runs the target with this interpreter, so that no install is
    needed. Without tomllib (Python 3.10) an installed script is used instead."""
    try:
        import tomllib
    except ModuleNotFoundError:
        executable = shutil.which("basketminer")
        if executable is None:
            pytest.importorskip("tomllib")
        return [executable]
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["basketminer"]
    module, function = target.split(":")
    return [sys.executable, "-c", f"from {module} import {function}; {function}()"]


def run_entry_point(args, stdout=subprocess.PIPE):
    # The child must import the same basketminer as this process, not an
    # installed copy that might shadow the checkout.
    src_dir = Path(basketminer.__file__).resolve().parent.parent
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src_dir) + (os.pathsep + existing if existing else "")
    return subprocess.run(entry_point_command() + args, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env)


class TestEntryPoint:
    def test_console_script_runs(self, basket_path):
        proc = run_entry_point(["mine", "--input", str(basket_path)] + PAPER_FLAGS)
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN_TABLE
        assert proc.stderr == ""

    def test_console_script_passes_exit_code(self, tmp_path):
        proc = run_entry_point(
            ["mine", "--input", str(tmp_path / "missing.basket")] + PAPER_FLAGS)
        assert proc.returncode == cli.EXIT_INGESTION
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["mine", "gen"])
    def test_closed_stdout_exits_3_without_a_traceback(self, basket_path,
                                                       command):
        if command == "mine":
            args = ["mine", "--input", str(basket_path), "--output", "csv"] \
                + PAPER_FLAGS
        else:
            # More than the stream's 8 KiB buffer, so the write itself
            # fails, not only the flush after it.
            args = ["gen", "--transactions", "5000", "--output", "-"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_entry_point(args, stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == cli.EXIT_INGESTION
        assert proc.stderr.startswith("error: cannot write standard output: ")
        assert proc.stderr.count("\n") == 1
