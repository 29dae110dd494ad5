"""Command-line interface: ``mine``, ``gen``, and ``bench`` subcommands.

Exit codes: 0 success, 2 bad flags or config, 3 ingestion failure,
4 guard refusal (brute force on an oversized universe), 5 engine
disagreement during a benchmark.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

from .apriori import apriori_mine
from .bench import ALGORITHMS, BenchmarkReport, EngineDisagreementError, benchmark
from .core import (
    ConfigError,
    FrequentItemset,
    GuardError,
    IngestionError,
    MiningError,
    MiningParams,
    TransactionDb,
    filter_min_items,
    ingest_basket,
    ingest_tid_pairs,
    to_basket_text,
)
from .fpgrowth import mine as fpgrowth_mine
from .oracle import GeneratorConfig, brute_force_mine, generate_db
from .rules import RuleSet, generate_rules

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INGESTION = 3
EXIT_GUARD = 4
EXIT_DISAGREEMENT = 5

ENGINES: dict[str, Callable[[TransactionDb, MiningParams], list[FrequentItemset]]] = {
    "apriori": apriori_mine,
    "fpgrowth": fpgrowth_mine,
    "bruteforce": brute_force_mine,
}

RULE_TABLE_HEADER = ("People who bought this item",
                     "Also bought the following items",
                     "Support", "Confidence")


def fraction_arg(text: str) -> Fraction:
    """Parse a threshold given as a decimal or a ratio, e.g. 0.4 or 2/5."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(
            f"threshold must be in (0, 1], got {text}")
    return value


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def pattern_arg(text: str) -> tuple[tuple[str, ...], float]:
    """Parse a planted pattern spec of the form ``label,label:prob``."""
    body, sep, prob_text = text.rpartition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"pattern needs a :probability suffix, got {text!r}")
    labels = tuple(part.strip() for part in body.split(","))
    if not all(labels):
        raise argparse.ArgumentTypeError(f"empty item label in {text!r}")
    try:
        probability = float(prob_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"not a probability: {prob_text!r}") from exc
    if not 0 <= probability <= 1:
        raise argparse.ArgumentTypeError(
            f"probability must be in [0, 1], got {prob_text}")
    return labels, probability


def algorithms_arg(text: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    if not names:
        raise argparse.ArgumentTypeError("no algorithms given")
    for name in names:
        if name not in ALGORITHMS:
            raise argparse.ArgumentTypeError(
                f"unknown algorithm {name!r}; choose from "
                f"{', '.join(ALGORITHMS)}")
    return names


def thresholds_arg(text: str) -> tuple[Fraction, ...]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("no thresholds given")
    return tuple(fraction_arg(part) for part in parts)


def add_generator_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--transactions", type=positive_int, default=100,
                        help="number of baskets to generate (default 100)")
    parser.add_argument("--items", type=positive_int, default=20,
                        help="universe size (default 20)")
    parser.add_argument("--basket-min", type=positive_int, default=1,
                        help="minimum basket size (default 1)")
    parser.add_argument("--basket-max", type=positive_int, default=8,
                        help="maximum basket size (default 8)")
    parser.add_argument("--pattern", action="append", type=pattern_arg,
                        default=[], metavar="ITEMS:PROB",
                        help='planted pattern, e.g. "milk,bread:0.4"; '
                             "repeatable")
    parser.add_argument("--seed", type=nonnegative_int, default=0,
                        help="RNG seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basketminer",
        description="Frequent-itemset and association-rule mining over "
                    "market-basket data.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    mine = subparsers.add_parser(
        "mine", help="mine association rules from a transaction file")
    mine.add_argument("--input", required=True, help="transaction file path")
    mine.add_argument("--format", choices=("basket", "tidpairs"),
                      default="basket", help="input encoding (default basket)")
    mine.add_argument("--skip-header", action="store_true",
                      help="skip the first line of a tidpairs file")
    mine.add_argument("--min-support", type=fraction_arg, required=True,
                      help="relative support threshold in (0, 1]")
    mine.add_argument("--min-confidence", type=fraction_arg, required=True,
                      help="confidence threshold in (0, 1]")
    mine.add_argument("--algorithm", choices=tuple(ENGINES), default="fpgrowth",
                      help="mining engine (default fpgrowth)")
    mine.add_argument("--output", choices=("table", "csv", "json"),
                      default="table", help="output format (default table)")
    mine.add_argument("--max-antecedent", type=positive_int, default=None,
                      help="cap on antecedent size")
    mine.add_argument("--min-items", type=positive_int, default=None,
                      help="drop transactions with fewer items")
    mine.add_argument("--show-itemsets", action="store_true",
                      help="also emit the frequent itemsets")
    mine.set_defaults(func=cmd_mine)

    gen = subparsers.add_parser(
        "gen", help="generate a synthetic basket file")
    add_generator_flags(gen)
    gen.add_argument("--output", default="-",
                     help="output path, - for stdout (default -)")
    gen.set_defaults(func=cmd_gen)

    bench_parser = subparsers.add_parser(
        "bench", help="time the engines against each other")
    bench_parser.add_argument("--input", default=None,
                              help="basket file; omit to use the generator")
    add_generator_flags(bench_parser)
    bench_parser.add_argument("--thresholds", type=thresholds_arg,
                              default=thresholds_arg("0.02,0.05,0.1,0.2"),
                              help="comma-separated min-support values "
                                   '(default "0.02,0.05,0.1,0.2")')
    bench_parser.add_argument("--algorithms", type=algorithms_arg,
                              default=("apriori", "fpgrowth"),
                              help='comma-separated engines (default '
                                   '"apriori,fpgrowth")')
    bench_parser.add_argument("--repeat", type=positive_int, default=3,
                              help="runs per pair; the fastest is reported "
                                   "(default 3)")
    bench_parser.add_argument("--output", choices=("table", "json"),
                              default="table",
                              help="output format (default table)")
    bench_parser.set_defaults(func=cmd_bench)
    return parser


def load_db(path_text: str, file_format: str, skip_header: bool = False,
            min_items: int | None = None) -> TransactionDb:
    try:
        text = Path(path_text).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestionError(f"cannot read {path_text}: {exc}") from exc
    lines = text.splitlines()
    if file_format == "tidpairs":
        db = ingest_tid_pairs(lines, skip_header=skip_header)
    else:
        db = ingest_basket(lines)
    if min_items is not None:
        db = filter_min_items(db, min_items)
    return db


def ratio_text(part: int, whole: int) -> str:
    """``str(Fraction(part, whole))`` for counts ``part >= 0``, ``whole > 0``,
    without building the Fraction."""
    divisor = math.gcd(part, whole)
    if divisor == whole:
        return str(part // divisor)
    return f"{part // divisor}/{whole // divisor}"


def ratio_object(part: int, whole: int) -> dict:
    """The JSON form of ``part / whole``: lowest terms and the nearest float."""
    divisor = math.gcd(part, whole)
    return {"num": part // divisor, "den": whole // divisor,
            "decimal": part / whole}


def fraction_object(value: Fraction) -> dict:
    return ratio_object(value.numerator, value.denominator)


def percent_text(part: int, whole: int) -> str:
    """``format_percent(Fraction(part, whole))`` for counts: the whole
    percent, a half rounded up."""
    return f"{(200 * part + whole) // (2 * whole)}%"


def render_table(columns: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(column) for column in columns]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [" | ".join(cell.ljust(width)
                        for cell, width in zip(columns, widths)).rstrip()]
    lines.append("-+-".join("-" * width for width in widths))
    for row in rows:
        lines.append(" | ".join(cell.ljust(width)
                                for cell, width in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def rules_as_table(ruleset: RuleSet, db: TransactionDb,
                   frequents: Sequence[FrequentItemset] | None) -> str:
    labels = [item.label for item in db.dictionary]
    rows = [(", ".join([labels[i] for i in rule.antecedent]),
             ", ".join([labels[i] for i in rule.consequent]),
             percent_text(rule.union_count, rule.n_transactions),
             percent_text(rule.union_count, rule.antecedent_count))
            for rule in ruleset]
    out = render_table(RULE_TABLE_HEADER, rows)
    if frequents is not None:
        threshold = ruleset.params.absolute_threshold(ruleset.n_transactions)
        out += (f"\nFrequent itemsets (count >= {threshold} "
                f"of {ruleset.n_transactions}):\n")
        itemset_rows = [(", ".join([labels[i] for i in f.itemset]),
                         str(f.count),
                         f"{f.count}/{ruleset.n_transactions}")
                        for f in frequents]
        out += render_table(("Itemset", "Count", "Support"), itemset_rows)
    return out


def rules_as_csv(ruleset: RuleSet, db: TransactionDb,
                 frequents: Sequence[FrequentItemset] | None) -> str:
    labels = [item.label for item in db.dictionary]
    n = ruleset.n_transactions
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["antecedent", "consequent", "support", "confidence"])
    writer.writerows([
        ";".join([labels[i] for i in rule.antecedent]),
        ";".join([labels[i] for i in rule.consequent]),
        ratio_text(rule.union_count, n),
        ratio_text(rule.union_count, rule.antecedent_count),
    ] for rule in ruleset)
    if frequents is not None:
        writer.writerow([])
        writer.writerow(["itemset", "count", "support"])
        writer.writerows([
            ";".join([labels[i] for i in frequent.itemset]),
            frequent.count,
            ratio_text(frequent.count, n),
        ] for frequent in frequents)
    return buffer.getvalue()


def rules_as_json(ruleset: RuleSet, db: TransactionDb, algorithm: str,
                  frequents: Sequence[FrequentItemset] | None) -> str:
    labels = [item.label for item in db.dictionary]
    n = ruleset.n_transactions
    payload = {
        "n_transactions": n,
        "params": {
            "min_support": fraction_object(ruleset.params.min_support),
            "min_confidence": fraction_object(ruleset.params.min_confidence),
            "algorithm": algorithm,
        },
        "rules": [
            {
                "antecedent": [labels[i] for i in rule.antecedent],
                "consequent": [labels[i] for i in rule.consequent],
                "support": ratio_object(rule.union_count, n),
                "confidence": ratio_object(rule.union_count,
                                           rule.antecedent_count),
            }
            for rule in ruleset
        ],
    }
    if frequents is not None:
        payload["itemsets"] = [
            {
                "items": [labels[i] for i in frequent.itemset],
                "count": frequent.count,
                "support": ratio_object(frequent.count, n),
            }
            for frequent in frequents
        ]
    return json.dumps(payload, indent=2) + "\n"


def cmd_mine(args: argparse.Namespace) -> int:
    db = load_db(args.input, args.format, skip_header=args.skip_header,
                 min_items=args.min_items)
    params = MiningParams(min_support=args.min_support,
                          min_confidence=args.min_confidence)
    frequents = ENGINES[args.algorithm](db, params)
    ruleset = generate_rules(frequents, db, params,
                             max_antecedent=args.max_antecedent)
    shown = frequents if args.show_itemsets else None
    if args.output == "json":
        text = rules_as_json(ruleset, db, args.algorithm, shown)
    elif args.output == "csv":
        text = rules_as_csv(ruleset, db, shown)
    else:
        text = rules_as_table(ruleset, db, shown)
    sys.stdout.write(text)
    return EXIT_OK


def generator_config(args: argparse.Namespace) -> GeneratorConfig:
    return GeneratorConfig(
        num_transactions=args.transactions,
        universe_size=args.items,
        basket_size_range=(args.basket_min, args.basket_max),
        patterns=tuple(args.pattern),
        seed=args.seed)


def cmd_gen(args: argparse.Namespace) -> int:
    config = generator_config(args)
    db = generate_db(config)
    text = to_basket_text(db)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise IngestionError(f"cannot write {args.output}: {exc}") from exc
    print(f"generated {db.n} transactions over {len(db.dictionary)} distinct "
          f"items (universe {config.universe_size}, seed {config.seed})",
          file=sys.stderr)
    return EXIT_OK


def bench_as_table(report: BenchmarkReport) -> str:
    columns = ("algorithm", "min_support", "abs", "build_s", "mine_s",
               "total_s", "peak", "itemsets")
    rows = [(run.algorithm,
             f"{float(run.threshold):g}",
             str(run.absolute_threshold),
             f"{run.build_seconds:.6f}",
             f"{run.mine_seconds:.6f}",
             f"{run.total_seconds:.6f}",
             str(run.peak_structure),
             str(run.frequent_itemsets))
            for run in report.runs]
    header = (f"dataset: {report.dataset}\n"
              f"repeat: {report.repeat} (fastest run reported)\n")
    return header + render_table(columns, rows)


def bench_as_json(report: BenchmarkReport) -> str:
    payload = {
        "dataset": report.dataset,
        "repeat": report.repeat,
        "runs": [
            {
                "algorithm": run.algorithm,
                "min_support": fraction_object(run.threshold),
                "absolute_threshold": run.absolute_threshold,
                "build_seconds": run.build_seconds,
                "mine_seconds": run.mine_seconds,
                "total_seconds": run.total_seconds,
                "peak_structure": run.peak_structure,
                "frequent_itemsets": run.frequent_itemsets,
            }
            for run in report.runs
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def cmd_bench(args: argparse.Namespace) -> int:
    if args.input is not None:
        db = load_db(args.input, "basket")
        dataset = f"{args.input} (N={db.n}, items={len(db.dictionary)})"
    else:
        config = generator_config(args)
        db = generate_db(config)
        dataset = (f"generated seed={config.seed} (N={db.n}, "
                   f"items={len(db.dictionary)})")
    report = benchmark(db, args.thresholds, args.algorithms, args.repeat,
                       dataset)
    if args.output == "json":
        sys.stdout.write(bench_as_json(report))
    else:
        sys.stdout.write(bench_as_table(report))
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineDisagreementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IngestionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INGESTION
    except (MiningError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
