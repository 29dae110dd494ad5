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

from .bench import ENGINES, BenchmarkReport, EngineDisagreementError, benchmark
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
    read_lines,
    to_basket_text,
)
from .oracle import GeneratorConfig, generate_db
from .rules import RuleSet, generate_rules, whole_percent

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INGESTION = 3
EXIT_GUARD = 4
EXIT_DISAGREEMENT = 5

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
        if name not in ENGINES:
            raise argparse.ArgumentTypeError(
                f"unknown algorithm {name!r}; choose from "
                f"{', '.join(ENGINES)}")
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


def add_format_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("basket", "tidpairs"),
                        default="basket", help="input encoding (default basket)")
    parser.add_argument("--skip-header", action="store_true",
                        help="skip the first line of a tidpairs file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basketminer",
        description="Frequent-itemset and association-rule mining over "
                    "market-basket data.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    mine = subparsers.add_parser(
        "mine", help="mine association rules from a transaction file")
    mine.add_argument("--input", required=True, help="transaction file path")
    add_format_flags(mine)
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
                              help="transaction file; omit to use the "
                                   "generator")
    add_format_flags(bench_parser)
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
    """Ingest the file at ``path_text``, streamed through ``read_lines``.

    A file that cannot be opened or read, or that is not UTF-8, raises
    ``IngestionError("cannot read ...")``; a line that fails to parse
    before the first undecodable byte is reported instead.
    """
    try:
        handle = open(path_text, "rb")
    except OSError as exc:
        raise IngestionError(f"cannot read {path_text}: {exc}") from exc
    with handle:
        lines = read_lines(handle)
        try:
            if file_format == "tidpairs":
                db = ingest_tid_pairs(lines, skip_header=skip_header)
            else:
                db = ingest_basket(lines)
        except (OSError, UnicodeError) as exc:
            raise IngestionError(f"cannot read {path_text}: {exc}") from exc
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
    """``format_percent(Fraction(part, whole))`` for counts."""
    return f"{whole_percent(part, whole)}%"


def csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a field (QUOTE_MINIMAL);
    text with a comma, quote or line break goes through ``csv`` itself."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow((text, ""))
        return buffer.getvalue()[:-2]
    return text


class Memo(dict):
    """A dict that fills a missing key with ``make(key)``."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def render_table(columns: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [max(map(len, column)) for column in zip(columns, *rows)]
    line = " | ".join(f"{{:<{width}}}" for width in widths).format
    lines = [line(*columns).rstrip(),
             "-+-".join("-" * width for width in widths)]
    lines += [line(*row).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def rules_as_table(ruleset: RuleSet, db: TransactionDb,
                   frequents: Sequence[FrequentItemset] | None) -> str:
    labels = [item.label for item in db.dictionary]
    n = ruleset.n_transactions
    names = Memo(lambda ids: ", ".join([labels[i] for i in ids]))
    supports = Memo(lambda union: percent_text(union, n))
    rows = [(names[antecedent], names[consequent], supports[-neg_union],
             percent_text(-neg_union, antecedent_count))
            for _, neg_union, antecedent, consequent, antecedent_count
            in ruleset.rows]
    out = render_table(RULE_TABLE_HEADER, rows)
    if frequents is not None:
        threshold = ruleset.params.absolute_threshold(n)
        out += f"\nFrequent itemsets (count >= {threshold} of {n}):\n"
        itemset_rows = [(names[f.itemset], str(f.count), f"{f.count}/{n}")
                        for f in frequents]
        out += render_table(("Itemset", "Count", "Support"), itemset_rows)
    return out


def rules_as_csv(ruleset: RuleSet, db: TransactionDb,
                 frequents: Sequence[FrequentItemset] | None) -> str:
    labels = [item.label for item in db.dictionary]
    n = ruleset.n_transactions
    names = Memo(lambda ids: csv_field(";".join([labels[i] for i in ids])))
    supports = Memo(lambda union: ratio_text(union, n))
    lines = ["antecedent,consequent,support,confidence\n"]
    lines += [f"{names[antecedent]},{names[consequent]},{supports[-neg_union]},"
              f"{ratio_text(-neg_union, antecedent_count)}\n"
              for _, neg_union, antecedent, consequent, antecedent_count
              in ruleset.rows]
    if frequents is not None:
        lines.append("\nitemset,count,support\n")
        lines += [f"{names[f.itemset]},{f.count},{supports[f.count]}\n"
                  for f in frequents]
    return "".join(lines)


def json_ratio(part: int, whole: int, indent: str) -> str:
    """``ratio_object(part, whole)`` as ``json.dumps(..., indent=2)`` writes
    it at nesting ``indent``."""
    value = ratio_object(part, whole)
    return (f'{{\n{indent}  "num": {value["num"]},\n'
            f'{indent}  "den": {value["den"]},\n'
            f'{indent}  "decimal": {value["decimal"]!r}\n{indent}}}')


def json_array(entries: Sequence[str], indent: str) -> str:
    """A JSON array of already-encoded ``entries``, laid out as
    ``json.dumps(..., indent=2)`` lays it out at nesting ``indent``."""
    if not entries:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(entries) + f"\n{indent}]"


def rules_as_json(ruleset: RuleSet, db: TransactionDb, algorithm: str,
                  frequents: Sequence[FrequentItemset] | None) -> str:
    """The report exactly as ``json.dumps(payload, indent=2)`` writes it,
    built as text so that each distinct label list and support is encoded
    once."""
    labels = [json.dumps(item.label) for item in db.dictionary]
    n = ruleset.n_transactions
    deep = " " * 6
    names = Memo(lambda ids: json_array([labels[i] for i in ids], deep))
    supports = Memo(lambda union: json_ratio(union, n, deep))
    rules = [f'{{\n{deep}"antecedent": {names[antecedent]},\n'
             f'{deep}"consequent": {names[consequent]},\n'
             f'{deep}"support": {supports[-neg_union]},\n'
             f'{deep}"confidence": '
             f'{json_ratio(-neg_union, antecedent_count, deep)}\n    }}'
             for _, neg_union, antecedent, consequent, antecedent_count
             in ruleset.rows]
    support = ruleset.params.min_support
    confidence = ruleset.params.min_confidence
    params = (
        f'{{\n    "min_support": '
        f'{json_ratio(support.numerator, support.denominator, "    ")},\n'
        f'    "min_confidence": '
        f'{json_ratio(confidence.numerator, confidence.denominator, "    ")},\n'
        f'    "algorithm": {json.dumps(algorithm)}\n  }}')
    fields = [f'"n_transactions": {n}', f'"params": {params}',
              f'"rules": {json_array(rules, "  ")}']
    if frequents is not None:
        itemsets = [f'{{\n{deep}"items": {names[f.itemset]},\n'
                    f'{deep}"count": {f.count},\n'
                    f'{deep}"support": {supports[f.count]}\n    }}'
                    for f in frequents]
        fields.append(f'"itemsets": {json_array(itemsets, "  ")}')
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


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
        db = load_db(args.input, args.format, skip_header=args.skip_header)
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
