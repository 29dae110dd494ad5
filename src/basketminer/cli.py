"""Command-line interface: ``mine`` and ``gen`` subcommands.

``mine`` renders a ``RuleSet``'s decoded rows itself: the table prints
whole percents (a half rounded up), CSV and JSON print exact ratios in
lowest terms, and JSON adds the nearest float. Each renderer returns the
whole report as one string, but joins its lines ``LINES_PER_BATCH`` at a
time, so that one batch of line strings is alive at once; the table takes
its column widths first, in a pass that keeps no text.

Exit codes: 0 success, 2 bad flags or config, 3 unreadable input or
unwritable output (a closed standard output included), 4 guard refusal
(brute force over more than 20 items, or past 2^22 subset tests).

Every ``basketminer`` run is a fresh process, so the module imports at its
top only what a ``mine`` run with Apriori needs. ``oracle`` (with
``random``) is imported by ``gen`` and ``--algorithm bruteforce``, ``json``
by the JSON report, and ``csv`` by a CSV field that needs quoting.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import islice

from .apriori import apriori_mine
from .core import (
    FrequentItemset,
    GuardError,
    IngestionError,
    MiningError,
    MiningParams,
    TransactionDb,
    exact_fraction,
    filter_min_items,
    ingest_basket,
    ingest_tid_pairs,
    read_lines,
    to_basket_text,
)
from .rules import RuleSet, generate_rules

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INGESTION = 3
EXIT_GUARD = 4


def brute_force_mine(db: TransactionDb,
                     params: MiningParams) -> list[FrequentItemset]:
    """``oracle.brute_force_mine``; ``oracle`` is imported on first use,
    so that a ``mine`` run with Apriori never loads it."""
    from . import oracle
    return oracle.brute_force_mine(db, params)


# Each engine by its ``mine --algorithm`` name. ``apriori_mine`` looks its
# phase functions up on its module at call time, so a caller that replaces
# a phase (as a tracer does) reaches it through this table too.
ENGINES: dict[str, Callable[[TransactionDb, MiningParams],
                            list[FrequentItemset]]] = {
    "apriori": apriori_mine,
    "bruteforce": brute_force_mine,
}

RULE_TABLE_HEADER = ("People who bought this item",
                     "Also bought the following items",
                     "Support", "Confidence")


def fraction_arg(text: str) -> Fraction:
    """Parse a threshold given as a decimal or a ratio, e.g. 0.4 or 2/5."""
    try:
        value = exact_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(
            f"threshold must be in (0, 1], got {text}")
    return value


def int_at_least(minimum: int) -> Callable[[str], int]:
    """A flag parser for integers >= ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


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
    mine.add_argument("--algorithm", choices=tuple(ENGINES), default="apriori",
                      help="mining engine (default apriori)")
    mine.add_argument("--output", choices=("table", "csv", "json"),
                      default="table", help="output format (default table)")
    mine.add_argument("--max-antecedent", type=int_at_least(1), default=None,
                      help="cap on antecedent size")
    mine.add_argument("--min-items", type=int_at_least(1), default=None,
                      help="drop transactions with fewer items")
    mine.add_argument("--show-itemsets", action="store_true",
                      help="also emit the frequent itemsets")
    mine.set_defaults(func=cmd_mine)

    gen = subparsers.add_parser(
        "gen", help="generate a synthetic basket file")
    gen.add_argument("--transactions", type=int_at_least(1), default=100,
                     help="number of baskets to generate (default 100)")
    gen.add_argument("--items", type=int_at_least(1), default=20,
                     help="universe size (default 20)")
    gen.add_argument("--basket-min", type=int_at_least(1), default=1,
                     help="minimum basket size (default 1)")
    gen.add_argument("--basket-max", type=int_at_least(1),
                     help="maximum basket size (default the smaller of 8 "
                          "and --items)")
    gen.add_argument("--pattern", action="append", type=pattern_arg,
                     default=[], metavar="ITEMS:PROB",
                     help='planted pattern, e.g. "milk,bread:0.4"; repeatable')
    gen.add_argument("--seed", type=int_at_least(0), default=0,
                     help="RNG seed (default 0)")
    gen.add_argument("--output", default="-",
                     help="output path, - for stdout (default -)")
    gen.set_defaults(func=cmd_gen)

    return parser


def load_db(path_text: str, file_format: str, skip_header: bool = False,
            min_items: int | None = None) -> TransactionDb:
    """Ingest the file at ``path_text``, streamed through ``read_lines``.

    ``skip_header`` is for the tidpairs format only; with any other format
    it raises ``ValueError`` before the file is opened. A file that cannot
    be opened or read, or that is not UTF-8, raises
    ``IngestionError("cannot read ...")``; a line that fails to parse
    before the first undecodable byte is reported instead.
    """
    if skip_header and file_format != "tidpairs":
        raise ValueError(
            f"--skip-header applies only to --format tidpairs, "
            f"not {file_format}")
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


def whole_percent(part: int, whole: int) -> int:
    """The whole percent of ``part / whole`` for counts ``part >= 0``,
    ``whole > 0``, a half rounded up (4/7 -> 57, 1/200 -> 1)."""
    return (200 * part + whole) // (2 * whole)


def csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a field (QUOTE_MINIMAL);
    text with a comma, quote or line break goes through ``csv`` itself."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        import csv
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


# The renderers join report lines this many at a time, so that one batch
# of line strings is alive at once rather than one string per rule.
LINES_PER_BATCH = 512


def extend_joined(pieces: list[str], lines: Iterable[str],
                  separator: str = "") -> None:
    """Append ``separator.join(lines)`` to ``pieces``, as one piece per
    ``LINES_PER_BATCH`` lines with a ``separator`` piece between two."""
    lines = iter(lines)
    batch = list(islice(lines, LINES_PER_BATCH))
    while batch:
        pieces.append(separator.join(batch))
        batch = list(islice(lines, LINES_PER_BATCH))
        if batch:
            pieces.append(separator)


def extend_table(pieces: list[str], columns: Sequence[str],
                 widths: Sequence[int], rows: Iterable[Sequence[str]]) -> None:
    """Append to ``pieces`` the table of ``rows`` under ``columns``, each
    column as wide as its header or its width in ``widths`` (the longest
    cell in it), whichever is wider, and each line without trailing
    blanks."""
    widths = list(map(max, map(len, columns), widths))
    pieces.append(" | ".join(map(str.ljust, columns, widths)).rstrip())
    pieces.append("\n" + "-+-".join("-" * width for width in widths))
    line = ("\n" + " | ".join(f"{{:<{width}}}" for width in widths)).format
    extend_joined(pieces, (line(*row).rstrip() for row in rows))
    pieces.append("\n")


def rules_as_table(ruleset: RuleSet, db: TransactionDb,
                   frequents: Sequence[FrequentItemset] | None) -> str:
    labels = list(db.dictionary)
    n = ruleset.n_transactions
    itemsets = ruleset.itemsets

    def name(ids: tuple[int, ...]) -> str:
        return ", ".join([labels[i] for i in ids])

    names = Memo(lambda rank: name(itemsets[rank]))
    supports = Memo(lambda union: f"{whole_percent(union, n)}%")
    # The widths pass keeps ints, not text: a percent's text is widest at
    # its highest value.
    antecedents, consequents, unions, confidences = set(), set(), set(), set()
    for antecedent, consequent, union, antecedent_count in ruleset.decoded():
        antecedents.add(antecedent)
        consequents.add(consequent)
        unions.add(union)
        confidences.add(whole_percent(union, antecedent_count))
    widths = [max(map(len, map(names.__getitem__, antecedents)), default=0),
              max(map(len, map(names.__getitem__, consequents)), default=0),
              len(supports[max(unions, default=0)]),
              len(f"{max(confidences, default=0)}%")]
    pieces: list[str] = []
    extend_table(pieces, RULE_TABLE_HEADER, widths, (
        (names[antecedent], names[consequent], supports[union],
         f"{whole_percent(union, antecedent_count)}%")
        for antecedent, consequent, union, antecedent_count
        in ruleset.decoded()))
    if frequents is not None:
        threshold = ruleset.params.absolute_threshold(n)
        pieces.append(f"\nFrequent itemsets (count >= {threshold} of {n}):\n")
        widths = [0, 0, 0]
        if frequents:
            top = max(f.count for f in frequents)
            widths = [max(len(name(f.itemset)) for f in frequents),
                      len(str(top)), len(f"{top}/{n}")]
        extend_table(pieces, ("Itemset", "Count", "Support"), widths, (
            (name(f.itemset), str(f.count), f"{f.count}/{n}")
            for f in frequents))
    return "".join(pieces)


def rules_as_csv(ruleset: RuleSet, db: TransactionDb,
                 frequents: Sequence[FrequentItemset] | None) -> str:
    labels = list(db.dictionary)
    n = ruleset.n_transactions
    itemsets = ruleset.itemsets

    def name(ids: tuple[int, ...]) -> str:
        return csv_field(";".join([labels[i] for i in ids]))

    names = Memo(lambda rank: name(itemsets[rank]))
    supports = Memo(lambda union: ratio_text(union, n))
    pieces = ["antecedent,consequent,support,confidence\n"]
    extend_joined(pieces, (
        f"{names[antecedent]},{names[consequent]},{supports[union]},"
        f"{ratio_text(union, antecedent_count)}\n"
        for antecedent, consequent, union, antecedent_count
        in ruleset.decoded()))
    if frequents is not None:
        pieces.append("\nitemset,count,support\n")
        extend_joined(pieces, (
            f"{name(f.itemset)},{f.count},{supports[f.count]}\n"
            for f in frequents))
    return "".join(pieces)


def json_ratio(part: int, whole: int, indent: str) -> str:
    """The JSON object of ``part / whole``, its lowest terms and nearest
    float, as ``json.dumps(..., indent=2)`` writes it at nesting
    ``indent``."""
    divisor = math.gcd(part, whole)
    return (f'{{\n{indent}  "num": {part // divisor},\n'
            f'{indent}  "den": {whole // divisor},\n'
            f'{indent}  "decimal": {part / whole!r}\n{indent}}}')


def json_array(entries: Sequence[str], indent: str) -> str:
    """A JSON array of already-encoded ``entries``, laid out as
    ``json.dumps(..., indent=2)`` lays it out at nesting ``indent``."""
    if not entries:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(entries) + f"\n{indent}]"


def extend_json_array(pieces: list[str], entries: Iterable[str],
                      empty: bool) -> None:
    """Append to ``pieces`` what ``json_array`` makes of ``entries`` at
    nesting two spaces; ``empty`` says whether there are none."""
    if empty:
        pieces.append("[]")
        return
    pieces.append("[\n    ")
    extend_joined(pieces, entries, ",\n    ")
    pieces.append("\n  ]")


def rules_as_json(ruleset: RuleSet, db: TransactionDb, algorithm: str,
                  frequents: Sequence[FrequentItemset] | None) -> str:
    """The report exactly as ``json.dumps(payload, indent=2)`` writes it,
    built as text so that each distinct label list and support is encoded
    once."""
    import json
    labels = [json.dumps(label) for label in db.dictionary]
    n = ruleset.n_transactions
    itemsets = ruleset.itemsets
    deep = " " * 6

    def name(ids: tuple[int, ...]) -> str:
        return json_array([labels[i] for i in ids], deep)

    names = Memo(lambda rank: name(itemsets[rank]))
    supports = Memo(lambda union: json_ratio(union, n, deep))
    support = ruleset.params.min_support
    confidence = ruleset.params.min_confidence
    pieces = [
        f'{{\n  "n_transactions": {n},\n  "params": {{\n    "min_support": '
        f'{json_ratio(support.numerator, support.denominator, "    ")},\n'
        f'    "min_confidence": '
        f'{json_ratio(confidence.numerator, confidence.denominator, "    ")},\n'
        f'    "algorithm": {json.dumps(algorithm)}\n  }},\n  "rules": ']
    extend_json_array(pieces, (
        f'{{\n{deep}"antecedent": {names[antecedent]},\n'
        f'{deep}"consequent": {names[consequent]},\n'
        f'{deep}"support": {supports[union]},\n'
        f'{deep}"confidence": '
        f'{json_ratio(union, antecedent_count, deep)}\n    }}'
        for antecedent, consequent, union, antecedent_count
        in ruleset.decoded()), not ruleset.rows)
    if frequents is not None:
        pieces.append(',\n  "itemsets": ')
        extend_json_array(pieces, (
            f'{{\n{deep}"items": {name(f.itemset)},\n'
            f'{deep}"count": {f.count},\n'
            f'{deep}"support": {supports[f.count]}\n    }}'
            for f in frequents), not frequents)
    pieces.append("\n}\n")
    return "".join(pieces)


def write_stdout(text: str) -> None:
    """Write ``text`` to standard output and flush it.

    A failed write, such as to a pipe whose reader has gone, raises
    ``IngestionError``. The output descriptor is then pointed at the null
    device, so that the interpreter's own flush at exit finds nothing to
    fail on and prints no "Exception ignored" text.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise IngestionError(f"cannot write standard output: {exc}") from exc


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
    write_stdout(text)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    from .oracle import GeneratorConfig, generate_db
    basket_max = args.basket_max
    if basket_max is None:
        basket_max = min(8, args.items)
    config = GeneratorConfig(
        num_transactions=args.transactions,
        universe_size=args.items,
        basket_size_range=(args.basket_min, basket_max),
        patterns=tuple(args.pattern),
        seed=args.seed)
    db = generate_db(config)
    text = to_basket_text(db)
    if args.output == "-":
        write_stdout(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise IngestionError(f"cannot write {args.output}: {exc}") from exc
    print(f"generated {db.n} transactions over {len(db.dictionary)} distinct "
          f"items (universe {config.universe_size}, seed {config.seed})",
          file=sys.stderr)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
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
