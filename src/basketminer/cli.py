"""Command-line interface: ``mine`` and ``gen`` subcommands.

``mine`` renders a ``RuleSet``'s decoded rows itself: the table prints
whole percents (a half rounded up), CSV and JSON print exact ratios in
lowest terms, and JSON adds the nearest float. A generator per format
(``rule_table_pieces``, ``rule_csv_pieces``, ``rule_json_pieces``) makes
the report one piece per line (a JSON array entry with the separator in
front of it), and ``mine`` hands its pieces to ``write_stdout``, which
writes them in slices as they come: the report is never held whole. The
table takes its column widths first, in a pass that keeps no text.

For library callers, ``rules_as_table``, ``rules_as_csv`` and
``rules_as_json`` return the whole report as one string. ``concatenated``
appends the pieces to one string, which CPython grows in place, instead of
joining them, so that the report is held once. Under a trace function
CPython copies the string on each append instead, so the pieces are
gathered until they exceed 1/32 of the text and the copying stays linear.

Exit codes: 0 success, 2 bad flags or config, 3 unreadable input or
unwritable output (a closed standard output, or one whose encoding lacks
a character of the report, included), 4 guard refusal
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
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction

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
                     help="maximum basket size (default the larger of 8 "
                          "and --basket-min, at most --items)")
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


def concatenated(pieces: Iterable[str]) -> str:
    """``"".join(pieces)``, built by appending to one local string.

    CPython grows a string in place when one local alone refers to it, so
    the pieces and their concatenation are never all alive at once, as
    they are under ``join``. Under a trace function (a debugger, or
    coverage on 3.11) each append copies the string instead; the pieces
    are therefore gathered until they exceed 1/32 of the text so far, so
    that even then the copies add up to about 33 times the text's length,
    not one copy of the text per piece.
    """
    text = ""
    gathered: list[str] = []
    size = 0
    for piece in pieces:
        gathered.append(piece)
        size += len(piece)
        if size << 5 > len(text):
            chunk = "".join(gathered)
            gathered.clear()
            size = 0
            # Last in its block: 3.13 fuses a store with a load right after
            # it into one instruction, and that append then copies.
            text += chunk
    # Appended, not returned as ``text + ...``: that would copy the whole
    # text once more; under ``if``, so that ``return`` starts a new block.
    if gathered:
        text += "".join(gathered)
    return text


def table_pieces(columns: Sequence[str], widths: Sequence[int],
                 rows: Iterable[Sequence[str]]) -> Iterator[str]:
    """The table of ``rows`` under ``columns``, each column as wide as its
    header or its width in ``widths`` (the longest cell in it), whichever
    is wider, and each line without trailing blanks."""
    widths = list(map(max, map(len, columns), widths))
    yield " | ".join(map(str.ljust, columns, widths)).rstrip()
    yield "\n" + "-+-".join("-" * width for width in widths)
    line = ("\n" + " | ".join(f"{{:<{width}}}" for width in widths)).format
    for row in rows:
        yield line(*row).rstrip()
    yield "\n"


def rule_table_pieces(ruleset: RuleSet, db: TransactionDb,
                      frequents: Sequence[FrequentItemset] | None
                      ) -> Iterator[str]:
    """The pieces of ``rules_as_table``."""
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
    yield from table_pieces(RULE_TABLE_HEADER, widths, (
        (names[antecedent], names[consequent], supports[union],
         f"{whole_percent(union, antecedent_count)}%")
        for antecedent, consequent, union, antecedent_count
        in ruleset.decoded()))
    if frequents is not None:
        threshold = ruleset.params.absolute_threshold(n)
        yield f"\nFrequent itemsets (count >= {threshold} of {n}):\n"
        widths = [0, 0, 0]
        if frequents:
            top = max(f.count for f in frequents)
            widths = [max(len(name(f.itemset)) for f in frequents),
                      len(str(top)), len(f"{top}/{n}")]
        yield from table_pieces(("Itemset", "Count", "Support"), widths, (
            (name(f.itemset), str(f.count), f"{f.count}/{n}")
            for f in frequents))


def rules_as_table(ruleset: RuleSet, db: TransactionDb,
                   frequents: Sequence[FrequentItemset] | None) -> str:
    return concatenated(rule_table_pieces(ruleset, db, frequents))


def rule_csv_pieces(ruleset: RuleSet, db: TransactionDb,
                    frequents: Sequence[FrequentItemset] | None
                    ) -> Iterator[str]:
    """The pieces of ``rules_as_csv``."""
    labels = list(db.dictionary)
    n = ruleset.n_transactions
    itemsets = ruleset.itemsets

    def name(ids: tuple[int, ...]) -> str:
        return csv_field(";".join([labels[i] for i in ids]))

    names = Memo(lambda rank: name(itemsets[rank]))
    supports = Memo(lambda union: ratio_text(union, n))
    yield "antecedent,consequent,support,confidence\n"
    for antecedent, consequent, union, antecedent_count in ruleset.decoded():
        yield (f"{names[antecedent]},{names[consequent]},{supports[union]},"
               f"{ratio_text(union, antecedent_count)}\n")
    if frequents is not None:
        yield "\nitemset,count,support\n"
        for f in frequents:
            yield f"{name(f.itemset)},{f.count},{supports[f.count]}\n"


def rules_as_csv(ruleset: RuleSet, db: TransactionDb,
                 frequents: Sequence[FrequentItemset] | None) -> str:
    return concatenated(rule_csv_pieces(ruleset, db, frequents))


def json_ratio(part: int, whole: int, indent: str) -> str:
    """The JSON object of ``part / whole``, its lowest terms and nearest
    float, as ``json.dumps(..., indent=2)`` writes it at nesting
    ``indent``."""
    divisor = math.gcd(part, whole)
    return (f'{{\n{indent}  "num": {part // divisor},\n'
            f'{indent}  "den": {whole // divisor},\n'
            f'{indent}  "decimal": {part / whole!r}\n{indent}}}')


def json_array(entries: Iterable[str], indent: str) -> Iterator[str]:
    """A JSON array of already-encoded ``entries``, laid out as
    ``json.dumps(..., indent=2)`` lays it out at nesting ``indent``, one
    piece per entry with the separator in front of it."""
    entries = iter(entries)
    first = next(entries, None)
    if first is None:
        yield "[]"
        return
    inner = indent + "  "
    yield f"[\n{inner}" + first
    for entry in entries:
        yield f",\n{inner}" + entry
    yield f"\n{indent}]"


def rule_json_pieces(ruleset: RuleSet, db: TransactionDb, algorithm: str,
                     frequents: Sequence[FrequentItemset] | None
                     ) -> Iterator[str]:
    """The pieces of ``rules_as_json``."""
    import json
    labels = [json.dumps(label) for label in db.dictionary]
    n = ruleset.n_transactions
    itemsets = ruleset.itemsets
    deep = " " * 6

    def name(ids: tuple[int, ...]) -> str:
        return "".join(json_array([labels[i] for i in ids], deep))

    names = Memo(lambda rank: name(itemsets[rank]))
    supports = Memo(lambda union: json_ratio(union, n, deep))
    support = ruleset.params.min_support
    confidence = ruleset.params.min_confidence
    yield (
        f'{{\n  "n_transactions": {n},\n  "params": {{\n    "min_support": '
        f'{json_ratio(support.numerator, support.denominator, "    ")},\n'
        f'    "min_confidence": '
        f'{json_ratio(confidence.numerator, confidence.denominator, "    ")},\n'
        f'    "algorithm": {json.dumps(algorithm)}\n  }},\n  "rules": ')
    yield from json_array((
        f'{{\n{deep}"antecedent": {names[antecedent]},\n'
        f'{deep}"consequent": {names[consequent]},\n'
        f'{deep}"support": {supports[union]},\n'
        f'{deep}"confidence": '
        f'{json_ratio(union, antecedent_count, deep)}\n    }}'
        for antecedent, consequent, union, antecedent_count
        in ruleset.decoded()), "  ")
    if frequents is not None:
        yield ',\n  "itemsets": '
        yield from json_array((
            f'{{\n{deep}"items": {name(f.itemset)},\n'
            f'{deep}"count": {f.count},\n'
            f'{deep}"support": {supports[f.count]}\n    }}'
            for f in frequents), "  ")
    yield "\n}\n"


def rules_as_json(ruleset: RuleSet, db: TransactionDb, algorithm: str,
                  frequents: Sequence[FrequentItemset] | None) -> str:
    """The report exactly as ``json.dumps(payload, indent=2)`` writes it,
    built as text so that each distinct label list and support is encoded
    once."""
    return concatenated(rule_json_pieces(ruleset, db, algorithm, frequents))


# write_stdout encodes and writes this many characters at a time, so that
# it never holds the encoding of the whole text beside the text.
_WRITE_CHUNK = 1 << 16


def write_stdout(pieces: Iterable[str]) -> None:
    """Write the text that ``pieces`` make up to standard output and flush
    it.

    The pieces are gathered until they hold ``_WRITE_CHUNK`` characters or
    more; each whole slice of ``_WRITE_CHUNK`` characters is then written
    and the rest carried to the next, so that the slices fall at the same
    offsets however the text is cut into pieces, and only the last is
    short. Gathering also keeps a small piece, such as a CSV header, from
    being a ``write`` of its own. Each slice is encoded with the stream's
    encoding and error handler and written to its binary buffer until
    every byte is taken. Unbuffered (``PYTHONUNBUFFERED`` or ``-u``), that
    buffer is the raw file, whose write may take only part of a slice, as
    when a pipe's reader leaves mid-write; the text layer would drop the
    rest unreported. A stream with no binary buffer, such as an
    ``io.StringIO``, is handed the slices as text.

    A failed write, such as to a pipe whose reader has gone or of a
    character the stream's encoding lacks, raises ``IngestionError``; the
    slices before it may have been written. The output descriptor is then
    pointed at the null device, so that the interpreter's own flush at
    exit finds nothing to fail on and prints no "Exception ignored" text.
    """
    stream = sys.stdout
    binary = getattr(stream, "buffer", None)
    try:
        if binary is None:
            write = stream.write
        else:
            stream.flush()
            encoding, errors = stream.encoding, stream.errors

            def write(text: str) -> None:
                data = memoryview(text.encode(encoding, errors))
                while data:
                    data = data[binary.write(data):]
        gathered: list[str] = []
        size = 0
        for piece in pieces:
            gathered.append(piece)
            size += len(piece)
            if size >= _WRITE_CHUNK:
                text = "".join(gathered)
                end = size - size % _WRITE_CHUNK
                for start in range(0, end, _WRITE_CHUNK):
                    write(text[start:start + _WRITE_CHUNK])
                gathered = [text[end:]]
                size -= end
        if size:
            write("".join(gathered))
        stream.flush()
    except (OSError, UnicodeEncodeError) as exc:
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
        pieces = rule_json_pieces(ruleset, db, args.algorithm, shown)
    elif args.output == "csv":
        pieces = rule_csv_pieces(ruleset, db, shown)
    else:
        pieces = rule_table_pieces(ruleset, db, shown)
    write_stdout(pieces)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    from .oracle import GeneratorConfig, generate_db
    basket_max = args.basket_max
    if basket_max is None:
        basket_max = min(max(8, args.basket_min), args.items)
    config = GeneratorConfig(
        num_transactions=args.transactions,
        universe_size=args.items,
        basket_size_range=(args.basket_min, basket_max),
        patterns=tuple(args.pattern),
        seed=args.seed)
    db = generate_db(config)
    text = to_basket_text(db)
    if args.output == "-":
        write_stdout((text,))
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
