"""Independent reference miner and the output check built on it.

The miner reads the workload file itself and mines it depth-first over
vertical bitsets: each item's cover is a Python int with bit t set when
transaction t holds the item, and the support of an itemset is the
popcount of the AND of its covers. Rule confidence is tested with
integer cross-multiplication. It imports nothing from ``basketminer``,
so it stays a check on the engines, ``rules`` and the renderers.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

Labels = tuple[str, ...]
# (antecedent, consequent, union count, antecedent count); sides sorted.
Rule = tuple[Labels, Labels, int, int]


def read_transactions(path: Path, file_format: str,
                      skip_header: bool) -> list[frozenset[str]]:
    """Transactions as label sets, in the file's order."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if file_format == "tidpairs":
        groups: dict[str, set[str]] = {}
        for number, line in enumerate(lines):
            if (skip_header and number == 0) or not line.strip():
                continue
            tid, item = line.split(",")
            groups.setdefault(tid.strip(), set()).add(item.strip())
        return [frozenset(items) for items in groups.values()]
    return [frozenset(part.strip() for part in line.split(","))
            for line in lines
            if line.strip() and not line.strip().startswith("#")]


def covers(transactions: list[frozenset[str]]) -> dict[str, int]:
    """Each label's cover as an int bitset over transaction positions."""
    rows: dict[str, bytearray] = {}
    size = len(transactions) // 8 + 1
    for position, items in enumerate(transactions):
        byte, bit = position >> 3, 1 << (position & 7)
        for item in items:
            row = rows.get(item)
            if row is None:
                row = rows[item] = bytearray(size)
            row[byte] |= bit
    return {item: int.from_bytes(row, "little") for item, row in rows.items()}


def frequent_itemsets(transactions: list[frozenset[str]],
                      min_support: Fraction) -> dict[Labels, int]:
    """Every itemset (sorted labels) with count >= ceil(min_support * N)."""
    n = len(transactions)
    threshold = max(1, -(-min_support.numerator * n // min_support.denominator))
    result: dict[Labels, int] = {}

    def grow(prefix: Labels, extensions: list[tuple[str, int, int]]) -> None:
        for index, (item, cover, count) in enumerate(extensions):
            itemset = prefix + (item,)
            result[itemset] = count
            deeper = []
            for other, other_cover, _ in extensions[index + 1:]:
                joint = cover & other_cover
                joint_count = joint.bit_count()
                if joint_count >= threshold:
                    deeper.append((other, joint, joint_count))
            if deeper:
                grow(itemset, deeper)

    singles = [(item, cover, cover.bit_count())
               for item, cover in sorted(covers(transactions).items())]
    grow((), [single for single in singles if single[2] >= threshold])
    return result


def rules(itemsets: dict[Labels, int], min_confidence: Fraction,
          max_antecedent: int | None = None) -> set[Rule]:
    """Every split X -> Z \\ X with count(Z) / count(X) >= min_confidence."""
    num, den = min_confidence.numerator, min_confidence.denominator
    found = set()
    for z, union in itemsets.items():
        largest = len(z) - 1
        if max_antecedent is not None:
            largest = min(largest, max_antecedent)
        for size in range(1, largest + 1):
            for antecedent in combinations(z, size):
                count = itemsets[antecedent]
                if union * den >= num * count:
                    consequent = tuple(i for i in z if i not in antecedent)
                    found.add((antecedent, consequent, union, count))
    return found


@dataclass(frozen=True)
class Expected:
    n: int
    itemsets: dict[Labels, int]
    rules: set[Rule]


def expected(path: Path, file_format: str, skip_header: bool,
             min_support: Fraction, min_confidence: Fraction) -> Expected:
    transactions = read_transactions(path, file_format, skip_header)
    itemsets = frequent_itemsets(transactions, min_support)
    return Expected(len(transactions), itemsets,
                    rules(itemsets, min_confidence))


def _side(text_or_list) -> Labels:
    parts = text_or_list.split(";") if isinstance(text_or_list, str) else text_or_list
    return tuple(sorted(parts))


def _rule(antecedent: Labels, consequent: Labels, support: Fraction,
          confidence: Fraction, n: int) -> tuple[Rule, Fraction, Fraction]:
    union = support * n
    if union.denominator != 1:
        raise ValueError(f"support {support} is not a count over N={n}")
    antecedent_count = union / confidence
    if antecedent_count.denominator != 1:
        raise ValueError(f"confidence {confidence} does not fit counts")
    return ((antecedent, consequent, int(union), int(antecedent_count)),
            confidence, support)


def parse_output(text: str, output: str, n: int
                 ) -> tuple[list[tuple[Rule, Fraction, Fraction]], dict[Labels, int] | None]:
    """The rules (in printed order) and, if printed, the itemsets."""
    if output == "json":
        payload = json.loads(text)
        if payload["n_transactions"] != n:
            raise ValueError(f"n_transactions {payload['n_transactions']} != {n}")
        parsed = [_rule(_side(r["antecedent"]), _side(r["consequent"]),
                        Fraction(r["support"]["num"], r["support"]["den"]),
                        Fraction(r["confidence"]["num"], r["confidence"]["den"]),
                        n)
                  for r in payload["rules"]]
        itemsets = None
        if "itemsets" in payload:
            itemsets = {_side(s["items"]): s["count"] for s in payload["itemsets"]}
        return parsed, itemsets
    if output != "csv":
        raise ValueError(f"cannot check output format {output!r}")
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["antecedent", "consequent", "support", "confidence"]:
        raise ValueError(f"unexpected CSV header {rows[0]}")
    parsed, itemsets, section = [], None, "rules"
    for row in rows[1:]:
        if not row:
            section, itemsets = "header", {}
        elif section == "header":
            section = "itemsets"
        elif section == "itemsets":
            itemsets[_side(row[0])] = int(row[1])
        else:
            parsed.append(_rule(_side(row[0]), _side(row[1]), Fraction(row[2]),
                                Fraction(row[3]), n))
    return parsed, itemsets


def check_output(text: str, output: str, want: Expected) -> list[str]:
    """Problems found in one ``mine`` stdout; empty when it is correct.

    Checks the rule and itemset counts, the exact rule set (labels,
    support, confidence), the itemsets when printed, and that rules come
    in non-increasing (confidence, support) order.
    """
    try:
        parsed, itemsets = parse_output(text, output, want.n)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable output: {exc}"]
    problems = []
    got_rules = [rule for rule, _, _ in parsed]
    if len(got_rules) != len(want.rules):
        problems.append(f"rule count {len(got_rules)} != {len(want.rules)}")
    if set(got_rules) != want.rules or len(set(got_rules)) != len(got_rules):
        problems.append("rule set differs from the reference")
    keys = [(-confidence, -support) for _, confidence, support in parsed]
    if keys != sorted(keys):
        problems.append("rules are not in descending (confidence, support) order")
    if itemsets is not None:
        if len(itemsets) != len(want.itemsets):
            problems.append(
                f"itemset count {len(itemsets)} != {len(want.itemsets)}")
        if itemsets != want.itemsets:
            problems.append("itemsets differ from the reference")
    return problems
