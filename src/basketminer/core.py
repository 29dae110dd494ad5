"""Domain model: items, itemsets, transaction databases, and ingestion.

An itemset is represented as a plain tuple of interned item ids, strictly
ascending and duplicate-free. Canonical tuples are hashable, compare
lexicographically, and serve as dict keys throughout the mining engines.

Two ingestion formats are supported:

* basket: one transaction per line, items comma-separated, ``#`` comments
  and blank lines ignored, no quoting (labels cannot contain commas);
* tid-pairs: CSV rows of exactly ``tid,item_label``, grouped by tid.

Ingestion takes any iterable of lines. ``read_lines`` streams them from a
UTF-8 file in fixed-size chunks, split as ``str.splitlines`` splits, so a
file is never held whole. Both parsers keep a dict from each raw field to
its item id in front of ``ItemDictionary.intern``, so only a field not seen
before is trimmed and interned, and they build the ``TransactionDb``
through a constructor that skips the validation their own canonical
output cannot fail.

All thresholds and scores are exact rationals (``fractions.Fraction``),
never floats, so results are bit-reproducible across engines and runs.
"""

from __future__ import annotations

import codecs
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import BinaryIO, Iterable, Iterator

ItemSet = tuple[int, ...]


class MiningError(Exception):
    """Base class for every error raised by this package."""


class IngestionError(MiningError):
    """Malformed input data; carries the 1-based line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EmptyInputError(IngestionError):
    """Input contained no usable transactions."""


class DomainError(MiningError):
    """A value is outside the domain of the operation (unknown id, N = 0)."""


class ContractViolationError(MiningError):
    """A caller broke an explicit precondition of an engine operation."""


class GuardError(MiningError):
    """A safety guard tripped (e.g. brute-force enumeration too large)."""


class ConfigError(MiningError):
    """Invalid synthetic-generator configuration."""


class InternalConsistencyError(MiningError):
    """Mined results are internally inconsistent (indicates an engine bug)."""


def itemset(ids: Iterable[int]) -> ItemSet:
    """Canonicalize ``ids`` into a sorted duplicate-free itemset tuple."""
    return tuple(sorted(set(ids)))


@dataclass(frozen=True, slots=True)
class Item:
    """An interned item: dense non-negative id plus its trimmed label."""

    id: int
    label: str


class ItemDictionary:
    """Bijective label <-> id registry; ids are dense, in first-appearance order."""

    def __init__(self) -> None:
        self._items: list[Item] = []
        self._by_label: dict[str, Item] = {}

    def intern(self, label: str) -> Item:
        """Return the item for ``label``, registering it with the next id if new.

        The label is whitespace-trimmed; comparison is exact and
        case-sensitive. Raises ValueError if the label is empty after
        trimming.
        """
        label = label.strip()
        if not label:
            raise ValueError("item label is empty after trimming")
        item = self._by_label.get(label)
        if item is None:
            item = Item(len(self._items), label)
            self._items.append(item)
            self._by_label[label] = item
        return item

    def id_of(self, label: str) -> int:
        try:
            return self._by_label[label.strip()].id
        except KeyError:
            raise DomainError(f"unknown item label: {label!r}") from None

    def label_of(self, item_id: int) -> str:
        if not 0 <= item_id < len(self._items):
            raise DomainError(f"unknown item id: {item_id}")
        return self._items[item_id].label

    def labels(self, ids: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.label_of(i) for i in ids)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items)

    def __contains__(self, label: str) -> bool:
        return label.strip() in self._by_label

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ItemDictionary):
            return NotImplemented
        return self._items == other._items

    def __repr__(self) -> str:
        return f"ItemDictionary({len(self._items)} items)"


@dataclass(frozen=True)
class TransactionDb:
    """Immutable corpus of canonical transactions plus the item dictionary.

    Safe for concurrent reads; all mining engines treat it as read-only.
    """

    transactions: tuple[ItemSet, ...]
    dictionary: ItemDictionary

    def __post_init__(self) -> None:
        n_items = len(self.dictionary)
        for t in self.transactions:
            if any(a >= b for a, b in zip(t, t[1:])):
                raise ValueError(f"transaction {t} is not strictly ascending")
            if t and (t[0] < 0 or t[-1] >= n_items):
                raise DomainError(f"transaction {t} references an unknown item id")

    @classmethod
    def _trusted(cls, transactions: tuple[ItemSet, ...],
                 dictionary: ItemDictionary) -> TransactionDb:
        """Build without ``__post_init__``'s check, for callers whose
        transactions are canonical and drawn from ``dictionary`` by
        construction."""
        db = cls.__new__(cls)
        object.__setattr__(db, "transactions", transactions)
        object.__setattr__(db, "dictionary", dictionary)
        return db

    @property
    def n(self) -> int:
        """Number of transactions."""
        return len(self.transactions)

    @cached_property
    def transaction_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(t) for t in self.transactions)

    def item_frequencies(self) -> Counter[int]:
        """Per-item occurrence counts (one per containing transaction)."""
        return Counter(chain.from_iterable(self.transactions))

    def __repr__(self) -> str:
        return f"TransactionDb(n={self.n}, items={len(self.dictionary)})"


def _exact(value) -> Fraction:
    """``Fraction(value)``, taking a float through its shortest round-trip
    decimal."""
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(value)


@dataclass(frozen=True)
class MiningParams:
    """Mining thresholds: relative minimum support and minimum confidence.

    Both fractions must lie in (0, 1]. Values are normalized to exact
    ``Fraction``s; a float becomes the decimal its ``repr`` prints (0.1 is
    1/10, not the binary value just above it), and strings like ``"3/7"``
    or ``"0.05"`` parse exactly. Engines read only ``min_support``, through
    ``absolute_threshold``, and mine every frequent itemset whatever its
    size; ``min_confidence`` is for rule generation.
    """

    min_support: Fraction
    min_confidence: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "min_support", _exact(self.min_support))
        object.__setattr__(self, "min_confidence", _exact(self.min_confidence))
        if not 0 < self.min_support <= 1:
            raise ValueError(f"min_support must be in (0, 1], got {self.min_support}")
        if not 0 < self.min_confidence <= 1:
            raise ValueError(f"min_confidence must be in (0, 1], got {self.min_confidence}")

    def absolute_threshold(self, n_transactions: int) -> int:
        """Absolute support-count threshold: ceil(min_support * N), >= 1.

        Computed in exact rational arithmetic, so there is no float
        boundary ambiguity: an itemset is frequent iff count >= threshold.
        """
        return max(1, math.ceil(self.min_support * n_transactions))


@dataclass(frozen=True)
class FrequentItemset:
    """A non-empty itemset with its exact support count."""

    itemset: ItemSet
    count: int

    def __post_init__(self) -> None:
        if not self.itemset:
            raise ValueError("frequent itemset must be non-empty")
        if self.count < 1:
            raise ValueError("support count must be positive")


@dataclass(frozen=True)
class AssociationRule:
    """A rule antecedent -> consequent with exact support and confidence.

    ``support`` is union_count / N and ``confidence`` is
    union_count / antecedent_count, both exact rationals. Since
    antecedent_count <= N, confidence >= support always holds.
    """

    antecedent: ItemSet
    consequent: ItemSet
    union_count: int
    antecedent_count: int
    n_transactions: int

    def __post_init__(self) -> None:
        if not self.antecedent or not self.consequent:
            raise ValueError("antecedent and consequent must be non-empty")
        if set(self.antecedent) & set(self.consequent):
            raise ValueError("antecedent and consequent must be disjoint")
        if not 0 < self.union_count <= self.antecedent_count <= self.n_transactions:
            raise ValueError("rule counts violate 0 < union <= antecedent <= N")

    @property
    def support(self) -> Fraction:
        return Fraction(self.union_count, self.n_transactions)

    @property
    def confidence(self) -> Fraction:
        return Fraction(self.union_count, self.antecedent_count)


def support_count(db: TransactionDb, ids: Iterable[int]) -> int:
    """Exact number of transactions containing every id in ``ids``.

    The empty itemset is contained in every transaction, so its count is N.
    Raises DomainError for ids absent from the dictionary.
    """
    needed = frozenset(ids)
    n_items = len(db.dictionary)
    for i in needed:
        if not 0 <= i < n_items:
            raise DomainError(f"unknown item id: {i}")
    if not needed:
        return db.n
    return sum(1 for t in db.transaction_sets if needed <= t)


_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK = re.compile(f"[{_LINE_BREAKS}]")
_CHUNK = 1 << 16  # bytes asked of the stream per read


def read_lines(stream: BinaryIO) -> Iterator[str]:
    """Yield the lines of the UTF-8 byte ``stream`` exactly as
    ``text.splitlines()`` splits its whole decoded text.

    The stream is read up to ``_CHUNK`` bytes at a time (a read may return
    fewer), so memory stays at one chunk plus the longest line. The last
    line of each chunk is carried into the next, with its break if it has
    one, so a line, a ``\\r\\n`` or a multi-byte character split between
    chunks is read whole; a line is split once, however many chunks it
    spans. Bytes that are not UTF-8 raise ``UnicodeError``, worded as
    decoding the whole stream at once would word it; every line that ends
    before them is yielded first.

    ``io.TextIOWrapper(stream, "utf-8", newline="")`` iterated by line,
    each line split again, gives the same lines at about three times the
    per-line cost, and on bad bytes it drops the lines before them in its
    buffer.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    carry: list[str] = []  # the unfinished last line, a piece per chunk
    decoded = 0  # bytes given to the decoder before this chunk
    while True:
        chunk = stream.read(_CHUNK)
        pending = len(decoder.getstate()[0])
        try:
            carry.append(decoder.decode(chunk, final=not chunk))
        except UnicodeDecodeError as exc:
            good = exc.object[:exc.start].decode("utf-8")
            # The sentinel ends the unfinished line that holds the bad bytes.
            yield from ("".join(carry) + good + "\0").splitlines()[:-1]
            raise _decode_error(exc, decoded - pending) from None
        decoded += len(chunk)
        if chunk and not _LINE_BREAK.search(carry[-1]):
            continue
        text = "".join(carry)
        lines = text.splitlines()
        if not chunk:
            yield from lines
            return
        carry = []
        if lines:
            last = lines.pop()
            if text[-1] in _LINE_BREAKS:
                last += text[-1]
            carry.append(last)
        yield from lines


def _decode_error(exc: UnicodeDecodeError, offset: int) -> UnicodeError:
    """``exc`` as ``str(UnicodeDecodeError)`` words it, with its positions
    moved on by ``offset`` bytes."""
    start = offset + exc.start
    if exc.end == exc.start + 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{offset + exc.end - 1}"
    return UnicodeError(
        f"'{exc.encoding}' codec can't decode {where}: {exc.reason}")


def _is_comment_or_blank(line: str) -> bool:
    stripped = line.strip()
    return not stripped or stripped.startswith("#")


def _item_id(field: str, ids: dict[str, int], dictionary: ItemDictionary,
             line_number: int) -> int:
    """The id of the raw ``field``; a field not seen before is trimmed,
    interned and cached in ``ids``."""
    item = ids.get(field)
    if item is None:
        label = field.strip()
        if not label:
            raise IngestionError("empty item label", line_number)
        item = ids[field] = dictionary.intern(label).id
    return item


def ingest_basket(lines: Iterable[str]) -> TransactionDb:
    """Parse basket-format lines into a TransactionDb.

    One transaction per non-comment non-blank line; items comma-separated
    and whitespace-trimmed; within-line duplicates collapse to a single
    membership (presence, not quantity).
    """
    dictionary = ItemDictionary()
    ids: dict[str, int] = {}
    known = ids.__getitem__
    transactions: list[ItemSet] = []
    for line_number, raw in enumerate(lines, start=1):
        # Every line is tested: a field seen before may still open a
        # comment, as "#b" does after the line "a,#b".
        if _is_comment_or_blank(raw):
            continue
        fields = raw.split(",")
        try:
            items = set(map(known, fields))
        except KeyError:
            items = {_item_id(field, ids, dictionary, line_number)
                     for field in fields}
        transactions.append(tuple(sorted(items)))
    if not transactions:
        raise EmptyInputError("input contains no transactions")
    return TransactionDb._trusted(tuple(transactions), dictionary)


def ingest_tid_pairs(lines: Iterable[str], skip_header: bool = False) -> TransactionDb:
    """Parse ``tid,item_label`` CSV rows into a TransactionDb.

    Rows are grouped by tid (which need not be contiguous or numeric);
    transaction order follows the first appearance of each tid. Duplicate
    (tid, item) rows collapse to a single membership.
    """
    dictionary = ItemDictionary()
    ids: dict[str, int] = {}
    groups: dict[str, list[int]] = {}  # trimmed tid -> its item ids
    by_raw_tid: dict[str, list[int]] = {}  # raw tid field -> its group
    for line_number, raw in enumerate(lines, start=1):
        parts = raw.split(",")
        if len(parts) == 2:
            group = by_raw_tid.get(parts[0])
            if group is not None:
                # This raw tid opened an accepted row before, so this row
                # is no comment and its tid is valid.
                try:
                    group.append(ids[parts[1]])
                except KeyError:
                    group.append(_item_id(parts[1], ids, dictionary, line_number))
                continue
        if skip_header and line_number == 1:
            continue
        if _is_comment_or_blank(raw):
            continue
        if len(parts) != 2:
            raise IngestionError(
                f"expected exactly 2 fields 'tid,item_label', got {len(parts)}",
                line_number)
        tid = parts[0].strip()
        if not tid:
            raise IngestionError("empty transaction id", line_number)
        item = _item_id(parts[1], ids, dictionary, line_number)
        group = groups.get(tid)
        if group is None:
            group = groups[tid] = []
        by_raw_tid[parts[0]] = group
        group.append(item)
    if not groups:
        raise EmptyInputError("input contains no transactions")
    transactions = tuple(tuple(sorted(set(group))) for group in groups.values())
    return TransactionDb._trusted(transactions, dictionary)


def to_basket_lines(db: TransactionDb) -> list[str]:
    """Render each transaction as a comma-joined label line (id order)."""
    return [",".join(db.dictionary.label_of(i) for i in t) for t in db.transactions]


def to_basket_text(db: TransactionDb) -> str:
    """Serialize to basket format; re-ingesting yields an identical db."""
    return "\n".join(to_basket_lines(db)) + "\n"


def filter_min_items(db: TransactionDb, min_items: int) -> TransactionDb:
    """New db keeping only transactions with at least ``min_items`` items.

    Item ids are re-interned so they stay dense and in first-appearance
    order over the surviving transactions.
    """
    if min_items < 1:
        raise ValueError("min_items must be a positive integer")
    kept = [t for t in db.transactions if len(t) >= min_items]
    if not kept:
        raise EmptyInputError(f"no transactions with at least {min_items} items")
    dictionary = ItemDictionary()
    transactions = []
    for t in kept:
        ids = [dictionary.intern(db.dictionary.label_of(i)).id for i in t]
        transactions.append(tuple(sorted(ids)))
    return TransactionDb._trusted(tuple(transactions), dictionary)
