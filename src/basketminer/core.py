"""Domain model: items, itemsets, transaction databases, and ingestion.

An item is a plain int id, dense and in first-appearance order;
``ItemDictionary`` interns each trimmed label to its id and keeps the
labels in id order, for output. An itemset is a plain tuple of item ids,
strictly ascending and duplicate-free. Canonical tuples are hashable,
compare lexicographically, and serve as dict keys throughout the mining
engines.

Two ingestion formats are supported:

* basket: one transaction per line, items comma-separated, ``#`` comments
  and blank lines ignored, no quoting (labels cannot contain commas);
* tid-pairs: CSV rows of exactly ``tid,item_label``, grouped by tid.

Ingestion takes any iterable of lines. ``read_lines`` streams them from a
UTF-8 file in fixed-size chunks, split as ``str.splitlines`` splits, so a
file is never held whole, and hands each chunk's lines on as one list.
Both parsers keep a dict from each raw field to its item id in front of
``ItemDictionary.intern``, so only a field not seen before is trimmed and
interned; only a line that is empty or opens with ``#`` or a space is
stripped to test it for a comment or a blank; and they build the
``TransactionDb`` through a constructor that skips the validation their
own canonical output cannot fail.

While each new trimmed tid sorts after the one before it, as in a
point-of-sale export listed by ascending receipt id, tid-pairs ingest
keeps no tid map: each tid's rows close into its sorted tuple as its run
ends (sorted in place, and through a ``set`` only if the run repeats an
item), and the tids are kept as comma-joined text. The first tid out of
that order rebuilds the map, one dict from each trimmed tid to its items,
in transaction order; on the map a tid that returns after its run, or a
one-row run, holds a list until the end of the input.

All thresholds and scores are exact rationals (``fractions.Fraction``),
never floats, so results are bit-reproducible across engines and runs.

The package's value classes derive from ``Frozen``: plain ``__slots__``
classes, immutable, compared and hashed by their fields, with the ``repr``
a frozen dataclass would print. They are not dataclasses because
``dataclasses`` imports ``inspect`` (and with it ``ast`` and ``dis``) and
generates its methods at import time, which every ``basketminer``
process would pay at start-up.
"""

from __future__ import annotations

import codecs
import io
import math
import re
from collections import Counter
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import chain
from operator import eq

ItemSet = tuple[int, ...]


class Frozen:
    """Base of the immutable value classes.

    A subclass lists its fields in ``_fields``, in ``__init__`` order, and
    also as ``__slots__``; its ``__init__`` validates them and hands them,
    in that order, to ``Frozen.__init__``, which sets them with
    ``object.__setattr__`` as a frozen dataclass's does. Instances
    equal only instances of their own class with equal fields, hash by
    their fields, refuse assignment and deletion with ``AttributeError``,
    and pickle and copy through ``__init__``, so a copy is validated as
    the original was. ``FrequentItemset`` and ``AssociationRule``, built
    per mined itemset or rule, store their own fields: 0.42-0.51 us an
    object, against 1.0-1.2 us through ``Frozen.__init__`` (Python 3.11,
    2-core x86-64).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self._fields])
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


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


class GuardError(MiningError):
    """A safety guard tripped (e.g. brute-force enumeration too large)."""


class ConfigError(MiningError):
    """Invalid synthetic-generator configuration."""


class InternalConsistencyError(MiningError):
    """Mined results are internally inconsistent (indicates an engine bug)."""


class ItemDictionary:
    """Bijective label <-> id registry; ids are dense, in first-appearance
    order. Iteration yields the labels in id order."""

    def __init__(self) -> None:
        self._labels: list[str] = []
        self._ids: dict[str, int] = {}

    def intern(self, label: str) -> int:
        """Return the id of ``label``, registering it with the next id if new.

        The label is whitespace-trimmed; comparison is exact and
        case-sensitive. Raises ValueError if the label is empty after
        trimming.
        """
        label = label.strip()
        if not label:
            raise ValueError("item label is empty after trimming")
        item_id = self._ids.get(label)
        if item_id is None:
            item_id = self._ids[label] = len(self._labels)
            self._labels.append(label)
        return item_id

    def id_of(self, label: str) -> int:
        try:
            return self._ids[label.strip()]
        except KeyError:
            raise DomainError(f"unknown item label: {label!r}") from None

    def label_of(self, item_id: int) -> str:
        if not 0 <= item_id < len(self._labels):
            raise DomainError(f"unknown item id: {item_id}")
        return self._labels[item_id]

    def labels(self, ids: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.label_of(i) for i in ids)

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    def __contains__(self, label: str) -> bool:
        return label.strip() in self._ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ItemDictionary):
            return NotImplemented
        return self._labels == other._labels

    def __repr__(self) -> str:
        return f"ItemDictionary({len(self._labels)} items)"


class TransactionDb(Frozen):
    """Immutable corpus of canonical transactions plus the item dictionary.

    Safe for concurrent reads; all mining engines treat it as read-only.
    """

    __slots__ = _fields = ("transactions", "dictionary")

    def __init__(self, transactions: tuple[ItemSet, ...],
                 dictionary: ItemDictionary) -> None:
        n_items = len(dictionary)
        for t in transactions:
            if any(a >= b for a, b in zip(t, t[1:])):
                raise ValueError(f"transaction {t} is not strictly ascending")
            if t and (t[0] < 0 or t[-1] >= n_items):
                raise DomainError(f"transaction {t} references an unknown item id")
        super().__init__(transactions, dictionary)

    @classmethod
    def _trusted(cls, transactions: tuple[ItemSet, ...],
                 dictionary: ItemDictionary) -> TransactionDb:
        """Build without ``__init__``'s check, for callers whose
        transactions are canonical and drawn from ``dictionary`` by
        construction."""
        db = cls.__new__(cls)
        Frozen.__init__(db, transactions, dictionary)
        return db

    @property
    def n(self) -> int:
        """Number of transactions."""
        return len(self.transactions)

    def item_frequencies(self) -> Counter[int]:
        """Per-item occurrence counts (one per containing transaction)."""
        return Counter(chain.from_iterable(self.transactions))

    def __repr__(self) -> str:
        return f"TransactionDb(n={self.n}, items={len(self.dictionary)})"


# The most digits a threshold's text, exponent and value may take: CPython's
# default limit on converting an int to or from text, as printing does.
# ``Fraction`` computes 10**exponent exactly: 14.4 s on "1e-10000000".
_MAX_DIGITS = 4300
_EXPONENT = re.compile(r"E[-+]?[0_]*([\d_]*)\s*\Z", re.IGNORECASE)


def exact_fraction(value) -> Fraction:
    """``Fraction(value)``, reading any value but an int or a Fraction as
    its text: a float is the shortest decimal that round-trips. Text that
    does not parse, or that takes more than ``_MAX_DIGITS`` digits, raises
    a ``ValueError`` that names it."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    value = str(value)
    match = _EXPONENT.search(value)
    # Five of its digits, leading zeros gone, make an exponent too big.
    exponent = int(match[1].replace("_", "")[:5] or 0) if match else 0
    if len(value) <= _MAX_DIGITS and exponent <= _MAX_DIGITS:
        try:
            parsed = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a number: {value!r}") from exc
        if max(abs(parsed.numerator), parsed.denominator) < 10 ** _MAX_DIGITS:
            return parsed
    raise ValueError(f"too many digits (over {_MAX_DIGITS}): {value!r}")


class MiningParams(Frozen):
    """Mining thresholds: relative minimum support and minimum confidence.

    Both fractions must lie in (0, 1]. Values are normalized to exact
    ``Fraction``s; a float becomes the decimal its ``repr`` prints (0.1 is
    1/10, not the binary value just above it), and strings like ``"3/7"``
    or ``"0.05"`` parse exactly. Engines read only ``min_support``, through
    ``absolute_threshold``, and mine every frequent itemset whatever its
    size; ``min_confidence`` is for rule generation.
    """

    __slots__ = _fields = ("min_support", "min_confidence")

    def __init__(self, min_support: Fraction | int | float | str,
                 min_confidence: Fraction | int | float | str) -> None:
        min_support = exact_fraction(min_support)
        min_confidence = exact_fraction(min_confidence)
        if not 0 < min_support <= 1:
            raise ValueError(f"min_support must be in (0, 1], got {min_support}")
        if not 0 < min_confidence <= 1:
            raise ValueError(f"min_confidence must be in (0, 1], got {min_confidence}")
        super().__init__(min_support, min_confidence)

    def absolute_threshold(self, n_transactions: int) -> int:
        """Absolute support-count threshold: ceil(min_support * N), >= 1.

        Computed in exact rational arithmetic, so there is no float
        boundary ambiguity: an itemset is frequent iff count >= threshold.
        """
        return max(1, math.ceil(self.min_support * n_transactions))


class FrequentItemset(Frozen):
    """A non-empty itemset with its exact support count."""

    __slots__ = _fields = ("itemset", "count")

    def __init__(self, itemset: ItemSet, count: int) -> None:
        if not itemset:
            raise ValueError("frequent itemset must be non-empty")
        if count < 1:
            raise ValueError("support count must be positive")
        # Stored here, not by ``Frozen.__init__``: one is built per itemset.
        object.__setattr__(self, "itemset", itemset)
        object.__setattr__(self, "count", count)


class AssociationRule(Frozen):
    """A rule antecedent -> consequent with exact support and confidence.

    ``support`` is union_count / N and ``confidence`` is
    union_count / antecedent_count, both exact rationals. Since
    antecedent_count <= N, confidence >= support always holds.
    """

    __slots__ = _fields = ("antecedent", "consequent", "union_count",
                           "antecedent_count", "n_transactions")

    def __init__(self, antecedent: ItemSet, consequent: ItemSet,
                 union_count: int, antecedent_count: int,
                 n_transactions: int) -> None:
        if not antecedent or not consequent:
            raise ValueError("antecedent and consequent must be non-empty")
        if set(antecedent) & set(consequent):
            raise ValueError("antecedent and consequent must be disjoint")
        if not 0 < union_count <= antecedent_count <= n_transactions:
            raise ValueError("rule counts violate 0 < union <= antecedent <= N")
        # Stored here, not by ``Frozen.__init__``: one is built per rule.
        object.__setattr__(self, "antecedent", antecedent)
        object.__setattr__(self, "consequent", consequent)
        object.__setattr__(self, "union_count", union_count)
        object.__setattr__(self, "antecedent_count", antecedent_count)
        object.__setattr__(self, "n_transactions", n_transactions)

    @property
    def support(self) -> Fraction:
        return Fraction(self.union_count, self.n_transactions)

    @property
    def confidence(self) -> Fraction:
        return Fraction(self.union_count, self.antecedent_count)


_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK = re.compile(f"[{_LINE_BREAKS}]")
# A label that basket text cannot hold: it would open a comment, or split
# its field or its line.
_UNWRITABLE = re.compile(f"\\A#|[,{_LINE_BREAKS}]")
_CHUNK = 1 << 16  # bytes asked of the stream per read
_BOM = "\ufeff"  # dropped once at the start of a file, as "utf-8-sig" does


def read_lines(stream: io.BufferedIOBase) -> Iterator[str]:
    """Iterate over the lines of the UTF-8 byte ``stream`` exactly as
    ``text.splitlines()`` splits its whole decoded text, less one byte
    order mark (U+FEFF) at its very start; one anywhere else is kept.

    The stream is read up to ``_CHUNK`` bytes at a time (a read may return
    fewer), so memory stays at one chunk plus the longest line. The last
    line of each chunk is carried into the next, with its break if it has
    one, so a line, a ``\\r\\n`` or a multi-byte character split between
    chunks is read whole; a line is split once, however many chunks it
    spans. Bytes that are not UTF-8 raise ``UnicodeError``, worded as
    decoding the whole stream at once would word it; every line that ends
    before them is read out first.

    The lines leave a chunk at a time, as one list that
    ``chain.from_iterable`` hands out line by line, so a line costs no
    generator resume. ``io.TextIOWrapper(stream, "utf-8", newline="")``
    iterated by line, each line split again, gives the same lines at about
    three times the cost (Python 3.11, on files of 200,000 and 10^6 short
    lines), and on bad bytes it drops the lines before them in its buffer.
    """
    return chain.from_iterable(_chunk_lines(stream))


def _chunk_lines(stream: io.BufferedIOBase) -> Iterator[list[str]]:
    """The lines of ``read_lines``, a list for each chunk that ends one."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    carry: list[str] = []  # the unfinished last line, a piece per chunk
    decoded = 0  # bytes given to the decoder before this chunk
    started = False  # whether the first character has been decoded
    while True:
        chunk = stream.read(_CHUNK)
        pending = len(decoder.getstate()[0])
        try:
            piece = decoder.decode(chunk, final=not chunk)
        except UnicodeDecodeError as exc:
            good = exc.object[:exc.start].decode("utf-8")
            if not started:
                good = good.removeprefix(_BOM)
            # The sentinel ends the unfinished line that holds the bad bytes.
            yield ("".join(carry) + good + "\0").splitlines()[:-1]
            raise _decode_error(exc, decoded - pending) from None
        if piece and not started:
            started = True
            piece = piece.removeprefix(_BOM)
        carry.append(piece)
        decoded += len(chunk)
        if chunk and not _LINE_BREAK.search(carry[-1]):
            continue
        text = "".join(carry)
        lines = text.splitlines()
        if not chunk:
            yield lines
            return
        carry = []
        if lines:
            last = lines.pop()
            if text[-1] in _LINE_BREAKS:
                last += text[-1]
            carry.append(last)
        yield lines


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
        item = ids[field] = dictionary.intern(label)
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
        # comment, as "#b" does after the line "a,#b". Only a line that is
        # empty or opens with "#" or a space can be one.
        if (not raw or raw[0] == "#" or raw[0].isspace()) \
                and _is_comment_or_blank(raw):
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


_BLOCK = 1024  # tids joined into one text block while tids ascend


def ingest_tid_pairs(lines: Iterable[str], skip_header: bool = False) -> TransactionDb:
    """Parse ``tid,item_label`` CSV rows into a TransactionDb.

    Rows are grouped by trimmed tid (which need not be contiguous or
    numeric); transaction order follows the first appearance of each tid.
    Duplicate (tid, item) rows collapse to a single membership.

    A row is checked and trimmed unless its raw tid field equals the last
    checked row's or is a trimmed tid that holds a list: such a field is
    an accepted row's tid, so the row is no comment, and its item is
    appended to that list. The first test needs no map lookup, so a row of
    the current run takes none.

    While each new trimmed tid sorts after the one before it in (length,
    text) order, so "9" before "10", no tid can return and no tid map is
    kept: each run of rows closes into its sorted tuple when the next tid
    starts (the run is sorted in place, and only one that then holds a
    repeat goes through a ``set``), the tuples go into one list, and the
    tids are kept only as comma-joined text, ``_BLOCK`` tids a block (a
    row holds exactly one comma, so no tid holds one). The first tid that
    does not sort after its predecessor rebuilds the map from that text,
    block by block, and the rest of the input runs on the map.

    The map takes each trimmed tid to its items, in first-appearance
    order. A new tid's first run of rows collects its items in a list. The
    next checked row of another tid turns a first run of two or more rows
    into its sorted tuple. A one-row first run keeps its list, and a later
    row of a tid that holds a tuple turns it back into a list; such lists
    take appends only, so tids that alternate row by row cost an append a
    row. Every list left after the last row becomes its sorted tuple.
    """
    dictionary = ItemDictionary()
    ids: dict[str, int] = {}
    by_tid: dict[str, list[int] | ItemSet] = {}  # trimmed tid -> its items
    closed: list[ItemSet] | None = []  # transactions while tids ascend
    blocks: list[str] = []  # their tids, comma-joined, _BLOCK a block
    pending: list[str] = []  # the tids of the block being filled
    field = None  # the raw tid field of the last checked row
    tid = ""  # its trimmed tid, "" before the first, which sorts before all
    run: list[int] = []  # that tid's list
    first = False  # whether ``run`` is its tid's first run in the map
    rows = enumerate(lines, start=1)
    if skip_header:
        next(rows, None)
    for line_number, raw in rows:
        parts = raw.split(",")
        # A field that is an accepted row's tid makes the row no comment.
        if len(parts) == 2:
            if parts[0] == field:
                try:
                    run.append(ids[parts[1]])
                except KeyError:
                    run.append(_item_id(parts[1], ids, dictionary, line_number))
                continue
            items = by_tid.get(parts[0])
            if type(items) is list:
                try:
                    items.append(ids[parts[1]])
                except KeyError:
                    items.append(_item_id(parts[1], ids, dictionary, line_number))
                continue
        if (not raw or raw[0] == "#" or raw[0].isspace()) \
                and _is_comment_or_blank(raw):
            continue
        if len(parts) != 2:
            raise IngestionError(
                f"expected exactly 2 fields 'tid,item_label', got {len(parts)}",
                line_number)
        name = parts[0].strip()
        if not name:
            raise IngestionError("empty transaction id", line_number)
        try:
            item = ids[parts[1]]
        except KeyError:
            item = _item_id(parts[1], ids, dictionary, line_number)
        if name != tid:
            if closed is None:
                if first and len(run) > 1:
                    by_tid[tid] = tuple(sorted(set(run)))
            else:
                if run:
                    # Sorted in place; only a run with a repeat needs a set.
                    run.sort()
                    items = tuple(run)
                    if any(map(eq, items, items[1:])):
                        items = tuple(sorted(set(run)))
                    closed.append(items)
                    pending.append(tid)
                    if len(pending) == _BLOCK:
                        blocks.append(",".join(pending))
                        pending = []
                if len(tid) < len(name) or (
                        len(tid) == len(name) and tid < name):
                    tid = name
                    field = parts[0]
                    run = [item]
                    continue
                by_tid = _tid_map(closed, blocks, pending)
                closed = None
            tid = name
            items = by_tid.get(tid)
            first = items is None
            if first:
                run = by_tid[tid] = []
            elif type(items) is tuple:
                run = by_tid[tid] = list(items)
            else:
                run = items
        field = parts[0]
        run.append(item)
    if closed is not None:
        if not run:
            raise EmptyInputError("input contains no transactions")
        closed.append(tuple(sorted(set(run))))
        return TransactionDb._trusted(tuple(closed), dictionary)
    for tid, items in by_tid.items():
        if type(items) is list:
            by_tid[tid] = tuple(sorted(set(items)))
    return TransactionDb._trusted(tuple(by_tid.values()), dictionary)


def _tid_map(transactions: list[ItemSet], blocks: list[str],
             pending: list[str]) -> dict[str, list[int] | ItemSet]:
    """Each tid of ``blocks``, then of ``pending``, mapped to its
    transaction, the tids in the order of ``transactions``. Both lists are
    emptied, each block freed once its tids are in the map."""
    by_tid: dict[str, list[int] | ItemSet] = {}
    ordered = iter(transactions)
    blocks.reverse()
    while blocks:
        by_tid.update(zip(blocks.pop().split(","), ordered))
    by_tid.update(zip(pending, ordered))
    pending.clear()
    return by_tid


def to_basket_text(db: TransactionDb) -> str:
    """Serialize to basket format, one comma-joined label line per
    transaction in id order.

    Re-ingesting yields an identical db when the ids are in
    first-appearance order and no transaction is empty (an empty line is
    skipped). Raises ``ValueError`` naming the first label, in id order,
    that basket text cannot hold: one that opens with ``#`` (it would make
    a comment), or holds a comma or a line break.
    """
    for text in db.dictionary:
        if _UNWRITABLE.search(text):
            raise ValueError(f"label {text!r} cannot be written as basket text")
    label = db.dictionary.label_of
    return "\n".join([",".join(map(label, t)) for t in db.transactions]) + "\n"


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
        ids = [dictionary.intern(db.dictionary.label_of(i)) for i in t]
        transactions.append(tuple(sorted(ids)))
    return TransactionDb._trusted(tuple(transactions), dictionary)
