import copy
import io
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketminer import cli
from basketminer.apriori import CandidateSet
from basketminer.core import (
    AssociationRule,
    DomainError,
    EmptyInputError,
    FrequentItemset,
    IngestionError,
    ItemDictionary,
    MiningParams,
    TransactionDb,
    _BLOCK,
    filter_min_items,
    ingest_basket,
    ingest_tid_pairs,
    read_lines,
    to_basket_text,
)
from basketminer.oracle import GeneratorConfig
from basketminer.rules import RuleSet
from helpers import (
    basket_reference,
    db_from_ids,
    random_db,
    support_count,
    tid_pairs_reference,
)


class TestItemDictionary:
    def test_first_insertion_gets_id_zero(self):
        d = ItemDictionary()
        assert d.intern("Sugar") == 0
        assert d.label_of(0) == "Sugar"

    def test_interning_is_idempotent(self):
        d = ItemDictionary()
        first = d.intern("Sugar")
        assert d.intern("Sugar") == first
        assert len(d) == 1

    def test_labels_are_trimmed_and_case_sensitive(self):
        d = ItemDictionary()
        assert d.intern("  Wheat ") == d.intern("Wheat")
        assert d.intern("wheat") != d.intern("Wheat")

    def test_empty_label_rejected(self):
        d = ItemDictionary()
        with pytest.raises(ValueError):
            d.intern("   ")

    def test_items_have_no_instance_dict(self):
        # An item is its plain int id: no object per item beside its label.
        d = ItemDictionary()
        ids = [d.intern(label) for label in ("Sugar", "Wheat", "Sugar")]
        assert [type(item) for item in ids] == [int, int, int]
        assert ids == [0, 1, 0]
        assert not hasattr(ids[0], "__dict__")

    def test_grocery_labels_intern_in_table_order(self, grocery_db):
        d = grocery_db.dictionary
        assert list(d) == ["Sugar", "Wheat", "Pulses", "Rice"]
        assert d.id_of("Sugar") == 0
        assert d.id_of("Rice") == 3
        assert d.label_of(2) == "Pulses"

    def test_unknown_lookups_raise_domain_error(self, grocery_db):
        d = grocery_db.dictionary
        with pytest.raises(DomainError):
            d.id_of("Milk")
        with pytest.raises(DomainError):
            d.label_of(99)


class TestIngestBasket:
    def test_grocery_file_shape(self, grocery_db):
        assert grocery_db.n == 7
        assert len(grocery_db.dictionary) == 4

    def test_within_line_duplicates_collapse(self):
        db = ingest_basket(["Sugar, Sugar, Rice"])
        assert db.transactions == ((0, 1),)
        assert len(db.transactions[0]) == 2

    def test_comments_and_blank_lines_are_skipped(self):
        db = ingest_basket(["# header", "", "   ", "  # indented", "a,b"])
        assert db.n == 1

    def test_empty_item_between_commas_reports_line_number(self):
        with pytest.raises(IngestionError) as exc_info:
            ingest_basket(["a,b", "a,,b"])
        assert exc_info.value.line_number == 2
        assert "line 2" in str(exc_info.value)

    def test_no_accepted_lines_is_empty_input(self):
        with pytest.raises(EmptyInputError):
            ingest_basket(["# only a comment", ""])

    def test_transactions_are_canonically_sorted(self):
        db = ingest_basket(["c,a,b"])
        assert db.transactions == ((0, 1, 2),)
        assert db.dictionary.labels(db.transactions[0]) == ("c", "a", "b")


class TestIngestTidPairs:
    def test_equivalent_to_basket_encoding(self, grocery_db, pairs_path):
        with pairs_path.open(encoding="utf-8") as fh:
            db = ingest_tid_pairs(fh, skip_header=True)
        assert db.transactions == grocery_db.transactions
        assert db.dictionary == grocery_db.dictionary

    def test_scattered_tid_rows_merge(self):
        db = ingest_tid_pairs(["1,a", "2,b", "1,c"])
        assert db.n == 2
        assert db.transactions[0] == (0, 2)

    def test_duplicate_pairs_collapse(self):
        db = ingest_tid_pairs(["1,a", "1,a"])
        assert db.transactions == ((0,),)

    def test_malformed_row_reports_line_number(self):
        with pytest.raises(IngestionError) as exc_info:
            ingest_tid_pairs(["1,a", "1,a,b"])
        assert exc_info.value.line_number == 2

    def test_empty_tid_rejected(self):
        with pytest.raises(IngestionError):
            ingest_tid_pairs([" ,a"])

    def test_header_skipped_only_when_asked(self):
        with_header = ingest_tid_pairs(["tid,item", "1,a"], skip_header=True)
        assert with_header.n == 1
        without = ingest_tid_pairs(["tid,item", "1,a"])
        assert without.n == 2  # header parses as a data row

    def test_no_rows_is_empty_input(self):
        with pytest.raises(EmptyInputError):
            ingest_tid_pairs([], skip_header=False)


class TestSupportCount:
    def test_wheat_pulses_count(self, grocery_db):
        d = grocery_db.dictionary
        assert support_count(grocery_db, (d.id_of("Wheat"), d.id_of("Pulses"))) == 4

    def test_rice_pulses_count(self, grocery_db):
        d = grocery_db.dictionary
        assert support_count(grocery_db, (d.id_of("Rice"), d.id_of("Pulses"))) == 3

    def test_sugar_wheat_count(self, grocery_db):
        d = grocery_db.dictionary
        assert support_count(grocery_db, (d.id_of("Sugar"), d.id_of("Wheat"))) == 2

    def test_empty_itemset_counts_all_transactions(self, grocery_db):
        assert support_count(grocery_db, ()) == grocery_db.n

    def test_unknown_id_raises(self, grocery_db):
        with pytest.raises(DomainError):
            support_count(grocery_db, (41,))

    def test_singletons_match_frequency_scan(self, grocery_db):
        frequencies = grocery_db.item_frequencies()
        for item in range(len(grocery_db.dictionary)):
            assert support_count(grocery_db, (item,)) == frequencies[item]


class TestTransactionDb:
    def test_rejects_unsorted_transaction(self):
        d = ItemDictionary()
        d.intern("a")
        d.intern("b")
        with pytest.raises(ValueError):
            TransactionDb(((1, 0),), d)

    def test_rejects_unknown_item_id(self):
        d = ItemDictionary()
        d.intern("a")
        with pytest.raises(DomainError):
            TransactionDb(((0, 5),), d)


def two_labels() -> ItemDictionary:
    dictionary = ItemDictionary()
    dictionary.intern("a")
    dictionary.intern("b")
    return dictionary


HALF = "MiningParams(min_support=Fraction(1, 2), min_confidence=Fraction(3, 5))"

# Each value class: its constructor arguments, a field, and the repr a
# frozen dataclass of the same fields prints (``TransactionDb`` has its
# own).
VALUE_CLASSES = [
    pytest.param(TransactionDb, (((0, 1), (1,)), two_labels()),
                 "transactions", "TransactionDb(n=2, items=2)",
                 id="TransactionDb"),
    pytest.param(MiningParams, (0.5, "3/5"), "min_support", HALF,
                 id="MiningParams"),
    pytest.param(FrequentItemset, ((0,), 2), "count",
                 "FrequentItemset(itemset=(0,), count=2)",
                 id="FrequentItemset"),
    pytest.param(AssociationRule, ((0,), (1,), 1, 2, 3), "antecedent",
                 "AssociationRule(antecedent=(0,), consequent=(1,), "
                 "union_count=1, antecedent_count=2, n_transactions=3)",
                 id="AssociationRule"),
    pytest.param(CandidateSet, (((0, 1),),), "candidates",
                 "CandidateSet(candidates=((0, 1),))", id="CandidateSet"),
    pytest.param(RuleSet, ((354,), ((0,), (0, 1), (1,)), (2, 1, 2),
                           MiningParams("1/2", "3/5"), 3), "rows",
                 f"RuleSet(rows=(354,), itemsets=((0,), (0, 1), (1,)), "
                 f"counts=(2, 1, 2), params={HALF}, n_transactions=3)",
                 id="RuleSet"),
    pytest.param(GeneratorConfig, (10, 9, (1, 8), ((("a", "b"), 0.5),)),
                 "seed",
                 "GeneratorConfig(num_transactions=10, universe_size=9, "
                 "basket_size_range=(1, 8), patterns=((('a', 'b'), 0.5),), "
                 "seed=0)", id="GeneratorConfig"),
]


@pytest.mark.parametrize("cls, args, field, text", VALUE_CLASSES)
def test_value_class_contract(cls, args, field, text):
    value = cls(*args)
    assert cls.__slots__ == cls._fields
    assert repr(value) == text
    # Equality is by fields within one class only.
    assert value == cls(*args)
    assert value != args
    assert value != tuple(value.__reduce__()[1])  # its field values
    if cls is TransactionDb:
        # Its item dictionary is mutable, so it is not hashable.
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(cls(*args))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                 copy.deepcopy(value)):
        assert type(twin) is cls
        assert twin == value
        assert repr(twin) == text


class TestMiningParams:
    @pytest.mark.parametrize("min_support, n, expected", [
        (Fraction(3, 7), 7, 3),
        (Fraction(2, 7), 7, 2),
        (float(3) / 7, 7, 3),   # exact rational of the binary float still ceils to 3
        (float(4) / 7, 7, 4),
        (Fraction(1, 1), 7, 7),
        (Fraction(1, 1000), 7, 1),
        ("0.42", 7, 3),
        ("3/7", 7, 3),
    ])
    def test_absolute_threshold(self, min_support, n, expected):
        params = MiningParams(min_support=min_support, min_confidence=1)
        assert params.absolute_threshold(n) == expected

    def test_float_support_is_its_shortest_decimal(self):
        # The binary value of 0.1 lies just above 1/10, which would ceil to 2.
        params = MiningParams(min_support=0.1, min_confidence=1)
        assert params.min_support == Fraction(1, 10)
        assert params.absolute_threshold(10) == 1

    def test_threshold_never_below_one(self):
        params = MiningParams(min_support=Fraction(1, 10), min_confidence=1)
        assert params.absolute_threshold(0) == 1

    @pytest.mark.parametrize("bad", [0, -1, 2, Fraction(3, 2)])
    def test_out_of_range_support_rejected(self, bad):
        with pytest.raises(ValueError):
            MiningParams(min_support=bad, min_confidence=1)

    @pytest.mark.parametrize("bad", [0, -1, 2])
    def test_out_of_range_confidence_rejected(self, bad):
        with pytest.raises(ValueError):
            MiningParams(min_support=1, min_confidence=bad)

    @pytest.mark.parametrize("text, reason", [
        # Fraction would compute 10**exponent first: seconds at 10**7.
        ("1e-10000000", "too many digits (over 4300)"),
        ("1E+10000000", "too many digits (over 4300)"),
        ("1e-1_000_000", "too many digits (over 4300)"),
        ("1e-" + "9" * 5000, "too many digits (over 4300)"),
        # A value of more digits could not be printed.
        ("1e-4300", "too many digits (over 4300)"),
        ("0.5e-4300", "too many digits (over 4300)"),
        ("0." + "0" * 4299 + "1", "too many digits (over 4300)"),
        ("1/" + "9" * 4300, "too many digits (over 4300)"),
        (Decimal("1e-10000000"), "too many digits (over 4300)"),
        ("abc", "not a number"),
        ("1/0", "not a number"),
        (float("nan"), "not a number"),
    ], ids=lambda value: str(value)[:16])
    def test_bad_threshold_text_refused_by_name(self, text, reason):
        for support, confidence in ((text, 1), (1, text)):
            with pytest.raises(ValueError) as exc_info:
                MiningParams(min_support=support, min_confidence=confidence)
            assert str(exc_info.value) == f"{reason}: {str(text)!r}"

    @pytest.mark.parametrize("text, expected", [
        ("1e-4299", Fraction(1, 10 ** 4299)),
        ("0.5E-001", Fraction(1, 20)),
        (" 25e-0002 ", Fraction(1, 4)),
    ])
    def test_threshold_of_4300_digits_parses(self, text, expected):
        assert MiningParams(text, 1).min_support == expected


@pytest.mark.parametrize("cls, args, message", [
    (FrequentItemset, ((), 1), "frequent itemset must be non-empty"),
    (FrequentItemset, ((0,), 0), "support count must be positive"),
    (AssociationRule, ((), (1,), 1, 1, 1), "must be non-empty"),
    (AssociationRule, ((0,), (), 1, 1, 1), "must be non-empty"),
])
def test_value_class_refuses_an_empty_side_or_a_zero_count(cls, args, message):
    with pytest.raises(ValueError, match=message):
        cls(*args)


class TestAssociationRule:
    def test_support_and_confidence_are_exact(self):
        rule = AssociationRule((1,), (2,), union_count=4, antecedent_count=5,
                               n_transactions=7)
        assert rule.support == Fraction(4, 7)
        assert rule.confidence == Fraction(4, 5)

    def test_overlapping_sides_rejected(self):
        with pytest.raises(ValueError):
            AssociationRule((1,), (1, 2), 1, 1, 1)

    def test_count_ordering_enforced(self):
        with pytest.raises(ValueError):
            AssociationRule((1,), (2,), union_count=5, antecedent_count=4,
                            n_transactions=7)


class TestRoundTrip:
    def test_grocery_round_trip(self, grocery_db):
        again = ingest_basket(to_basket_text(grocery_db).splitlines())
        assert again.transactions == grocery_db.transactions
        assert again.dictionary == grocery_db.dictionary

    def test_random_dbs_round_trip(self):
        # Hand-built dbs may order ids differently from first appearance,
        # so id tuples can shift once; label sets survive, and a second
        # round trip is an exact fixed point.
        import random
        rng = random.Random(99)
        for _ in range(25):
            db = random_db(rng, max_items=10, max_transactions=30)
            again = ingest_basket(to_basket_text(db).splitlines())
            assert [frozenset(db.dictionary.labels(t))
                    for t in db.transactions] == \
                   [frozenset(again.dictionary.labels(t))
                    for t in again.transactions]
            third = ingest_basket(to_basket_text(again).splitlines())
            assert third.transactions == again.transactions
            assert third.dictionary == again.dictionary


class TestFilterMinItems:
    def test_keeps_only_large_baskets(self, grocery_db):
        filtered = filter_min_items(grocery_db, 3)
        assert filtered.n == 3
        labels = [filtered.dictionary.labels(t) for t in filtered.transactions]
        assert labels == [("Sugar", "Wheat", "Pulses", "Rice"),
                          ("Wheat", "Pulses", "Rice"),
                          ("Sugar", "Pulses", "Rice")]

    def test_min_two_keeps_all_grocery_rows(self, grocery_db):
        assert filter_min_items(grocery_db, 2).n == 7

    def test_ids_are_reinterned_densely(self):
        db = ingest_basket(["onlyhere", "a,b", "b,c"])
        filtered = filter_min_items(db, 2)
        assert len(filtered.dictionary) == 3
        assert set(filtered.dictionary) == {"a", "b", "c"}
        assert filtered.transactions == ((0, 1), (1, 2))

    def test_nothing_survives_is_empty_input(self, grocery_db):
        with pytest.raises(EmptyInputError):
            filter_min_items(grocery_db, 5)

    def test_min_items_must_be_positive(self, grocery_db):
        with pytest.raises(ValueError):
            filter_min_items(grocery_db, 0)


@st.composite
def id_dbs(draw):
    n_items = draw(st.integers(1, 8))
    baskets = draw(st.lists(
        st.frozensets(st.integers(0, n_items - 1), min_size=1),
        min_size=1, max_size=20))
    return db_from_ids(baskets, n_items)


class TestSupportCountProperties:
    @settings(max_examples=60, deadline=None)
    @given(db=id_dbs(), data=st.data())
    def test_monotone_under_supersets(self, db, data):
        n_items = len(db.dictionary)
        y = data.draw(st.frozensets(st.integers(0, n_items - 1), min_size=1))
        x = data.draw(st.frozensets(st.sampled_from(sorted(y))))
        assert support_count(db, x) >= support_count(db, y)


BOM = "\ufeff"
# Every break str.splitlines knows, with text that is not ASCII, the
# characters basket and tidpairs input treats specially and the byte order
# mark, which ``read_lines`` drops only at the start of the text.
LINE_PIECES = ("\r", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029", "a", "bc", "é", "€", "😀", ",", " ",
               "#", BOM)
BAD_UTF8 = (b"\xff", b"\x80", b"\xc3(", b"\xe2\x82", b"\xed\xa0\x80",
            b"\xf0\x9f\x98")


def complete_lines(text):
    """The lines of ``text`` that end in a line break."""
    return [piece.splitlines()[0] for piece in text.splitlines(True)
            if piece.splitlines()[0] != piece]


class ShortReads:
    """A byte stream whose ``read(n)`` returns at most ``limit`` bytes, so
    line breaks and characters straddle the reads."""

    def __init__(self, raw, limit):
        self._stream = io.BytesIO(raw)
        self._limit = limit

    def read(self, size):
        return self._stream.read(min(size, self._limit))


class TestReadLines:
    @settings(max_examples=300, deadline=None)
    @given(text=st.lists(st.sampled_from(LINE_PIECES)).map("".join),
           limit=st.integers(1, 9))
    def test_yields_what_splitlines_gives(self, text, limit):
        stream = ShortReads(text.encode("utf-8"), limit)
        assert list(read_lines(stream)) == text.removeprefix(BOM).splitlines()

    def test_default_chunks_carry_long_lines_and_crlf(self):
        # A 100,000-byte line spans two 64 KiB chunks, and the "\r\n" after
        # 65,535 bytes straddles the first boundary.
        text = "x" * 65535 + "\r\n" + "y" * 100_000 + "\r\nlast"
        stream = io.BytesIO(text.encode("utf-8"))
        assert list(read_lines(stream)) == text.splitlines()

    @settings(max_examples=200, deadline=None)
    @given(text=st.lists(st.sampled_from(LINE_PIECES)).map("".join),
           bad=st.sampled_from(BAD_UTF8), data=st.data(),
           limit=st.integers(1, 9))
    def test_undecodable_bytes_read_as_a_whole_read_would(self, text, bad,
                                                          data, limit):
        cut = data.draw(st.integers(0, len(text)))
        head = text[:cut].encode("utf-8")
        raw = head + bad + text[cut:].encode("utf-8")
        with pytest.raises(UnicodeDecodeError) as whole:
            raw.decode("utf-8")
        lines = []
        with pytest.raises(UnicodeError) as streamed:
            lines.extend(read_lines(ShortReads(raw, limit)))
        assert str(streamed.value) == str(whole.value)
        assert lines == complete_lines(text[:cut].removeprefix(BOM))

    @pytest.mark.parametrize("limit", range(1, 10))
    def test_leading_byte_order_mark_is_dropped_over_short_reads(self, limit):
        # Only the first mark goes; the others stay part of their fields.
        text = f"1,milk\r\n{BOM}1,bread\n2,{BOM}milk{BOM}"
        raw = (BOM + text).encode("utf-8")
        assert list(read_lines(ShortReads(raw, limit))) == text.splitlines()

    # A mark, then a bad byte at once or after a line; two marks; and the
    # first two bytes of a mark, cut short by a bad byte or by the end.
    @pytest.mark.parametrize("raw", [
        b"\xef\xbb\xbf\xff", b"\xef\xbb\xbfa\nb\x80",
        b"\xef\xbb\xbf\xef\xbb\xbf\xc3(", b"\xef\xbb\xff", b"\xef\xbb\xbf\xef\xbb",
    ])
    @pytest.mark.parametrize("limit", [1, 2, 3, 4, 9])
    def test_bad_bytes_after_a_byte_order_mark_keep_their_position(self, raw,
                                                                   limit):
        with pytest.raises(UnicodeDecodeError) as whole:
            raw.decode("utf-8")
        text = raw[:whole.value.start].decode("utf-8")
        lines = []
        with pytest.raises(UnicodeError) as streamed:
            lines.extend(read_lines(ShortReads(raw, limit)))
        assert str(streamed.value) == str(whole.value)
        assert lines == complete_lines(text.removeprefix(BOM))


@pytest.mark.parametrize("file_format, skip_header, text", [
    ("basket", False, "a,b\nb,a\n"),
    ("basket", False, "# export\na,b\n"),
    ("tidpairs", False, "1,milk\n1,bread\n2,milk\n2,bread\n"),
    ("tidpairs", True, "tid,item\n1,milk\n1,bread\n2,milk\n"),
])
def test_byte_order_mark_file_loads_as_the_file_without_it(
        tmp_path, file_format, skip_header, text):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert cli.load_db(str(marked), file_format, skip_header) == \
        cli.load_db(str(plain), file_format, skip_header)


def outcome(parse, *args):
    """What ``parse`` returns as comparable values, or the error it raises."""
    try:
        result = parse(*args)
    except (IngestionError, EmptyInputError) as exc:
        return type(exc), str(exc), exc.line_number
    if isinstance(result, TransactionDb):
        return list(result.transactions), list(result.dictionary)
    transactions, dictionary = result
    return transactions, list(dictionary)


# Fields that collide once trimmed ("a", " a", "a "), fields that open a
# comment ("#b"), empty fields and tids with padding.
FIELDS = ("a", " a", "a ", "b", "#b", " #b", "", " ", "1", " 1 ", "2", "tid")
ingest_lines = st.lists(
    st.lists(st.sampled_from(FIELDS), min_size=1, max_size=3).map(",".join),
    max_size=12)


class TestIngestCaches:
    def test_cached_field_can_still_open_a_comment(self):
        db = ingest_basket(["a,#b", "#b", "  #b", "a"])
        assert db.n == 2
        assert list(db.dictionary) == ["a", "#b"]

    def test_padded_fields_share_one_id(self):
        db = ingest_basket([" a", "a ", "a", "a, a,a "])
        assert db.transactions == ((0,), (0,), (0,), (0,))
        assert len(db.dictionary) == 1

    def test_padded_tids_merge(self):
        db = ingest_tid_pairs(["1,x", " 1 ,x", "1 , y", "2,x"])
        assert db.transactions == ((0, 1), (0,))

    def test_header_tid_is_data_after_line_one(self):
        db = ingest_tid_pairs(["tid,item", "1,a", "tid,item"], skip_header=True)
        assert db.transactions == ((0,), (1,))

    @pytest.mark.parametrize("parse, bad, message", [
        (ingest_basket, "a,,b", "empty item label"),
        (ingest_basket, "b, ", "empty item label"),
        (ingest_tid_pairs, " ,a", "empty transaction id"),
        (ingest_tid_pairs, "1,a,b", "expected exactly 2 fields"),
        (ingest_tid_pairs, "1,", "empty item label"),
        (ingest_tid_pairs, "9, ", "empty item label"),
    ])
    def test_errors_after_warm_caches_name_their_line(self, parse, bad,
                                                      message):
        rows = {ingest_basket: ["a,b", "b, c", "c"],
                ingest_tid_pairs: ["1,a", "2,b", " 1 , c"]}[parse]
        lines = [rows[k % 3] for k in range(50_000)] + [bad, "a"]
        with pytest.raises(IngestionError) as exc_info:
            parse(lines)
        assert exc_info.value.line_number == 50_001
        assert str(exc_info.value).startswith(f"line 50001: {message}")

    @settings(max_examples=300, deadline=None)
    @given(lines=ingest_lines)
    def test_basket_matches_uncached_parse(self, lines):
        assert outcome(ingest_basket, lines) == \
            outcome(basket_reference, lines)

    @settings(max_examples=300, deadline=None)
    @given(lines=ingest_lines, skip_header=st.booleans())
    def test_tid_pairs_match_uncached_parse(self, lines, skip_header):
        assert outcome(ingest_tid_pairs, lines, skip_header) == \
            outcome(tid_pairs_reference, lines, skip_header)


TID_FORMS = ("{}", " {}", "{} ", " {} ")  # a tid field, padded or not
ITEM_FIELDS = ("a", " a", "b", "c ", "d", "e", "f")


@st.composite
def tid_rows(draw):
    """20-80 valid rows over 2-5 tids, each tid field padded or not; the
    rows interleaved at random, or grouped by tid in first-draw order."""
    n_tids = draw(st.integers(2, 5))
    rows = draw(st.lists(
        st.tuples(st.integers(0, n_tids - 1), st.sampled_from(TID_FORMS),
                  st.sampled_from(ITEM_FIELDS)),
        min_size=20, max_size=80))
    if draw(st.booleans()):
        order = list(dict.fromkeys(tid for tid, _, _ in rows))
        rows.sort(key=lambda row: order.index(row[0]))
    return [f"{form.format(tid + 1)},{item}" for tid, form, item in rows]


class TestTidRuns:
    @pytest.mark.parametrize("lines, skip_header, transactions", [
        (["1,a", "2,b", "2,c", "1,d"], False, ((0, 3), (1, 2))),
        (["1,x", "1,y", "2,x", " 1 ,z", "1,x", "2,y"], False,
         ((0, 1, 2), (0, 1))),
        (["1,a", "", "# note", "  #1,b", "1,b", "2,c", "1,c"], False,
         ((0, 1, 2), (2,))),
        (["tid,item", "1,a", "tid,b", "1,c", "tid,item"], True,
         ((0, 2), (1, 3))),
    ], ids=["one-row-first-run-returns", "closed-run-returns-padded",
            "blank-and-comment-inside-run", "header-text-returns-as-tid"])
    def test_run_boundaries_match_reference(self, lines, skip_header,
                                            transactions):
        assert outcome(ingest_tid_pairs, lines, skip_header) == \
            outcome(tid_pairs_reference, lines, skip_header)
        db = ingest_tid_pairs(lines, skip_header)
        assert db.transactions == transactions

    @pytest.mark.parametrize("bad, message", [
        ("1,a,b", "expected exactly 2 fields"),
        ("1,", "empty item label"),
        (" 1 , ", "empty item label"),
        (" ,a", "empty transaction id"),
    ])
    def test_error_inside_a_run_names_its_line(self, bad, message):
        lines = ["2,a", "1,a", "1,b", bad, "1,c"]
        with pytest.raises(IngestionError) as exc_info:
            ingest_tid_pairs(lines)
        assert exc_info.value.line_number == 4
        assert str(exc_info.value).startswith(f"line 4: {message}")
        assert outcome(ingest_tid_pairs, lines) == \
            outcome(tid_pairs_reference, lines, False)

    @settings(max_examples=300, deadline=None)
    @given(lines=tid_rows())
    def test_long_valid_rows_match_reference(self, lines):
        assert outcome(ingest_tid_pairs, lines) == \
            outcome(tid_pairs_reference, lines, False)


# Ascending tid texts: plain ids sort by (length, text) as numbers do,
# zero-padded ids as text; ids in text order ("1", "10", "100", "11")
# descend in (length, text) order at "11".
TID_STYLES = {
    "plain": lambda n: [str(t) for t in range(1, n + 1)],
    "zero-padded": lambda n: [f"{t:05}" for t in range(1, n + 1)],
    "text-sorted": lambda n: sorted(str(t) for t in range(1, n + 1)),
}


@st.composite
def ascending_rows(draw):
    """Rows grouped by tid, 1-3 rows a tid, the tids in one of
    ``TID_STYLES``; as many tids as a block holds, one fewer or one more,
    or 1-40; maybe a row of any of those tids, padded or not, inserted at a
    random row, and maybe a ``tid,item`` header line first."""
    n_tids = draw(st.one_of(st.integers(1, 40),
                            st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1])))
    tids = TID_STYLES[draw(st.sampled_from(sorted(TID_STYLES)))](n_tids)
    sizes = draw(st.lists(st.integers(1, 3), min_size=n_tids,
                          max_size=n_tids))
    rows = [f"{tid},{ITEM_FIELDS[(k + j) % len(ITEM_FIELDS)]}"
            for k, (tid, size) in enumerate(zip(tids, sizes))
            for j in range(size)]
    if draw(st.booleans()):
        tid = draw(st.sampled_from(tids))
        form = draw(st.sampled_from(TID_FORMS))
        item = draw(st.sampled_from(ITEM_FIELDS))
        rows.insert(draw(st.integers(0, len(rows))),
                    f"{form.format(tid)},{item}")
    if draw(st.booleans()):
        rows.insert(0, "tid,item")
    return rows


class TestAscendingTids:
    @settings(max_examples=200, deadline=None)
    @given(lines=ascending_rows())
    def test_ascending_rows_match_reference(self, lines):
        assert outcome(ingest_tid_pairs, lines) == \
            outcome(tid_pairs_reference, lines, False)

    @pytest.mark.parametrize("n_tids", [_BLOCK - 1, _BLOCK, _BLOCK + 1,
                                        3 * _BLOCK + 1])
    def test_return_after_a_block_boundary(self, n_tids):
        # The map is rebuilt from full blocks, in order, and a pending block
        # of 1023, 0 or 1 tids.
        lines = [f"{t},item{t % 7}" for t in range(1, n_tids + 1)]
        lines += ["1,item9", f"{n_tids},item9", f"{n_tids + 1},item9"]
        assert outcome(ingest_tid_pairs, lines) == \
            outcome(tid_pairs_reference, lines, False)
        db = ingest_tid_pairs(lines)
        assert db.n == n_tids + 1
        assert db.transactions[0] == (0, len(db.dictionary) - 1)

    @pytest.mark.parametrize("lines", [
        ["1,a", "10,b", "100,c", "11,d", "1,e"],
        ["0009,a", "0010,b", "0009,c"],
        ["9,a", "10,b", "9,c"],
        ["tid,item", "1,a", "2,b"],
        ["0\n1,x", *[f"{t},y" for t in range(1000, 1000 + _BLOCK)],
         "0\n1,z"],
        ["2,a", "1,b", " 2 ,c", "1,d", " 2 ,e", "2,f"],
    ], ids=["text-sorted", "zero-padded", "numeric", "unskipped-header",
            "line-break-in-tid", "padded-after-rebuild"])
    def test_named_breaks_match_reference(self, lines):
        assert outcome(ingest_tid_pairs, lines) == \
            outcome(tid_pairs_reference, lines, False)


class TestTrustedConstruction:
    @settings(max_examples=200, deadline=None)
    @given(lines=ingest_lines, tid_pairs=st.booleans(),
           min_items=st.integers(1, 3))
    def test_ingest_output_passes_the_public_constructor(self, lines,
                                                         tid_pairs,
                                                         min_items):
        try:
            db = ingest_tid_pairs(lines) if tid_pairs else ingest_basket(lines)
        except IngestionError:
            return
        assert TransactionDb(db.transactions, db.dictionary) == db
        try:
            filtered = filter_min_items(db, min_items)
        except EmptyInputError:
            return
        assert TransactionDb(filtered.transactions,
                             filtered.dictionary) == filtered
