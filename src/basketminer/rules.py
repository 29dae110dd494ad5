"""Association-rule generation and scoring from mined frequent itemsets.

Rules come from ap-genrules (Agrawal & Srikant, "Fast Algorithms for
Mining Association Rules", VLDB 1994, section 3): for each frequent
itemset Z, consequents Y grow level by level with an apriori-style join,
and the rule Z \\ Y -> Y is scored from the counts already mined (no
database rescan). Moving an item from the antecedent to the consequent
can only lower confidence, so a consequent whose rule fails the
confidence test is dropped and never grown further. Thresholds are tested
by integer cross-multiplication of the counts. A ``RuleSet`` keeps each
rule as one int key that packs its canonical sort key, so that sorting the
rules sorts ints; exact rational scores appear only when
``AssociationRule`` objects are built from the keys, and the CLI renders
what ``RuleSet.decoded`` unpacks from them as text.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .core import (
    AssociationRule,
    DomainError,
    FrequentItemset,
    Frozen,
    InternalConsistencyError,
    ItemSet,
    MiningParams,
    TransactionDb,
)

class RuleSet(Frozen):
    """Rules passing both thresholds, in canonical order.

    Canonical order: descending confidence, then descending support, then
    lexicographic antecedent ids, then consequent ids. ``itemsets`` is the
    rank table, the mined itemsets in tuple order, and ``counts`` their
    counts. ``rows`` holds one int key per rule, sorted, which packs the
    rule's whole canonical key; ``decoded`` unpacks the keys, and
    iteration and ``rules`` build the ``AssociationRule`` objects from
    them on demand.

    With N transactions and R ranks, a rule X -> Y with union count u and
    antecedent count a has the key, from its most significant field down,
    ``N² - u·N²//a`` (confidence, in a field of its own), ``N - u`` in
    ``N.bit_length()`` bits, then ``rank(X)`` and ``rank(Y)`` in
    ``R.bit_length()`` bits each. Every field is non-negative and fits its
    width, so integer order is the canonical order, ties included.
    """

    __slots__ = _fields = ("rows", "itemsets", "counts", "params",
                           "n_transactions")

    def __init__(self, rows: Sequence[int], itemsets: Sequence[ItemSet],
                 counts: Sequence[int], params: MiningParams,
                 n_transactions: int) -> None:
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "itemsets", tuple(itemsets))
        object.__setattr__(self, "counts", tuple(counts))
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "n_transactions", n_transactions)

    @property
    def rules(self) -> tuple[AssociationRule, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[AssociationRule]:
        itemsets, n = self.itemsets, self.n_transactions
        for antecedent, consequent, union, antecedent_count in self.decoded():
            yield AssociationRule(itemsets[antecedent], itemsets[consequent],
                                  union, antecedent_count, n)

    def decoded(self) -> Iterator[tuple[int, int, int, int]]:
        """``(antecedent, consequent, union, antecedent_count)`` for each
        rule in order: the ranks of its antecedent and consequent in
        ``itemsets``, then the counts of its itemset and its antecedent."""
        n, counts = self.n_transactions, self.counts
        rank_bits = len(self.itemsets).bit_length()
        rank_mask = (1 << rank_bits) - 1
        count_shift = 2 * rank_bits
        count_mask = (1 << n.bit_length()) - 1
        for key in self.rows:
            antecedent = key >> rank_bits & rank_mask
            yield (antecedent, key & rank_mask,
                   n - (key >> count_shift & count_mask), counts[antecedent])


def generate_rules(frequents: Sequence[FrequentItemset], db: TransactionDb,
                   params: MiningParams,
                   max_antecedent: int | None = None) -> RuleSet:
    """Emit every rule X -> Z\\X from the frequent itemsets Z whose count
    meets min_support and whose confidence meets min_confidence.

    Consequents of each Z grow by ap-genrules: level 1 holds the single
    items of Z; a consequent of size m + 1 is the join of two passing
    consequents of size m that share their first m - 1 items, and is kept
    only if every one of its size-m subsets passed. A consequent whose
    rule fails confidence is not grown, since a larger consequent has a
    smaller antecedent, whose count can only be larger. Both thresholds
    are tested on the integer counts: support against
    ``params.absolute_threshold(N)``, confidence by cross-multiplication.
    ``max_antecedent`` caps the antecedent size of the emitted rules
    (None = no cap; below 1 raises ValueError); consequents are grown
    regardless.

    ``frequents`` must be downward-closed, which the mining engines
    guarantee. Each qualifying Z is checked once, before its rules: a
    missing immediate subset, or one whose count is below Z's or above N,
    raises InternalConsistencyError. Itemsets are visited smallest first,
    so every smaller qualifying itemset has been checked already, and by
    induction every subset of Z is present with a count in that range.
    An empty database (N = 0) raises DomainError.
    """
    if max_antecedent is not None and max_antecedent < 1:
        raise ValueError(f"max_antecedent must be >= 1, got {max_antecedent}")
    n = db.n
    if n == 0:
        raise DomainError("cannot generate rules from an empty transaction database")
    counted = {f.itemset: f.count for f in frequents}
    itemsets = sorted(counted)
    counts = [counted[itemset] for itemset in itemsets]
    rank = {itemset: index for index, itemset in enumerate(itemsets)}
    threshold = params.absolute_threshold(n)
    num, den = params.min_confidence.as_integer_ratio()
    # Exact: two distinct confidences u/a with a <= N differ by at least
    # 1/N^2, so floor(N^2 * u / a) keeps them apart; N is fixed, so
    # descending support is descending u. The key's fields are laid out
    # as ``RuleSet`` describes.
    square = n * n
    rank_bits = len(itemsets).bit_length()
    confidence_shift = n.bit_length() + 2 * rank_bits
    keys: list[int] = []
    emit = keys.append
    for z in sorted(itemsets, key=len):
        size = len(z)
        union_count = counts[rank[z]]
        if size < 2 or union_count < threshold:
            continue
        scaled = union_count * square
        support_field = (n - union_count) << 2 * rank_bits
        bound = union_count * den
        smallest = 1 if max_antecedent is None else size - max_antecedent
        # subsets[i] is the rank of Z without its item i.
        subsets = []
        for index in range(size):
            subset = z[:index] + z[index + 1:]
            subset_rank = rank.get(subset)
            if subset_rank is None:
                raise InternalConsistencyError(
                    f"subset {subset} of frequent itemset {z} "
                    f"is missing from the mined counts")
            if not union_count <= counts[subset_rank] <= n:
                raise InternalConsistencyError(
                    f"subset {subset} has count {counts[subset_rank]}, "
                    f"outside the range from the count {union_count} of its "
                    f"superset {z} to the {n} transactions")
            subsets.append(subset_rank)
        # The passing consequents of one size, each with its antecedent,
        # in lexicographic consequent order.
        level = []
        for index, antecedent_rank in enumerate(subsets):
            antecedent_count = counts[antecedent_rank]
            if bound >= num * antecedent_count:
                consequent = (z[index],)
                level.append((consequent, itemsets[antecedent_rank]))
                if smallest <= 1:
                    emit(((square - scaled // antecedent_count)
                          << confidence_shift) + support_field
                         + (antecedent_rank << rank_bits) + rank[consequent])
        width = 1
        while len(level) > 1 and width + 1 < size:
            passed = {consequent for consequent, _ in level}
            grown = []
            for first, (head, antecedent) in enumerate(level):
                prefix = head[:-1]
                for other, _ in level[first + 1:]:
                    if other[:-1] != prefix:
                        break
                    item = other[-1]
                    consequent = head + (item,)
                    # The two parents passed; check the other subsets.
                    if width > 1 and any(
                            consequent[:skip] + consequent[skip + 1:]
                            not in passed for skip in range(width - 1)):
                        continue
                    cut = antecedent.index(item)
                    smaller = antecedent[:cut] + antecedent[cut + 1:]
                    antecedent_rank = rank[smaller]
                    antecedent_count = counts[antecedent_rank]
                    if bound < num * antecedent_count:
                        continue
                    grown.append((consequent, smaller))
                    if smallest <= width + 1:
                        emit(((square - scaled // antecedent_count)
                              << confidence_shift) + support_field
                             + (antecedent_rank << rank_bits)
                             + rank[consequent])
            level = grown
            width += 1
    keys.sort()
    return RuleSet(keys, itemsets, counts, params, n)
