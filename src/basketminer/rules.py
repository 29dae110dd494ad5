"""Association-rule generation and scoring from mined frequent itemsets.

For each frequent itemset Z, the consequents Y are walked depth first
over the set-enumeration tree of Z's items (Rymon, KR 1992): Y grows only
by an item of Z after its last one, and the rule Z \\ Y -> Y is scored
from the counts already mined (no database rescan). Moving an item from
the antecedent to the consequent can only lower confidence, so, as in
ap-genrules (Agrawal & Srikant, "Fast Algorithms for Mining Association
Rules", VLDB 1994, section 3), a consequent whose rule fails the
confidence test is never grown further. Thresholds are tested
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

    The consequents of each Z are walked depth first: a consequent grows
    only by an item of Z after its last one, so each is reached once, from
    itself without its last item. A consequent whose rule fails confidence
    is not grown, since a larger consequent has a smaller antecedent,
    whose count can only be larger; so every consequent with a failing
    subset fails too, and ap-genrules' subset check is not needed. Each
    antecedent's rank is one lookup in a table that holds, for each
    qualifying itemset, the rank of the itemset without each of its
    items, filled in as the itemset is checked. Both thresholds
    are tested on the integer counts: support against
    ``params.absolute_threshold(N)``, confidence by cross-multiplication.
    ``max_antecedent`` caps the antecedent size of the emitted rules
    (None = no cap; below 1 raises ValueError); consequents are grown
    regardless.

    ``frequents`` must be downward-closed, which the mining engines
    guarantee. Each qualifying Z is checked once, before its rules: a
    missing immediate subset, or one whose count is below Z's or above N,
    raises InternalConsistencyError. Itemsets are visited smallest first,
    so every smaller qualifying itemset has been checked, and has its
    table row, already; by induction every subset of Z is present with a
    count in that range.
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
    # drop[r][i] is the rank of itemset r without its item i, for each
    # qualifying itemset r, built as its subsets are checked. Rows stay
    # lists: freed, a list returns its items to the allocator, where small
    # tuples would stay in the interpreter's free lists.
    drop: list[list[int] | None] = [None] * len(itemsets)
    keys: list[int] = []
    emit = keys.append
    for z in sorted(itemsets, key=len):
        size = len(z)
        z_rank = rank[z]
        union_count = counts[z_rank]
        if size < 2 or union_count < threshold:
            continue
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
        drop[z_rank] = subsets
        scaled = union_count * square
        support_field = (n - union_count) << 2 * rank_bits
        bound = union_count * den
        smallest = 1 if max_antecedent is None else size - max_antecedent
        # Each entry: a passing consequent, its antecedent's rank, and the
        # position in Z after the consequent's last item. Every item of the
        # consequent lies before that position, so Z's item j, from there
        # on, sits at position j - len(consequent) of the antecedent.
        stack = [((), z_rank, 0)]
        while stack:
            head, antecedent_rank, start = stack.pop()
            width = len(head)
            without = drop[antecedent_rank]
            grows = width + 2 < size
            for j in range(start, size):
                smaller = without[j - width]
                antecedent_count = counts[smaller]
                if bound < num * antecedent_count:
                    continue
                consequent = head + (z[j],)
                if smallest <= width + 1:
                    emit(((square - scaled // antecedent_count)
                          << confidence_shift) + support_field
                         + (smaller << rank_bits) + rank[consequent])
                if grows:
                    stack.append((consequent, smaller, j + 1))
    # Freed before the sort, whose merge buffer sets the memory peak.
    del drop, rank
    keys.sort()
    return RuleSet(keys, itemsets, counts, params, n)
