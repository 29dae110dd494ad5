"""Association-rule generation and scoring from mined frequent itemsets.

Rules come from ap-genrules (Agrawal & Srikant, "Fast Algorithms for
Mining Association Rules", VLDB 1994, section 3): for each frequent
itemset Z, consequents Y grow level by level with an apriori-style join,
and the rule Z \\ Y -> Y is scored from the counts already mined (no
database rescan). Moving an item from the antecedent to the consequent
can only lower confidence, so a consequent whose rule fails the
confidence test is dropped and never grown further. Thresholds are tested
by integer cross-multiplication of the counts. A ``RuleSet`` keeps its
rules as flat integer rows in canonical order; exact rational scores appear
only when ``AssociationRule`` objects are built from the rows, and the CLI
renders the rows as text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import (
    AssociationRule,
    DomainError,
    FrequentItemset,
    InternalConsistencyError,
    ItemSet,
    MiningParams,
    TransactionDb,
)

# (-(u * N * N // a), -u, antecedent, consequent, a) for a rule with union
# count u and antecedent count a: its canonical sort key, then a.
RuleRow = tuple[int, int, ItemSet, ItemSet, int]


@dataclass(frozen=True)
class RuleSet:
    """Rules passing both thresholds, in canonical order.

    Canonical order: descending confidence, then descending support, then
    lexicographic antecedent ids, then consequent ids. ``rows`` holds one
    ``RuleRow`` per rule; iteration and ``rules`` build the
    ``AssociationRule`` objects from the rows on demand.
    """

    rows: tuple[RuleRow, ...]
    params: MiningParams
    n_transactions: int

    @property
    def rules(self) -> tuple[AssociationRule, ...]:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[AssociationRule]:
        n = self.n_transactions
        for _, neg_union, antecedent, consequent, antecedent_count in self.rows:
            yield AssociationRule(antecedent, consequent, -neg_union,
                                  antecedent_count, n)


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
    # Rows hold the mined itemset tuples rather than copies of them.
    mined = {f.itemset: f for f in frequents}
    threshold = params.absolute_threshold(n)
    num, den = params.min_confidence.as_integer_ratio()
    # Exact: two distinct confidences u/a with a <= N differ by at least
    # 1/N^2, so floor(N^2 * u / a) keeps them apart; N is fixed, so
    # descending support is descending u.
    square = n * n
    rows: list[RuleRow] = []
    emit = rows.append
    for frequent in sorted(mined.values(), key=lambda f: len(f.itemset)):
        z, union_count = frequent.itemset, frequent.count
        size = len(z)
        if size < 2 or union_count < threshold:
            continue
        scaled = union_count * square
        neg_union = -union_count
        bound = union_count * den
        smallest = 1 if max_antecedent is None else size - max_antecedent
        # subsets[i] is the mined entry of Z without its item i.
        subsets = []
        for index in range(size):
            subset = z[:index] + z[index + 1:]
            entry = mined.get(subset)
            if entry is None:
                raise InternalConsistencyError(
                    f"subset {subset} of frequent itemset {z} "
                    f"is missing from the mined counts")
            if not union_count <= entry.count <= n:
                raise InternalConsistencyError(
                    f"subset {subset} has count {entry.count}, outside the "
                    f"range from the count {union_count} of its superset "
                    f"{z} to the {n} transactions")
            subsets.append(entry)
        # The passing consequents of one size, each with its antecedent,
        # in lexicographic consequent order.
        level = []
        for index, entry in enumerate(subsets):
            antecedent, antecedent_count = entry.itemset, entry.count
            if bound >= num * antecedent_count:
                consequent = mined[(z[index],)].itemset
                level.append((consequent, antecedent))
                if smallest <= 1:
                    emit((-(scaled // antecedent_count), neg_union,
                          antecedent, consequent, antecedent_count))
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
                    entry = mined[smaller]
                    smaller, antecedent_count = entry.itemset, entry.count
                    if bound < num * antecedent_count:
                        continue
                    consequent = mined[consequent].itemset
                    grown.append((consequent, smaller))
                    if smallest <= width + 1:
                        emit((-(scaled // antecedent_count), neg_union,
                              smaller, consequent, antecedent_count))
            level = grown
            width += 1
    rows.sort()
    return RuleSet(tuple(rows), params, n)
