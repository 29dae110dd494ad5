"""Association-rule generation and scoring from mined frequent itemsets.

For every frequent itemset Z with at least two items, every non-empty
proper subset X becomes an antecedent of the rule X -> Z \\ X. Support and
confidence come straight from the counts already mined (no database
rescan). Thresholds are tested by integer cross-multiplication of those
counts; each emitted rule's scores are exact rationals, rendered as whole
percents (rounded half away from zero) only at the presentation edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .core import (
    AssociationRule,
    DomainError,
    FrequentItemset,
    InternalConsistencyError,
    MiningParams,
    TransactionDb,
)


def percent(value: Fraction) -> int:
    """Whole-percent rendering, rounding half away from zero (4/7 -> 57)."""
    scaled = Fraction(value) * 100
    if scaled >= 0:
        return math.floor(scaled + Fraction(1, 2))
    return -math.floor(-scaled + Fraction(1, 2))


def format_percent(value: Fraction) -> str:
    return f"{percent(value)}%"


@dataclass(frozen=True)
class RuleSet:
    """Rules passing both thresholds, in canonical order.

    Canonical order: descending confidence, then descending support, then
    lexicographic antecedent ids, then consequent ids.
    """

    rules: tuple[AssociationRule, ...]
    params: MiningParams
    n_transactions: int

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)


def generate_rules(frequents: Sequence[FrequentItemset], db: TransactionDb,
                   params: MiningParams,
                   max_antecedent: int | None = None) -> RuleSet:
    """Emit every X -> Z\\X split of the frequent itemsets Z whose count
    meets min_support and whose confidence meets min_confidence.

    Both thresholds are tested on the integer counts: support against
    ``params.absolute_threshold(N)``, confidence by cross-multiplication.
    Fractions appear only in the emitted rules' scores.
    ``frequents`` must be downward-closed, which the mining engines
    guarantee; a missing subset count, or one below its itemset's count,
    raises InternalConsistencyError. ``max_antecedent`` caps the
    antecedent size (None = no cap). An empty database (N = 0) raises
    DomainError.
    """
    n = db.n
    if n == 0:
        raise DomainError("cannot generate rules from an empty transaction database")
    counts = {f.itemset: f.count for f in frequents}
    threshold = params.absolute_threshold(n)
    num, den = params.min_confidence.as_integer_ratio()
    rules = []
    for frequent in frequents:
        z = frequent.itemset
        union_count = frequent.count
        if len(z) < 2 or union_count < threshold:
            continue
        max_size = len(z) - 1
        if max_antecedent is not None:
            max_size = min(max_size, max_antecedent)
        for size in range(1, max_size + 1):
            for antecedent in combinations(z, size):
                antecedent_count = counts.get(antecedent)
                if antecedent_count is None:
                    raise InternalConsistencyError(
                        f"antecedent {antecedent} of frequent itemset {z} "
                        f"is missing from the mined counts")
                if antecedent_count < union_count:
                    raise InternalConsistencyError(
                        f"antecedent {antecedent} has count {antecedent_count}, "
                        f"below the count {union_count} of its superset {z}")
                if union_count * den < num * antecedent_count:
                    continue
                chosen = set(antecedent)
                consequent = tuple(i for i in z if i not in chosen)
                rules.append(AssociationRule(
                    antecedent=antecedent,
                    consequent=consequent,
                    union_count=union_count,
                    antecedent_count=antecedent_count,
                    n_transactions=n))
    # Exact: two distinct confidences u/a with a <= N (AssociationRule
    # checks it) differ by at least 1/N^2, so floor(N^2 * u / a) keeps them
    # apart; N is fixed, so descending support is descending u.
    rules.sort(key=lambda r: (-(r.union_count * n * n // r.antecedent_count),
                              -r.union_count, r.antecedent, r.consequent))
    return RuleSet(tuple(rules), params, n)
