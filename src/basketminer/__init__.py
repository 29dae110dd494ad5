"""Frequent-itemset and association-rule mining over market-basket data.

Apriori and a brute-force oracle for small universes mine the same
frequent itemsets from the same transactions; rules are scored with exact
rational support and confidence. See the ``basketminer`` CLI's ``mine``
and ``gen`` subcommands for file-based use. FP-Growth (``fpgrowth_mine``,
``build_fp_tree``, ``fp_growth_mine``, ``FpTree``) is exported for library
use only, until the benchmark in ``perfbench/`` stops importing it; it is
no longer a ``mine --algorithm`` choice.
"""

from .apriori import apriori_mine
from .core import (
    AssociationRule,
    ConfigError,
    DomainError,
    EmptyInputError,
    FrequentItemset,
    GuardError,
    IngestionError,
    InternalConsistencyError,
    ItemDictionary,
    ItemSet,
    MiningError,
    MiningParams,
    TransactionDb,
    filter_min_items,
    ingest_basket,
    ingest_tid_pairs,
    support_count,
    to_basket_text,
)
from .fpgrowth import FpTree, build_fp_tree, fp_growth_mine
from .fpgrowth import mine as fpgrowth_mine
from .oracle import GeneratorConfig, brute_force_mine, generate_db
from .rules import RuleSet, generate_rules

__version__ = "0.1.0"

__all__ = [
    "AssociationRule",
    "ConfigError",
    "DomainError",
    "EmptyInputError",
    "FpTree",
    "FrequentItemset",
    "GeneratorConfig",
    "GuardError",
    "IngestionError",
    "InternalConsistencyError",
    "ItemDictionary",
    "ItemSet",
    "MiningError",
    "MiningParams",
    "RuleSet",
    "TransactionDb",
    "apriori_mine",
    "brute_force_mine",
    "build_fp_tree",
    "filter_min_items",
    "fp_growth_mine",
    "fpgrowth_mine",
    "generate_db",
    "generate_rules",
    "ingest_basket",
    "ingest_tid_pairs",
    "support_count",
    "to_basket_text",
]
