"""Frequent-itemset and association-rule mining over market-basket data.

Apriori and a brute-force oracle for small universes mine the same
frequent itemsets from the same transactions; rules are scored with exact
rational support and confidence. See the ``basketminer`` CLI's ``mine``
and ``gen`` subcommands for file-based use. FP-Growth (``fpgrowth_mine``,
``build_fp_tree``, ``fp_growth_mine``, ``FpTree``) is exported for library
use only, until the benchmark in ``perfbench/`` stops importing it; it is
no longer a ``mine --algorithm`` choice.

Importing the package loads none of its modules. Each name of
``__all__`` is looked up in its module on first use (PEP 562), so
``import basketminer.cli`` loads only what ``cli`` imports, and a
``mine`` run never loads ``fpgrowth`` or ``oracle``.
"""

import importlib

__version__ = "0.1.0"

# Each exported name by the module that defines it.
_MODULES = {
    "apriori": ("apriori_mine",),
    "core": ("AssociationRule", "ConfigError", "DomainError",
             "EmptyInputError", "FrequentItemset", "GuardError",
             "IngestionError", "InternalConsistencyError", "ItemDictionary",
             "ItemSet", "MiningError", "MiningParams", "TransactionDb",
             "filter_min_items", "ingest_basket", "ingest_tid_pairs",
             "to_basket_text"),
    "fpgrowth": ("FpTree", "build_fp_tree", "fp_growth_mine"),
    "oracle": ("GeneratorConfig", "brute_force_mine", "generate_db"),
    "rules": ("RuleSet", "generate_rules"),
}
# Each exported name as (module, name in that module).
_ORIGINS = {name: (module, name)
            for module, names in _MODULES.items() for name in names}
_ORIGINS["fpgrowth_mine"] = ("fpgrowth", "mine")

__all__ = sorted(_ORIGINS)


def __getattr__(name: str):
    try:
        module, attribute = _ORIGINS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), attribute)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
