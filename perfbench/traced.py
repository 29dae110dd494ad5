"""Run ``basketminer mine`` in-process with a span around each layer call.

Usage: python perfbench/traced.py SPANS_JSON WORKLOAD RUN_ID mine ARGS...
(with basketminer importable, e.g. ``src`` on PYTHONPATH).

The spans wrap the public functions each module exposes, from outside
the program: ``cli.load_db`` (layer ``core``), ``build_fp_tree`` and
``fp_growth_mine`` (``fpgrowth``), ``frequent_singletons`` and
``mine_levels`` (``apriori``), ``generate_rules`` (``rules``) and the
renderer ``--output`` selects (``cli``). Work counts are read after a
layer's span closes, inside ``trace.count`` spans, so they cost no layer
time. Spans stay in memory and are written as JSON when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from math import comb
from pathlib import Path

COUNT_SPAN = "trace.count"


class Recorder:
    """In-memory spans: name, start, end, parent span, workload, run id."""

    def __init__(self, workload: str, run_id: int):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        span_id, self._next_id = self._next_id, self._next_id + 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append({"id": span_id, "name": name, "start": start,
                               "end": end, "parent": parent,
                               "workload": self.workload,
                               "run_id": self.run_id})

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, function, counts=None):
        """``function`` timed in span ``name``; ``counts(result, *args,
        **kwargs)`` then runs in a count span."""
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = function(*args, **kwargs)
            if counts is not None:
                with self.span(COUNT_SPAN):
                    counts(result, *args, **kwargs)
            return result
        return wrapper

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"workload": self.workload,
                                    "run_id": self.run_id,
                                    "spans": self.spans,
                                    "counters": self.counters}),
                        encoding="utf-8")


def instrument(recorder: Recorder) -> None:
    """Replace each layer's public entry points with timed wrappers."""
    from basketminer import apriori, cli, fpgrowth

    def ingest_counts(db, path_text, *args, **kwargs):
        recorder.count("core.transactions", db.n)
        recorder.count("core.items", len(db.dictionary))
        recorder.count("core.input_bytes", Path(path_text).stat().st_size)

    def build_counts(tree, *args, **kwargs):
        recorder.count("fpgrowth.tree_nodes", tree.node_count)

    def fpgrowth_counts(itemsets, *args, **kwargs):
        recorder.count("fpgrowth.itemsets", len(itemsets))

    def level_counts(outcome, db, singletons, threshold,
                     max_itemset_size=None):
        itemsets, peak = outcome
        by_size: dict[int, list] = {}
        for frequent in itemsets:
            by_size.setdefault(len(frequent.itemset), []).append(frequent)
        # mine_levels joins every non-empty level short of the size cap.
        candidates = sum(
            len(apriori.candidate_gen(level).candidates)
            for size, level in by_size.items()
            if max_itemset_size is None or size < max_itemset_size)
        recorder.count("apriori.itemsets", len(itemsets))
        recorder.count("apriori.levels", len(by_size))
        recorder.count("apriori.candidates", candidates)
        recorder.count("apriori.peak_candidates", peak)
        recorder.count("apriori.frequent_k2", len(itemsets) - len(singletons))

    def rule_counts(ruleset, frequents, db, params, max_antecedent=None):
        splits = 0
        for frequent in frequents:
            size = len(frequent.itemset)
            largest = size - 1 if max_antecedent is None else min(
                size - 1, max_antecedent)
            splits += sum(comb(size, k) for k in range(1, largest + 1))
        recorder.count("rules.splits", splits)
        recorder.count("rules.emitted", len(ruleset))

    def render_counts(text, *args, **kwargs):
        recorder.count("cli.output_bytes", len(text.encode("utf-8")))

    cli.load_db = recorder.wrap("core.ingest", cli.load_db, ingest_counts)
    fpgrowth.build_fp_tree = recorder.wrap(
        "fpgrowth.build", fpgrowth.build_fp_tree, build_counts)
    fpgrowth.fp_growth_mine = recorder.wrap(
        "fpgrowth.mine", fpgrowth.fp_growth_mine, fpgrowth_counts)
    apriori.frequent_singletons = recorder.wrap(
        "apriori.singletons", apriori.frequent_singletons)
    apriori.mine_levels = recorder.wrap(
        "apriori.levels", apriori.mine_levels, level_counts)
    cli.generate_rules = recorder.wrap(
        "rules.generate", cli.generate_rules, rule_counts)
    for renderer in ("rules_as_csv", "rules_as_json", "rules_as_table"):
        setattr(cli, renderer, recorder.wrap(
            "cli.render", getattr(cli, renderer), render_counts))


def main(argv: list[str]) -> int:
    spans_path, workload, run_id, *mine_argv = argv
    recorder = Recorder(workload, int(run_id))
    instrument(recorder)
    from basketminer import cli
    try:
        with recorder.span("run"):
            code = cli.main(mine_argv)
        sys.stdout.flush()
    finally:
        recorder.write(Path(spans_path))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
