"""Phase-by-phase engine benchmarking with a cross-engine correctness gate.

Each engine run is split into a structure-build phase and a mining phase
(for Apriori: the singleton pass, then the level loop; for FP-Growth:
tree construction, then recursive mining). Timings are wall-clock; over
repeated runs the one with the minimal total is reported, so build + mine
always sums to the reported total exactly.

Engines must agree on the mined (itemset, count) sets before any timing
is reported; a correctness bug outranks a benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable, Sequence

from .apriori import apriori_mine, frequent_singletons, mine_levels
from .core import FrequentItemset, MiningError, MiningParams, TransactionDb
from .fpgrowth import build_fp_tree, fp_growth_mine
from .fpgrowth import mine as fpgrowth_mine
from .oracle import brute_force_mine

# Each engine by its CLI name. ``apriori_mine`` and ``fpgrowth_mine`` look
# their phase functions up on their modules at call time, so a caller that
# replaces a phase (as a tracer does) reaches it through this table too.
ENGINES: dict[str, Callable[[TransactionDb, MiningParams],
                            list[FrequentItemset]]] = {
    "apriori": apriori_mine,
    "fpgrowth": fpgrowth_mine,
    "bruteforce": brute_force_mine,
}


class EngineDisagreementError(MiningError):
    """Two engines produced different frequent-itemset sets."""


@dataclass
class PhaseRun:
    """One timed engine execution, split into build and mine phases."""

    result: list[FrequentItemset]
    build_seconds: float
    mine_seconds: float
    peak_structure: int

    @property
    def total_seconds(self) -> float:
        return self.build_seconds + self.mine_seconds


@dataclass(frozen=True)
class EngineRun:
    """Best-of-repeats report row for one (algorithm, threshold) pair."""

    algorithm: str
    threshold: Fraction
    absolute_threshold: int
    build_seconds: float
    mine_seconds: float
    total_seconds: float
    peak_structure: int
    frequent_itemsets: int


@dataclass(frozen=True)
class BenchmarkReport:
    dataset: str
    repeat: int
    runs: tuple[EngineRun, ...] = field(default_factory=tuple)


def run_phases(algorithm: str, db: TransactionDb, params: MiningParams) -> PhaseRun:
    """Execute one algorithm with per-phase timing.

    Peak structure size is the largest candidate table for Apriori, the
    node count of the initial tree for FP-Growth, and the enumeration
    space (2^items - 1) for the brute-force oracle.
    """
    threshold = params.absolute_threshold(db.n)
    if algorithm == "fpgrowth":
        t0 = perf_counter()
        tree = build_fp_tree(db, threshold)
        t1 = perf_counter()
        result = fp_growth_mine(tree)
        t2 = perf_counter()
        return PhaseRun(result, t1 - t0, t2 - t1, tree.node_count)
    if algorithm == "apriori":
        t0 = perf_counter()
        singletons = frequent_singletons(db, threshold)
        t1 = perf_counter()
        result, peak = mine_levels(db, singletons, threshold)
        t2 = perf_counter()
        return PhaseRun(result, t1 - t0, t2 - t1, peak)
    if algorithm == "bruteforce":
        t0 = perf_counter()
        result = brute_force_mine(db, params)
        t1 = perf_counter()
        return PhaseRun(result, 0.0, t1 - t0, 2 ** len(db.dictionary) - 1)
    raise ValueError(f"unknown algorithm: {algorithm!r}")


def as_pair_set(result: Sequence[FrequentItemset]) -> frozenset:
    return frozenset((f.itemset, f.count) for f in result)


def benchmark(db: TransactionDb, thresholds: Sequence[Fraction],
              algorithms: Sequence[str], repeat: int,
              dataset: str) -> BenchmarkReport:
    """Run every (algorithm, threshold) pair ``repeat`` times.

    Raises EngineDisagreementError if any two engines differ on the mined
    (itemset, count) sets at any threshold.
    """
    if repeat < 1:
        raise ValueError("repeat must be a positive integer")
    runs: list[EngineRun] = []
    for threshold in thresholds:
        params = MiningParams(min_support=threshold, min_confidence=1)
        results: dict[str, frozenset] = {}
        for algorithm in algorithms:
            attempts = [run_phases(algorithm, db, params) for _ in range(repeat)]
            best = min(attempts, key=lambda run: run.total_seconds)
            results[algorithm] = as_pair_set(best.result)
            runs.append(EngineRun(
                algorithm=algorithm,
                threshold=Fraction(threshold),
                absolute_threshold=params.absolute_threshold(db.n),
                build_seconds=best.build_seconds,
                mine_seconds=best.mine_seconds,
                total_seconds=best.total_seconds,
                peak_structure=best.peak_structure,
                frequent_itemsets=len(best.result)))
        reference_name = algorithms[0]
        reference = results[reference_name]
        for algorithm, pairs in results.items():
            if pairs != reference:
                raise EngineDisagreementError(
                    f"{algorithm} and {reference_name} disagree at "
                    f"min_support {threshold}: {len(pairs)} vs "
                    f"{len(reference)} itemsets")
    return BenchmarkReport(dataset=dataset, repeat=repeat, runs=tuple(runs))
