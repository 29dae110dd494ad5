"""Seeded synthetic workloads for the basketminer benchmark.

Every draw comes from ``random.Random.random()``, the one primitive whose
stream Python keeps stable across versions, so a seed names the same
input bytes everywhere. The program under test only ever sees the files
written here; nothing in ``basketminer`` (its own generator included) is
used to make them, so a change to the program cannot change a workload.

Sources: the uniform-padding shapes follow the ROADMAP criterion-5 and
dense baselines; ``quest`` follows the IBM synthetic generator of Agrawal
& Srikant, "Fast Algorithms for Mining Association Rules" (VLDB 1994,
section 2.4.3).
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path


def label(index: int) -> str:
    """Universe label for 0-based item ``index``: item_0001, item_0002, ..."""
    return f"item_{index + 1:04d}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    file_name: str
    mine_args: tuple[str, ...]
    file_format: str = "basket"
    skip_header: bool = False

    def option(self, flag: str) -> str:
        """The value ``mine_args`` gives ``flag``."""
        return self.mine_args[self.mine_args.index(flag) + 1]


WORKLOADS = {
    "sparse": Workload(
        name="sparse",
        why="one large FP tree with shallow mining: ingest, fpgrowth build "
            "and mine do the work, rules and render do none",
        file_name="sparse.basket",
        mine_args=("--min-support", "1/100", "--min-confidence", "3/5",
                   "--output", "csv")),
    "dense": Workload(
        name="dense",
        why="itemsets up to size 8: rules dominate, then deep FP-Growth "
            "recursion and CSV rendering; ingest is negligible",
        file_name="dense.basket",
        mine_args=("--min-support", "3/100", "--min-confidence", "3/5",
                   "--output", "csv")),
    "quest": Workload(
        name="quest",
        why="Agrawal-Srikant T10-I4 data as tidpairs mined by Apriori with "
            "JSON itemsets: the only user of apriori and tidpairs ingest",
        file_name="quest.tidpairs",
        mine_args=("--format", "tidpairs", "--skip-header",
                   "--min-support", "17/2000", "--min-confidence", "1/2",
                   "--algorithm", "apriori", "--output", "json",
                   "--show-itemsets"),
        file_format="tidpairs", skip_header=True),
}

# The ROADMAP shapes are cut down so one `mine` child takes about two
# seconds and a run can take a median over a dozen children. Quest's
# support sits mid-way in the range where every seed tried gives the same
# Apriori levels (three frequent, a fourth counted and found empty): near
# 1/200 some seeds count one or two more levels and take twice as long.
SPARSE = dict(n=15_000, universe=1000, sizes=(8, 20), planted=(((0, 1, 2), 0.3),))
DENSE = dict(n=20_000, universe=100, sizes=(5, 15),
             planted=tuple((tuple((3 * k + j) % 60 for j in range(5)), 0.15)
                           for k in range(8)))
QUEST_N, QUEST_ITEMS = 20_000, 1000
# Mean transaction size |T|, mean potentially-large itemset size |I|, and
# the number of potentially large itemsets |L|.
QUEST_T, QUEST_I, QUEST_L = 10, 4, 500
QUEST_CORRELATION = 0.5
QUEST_CORRUPTION_MEAN, QUEST_CORRUPTION_SD = 0.5, 0.1


def _padded(schedule: random.Random, rng: random.Random, n: int, universe: int,
            sizes: tuple[int, int], planted) -> list[list[int]]:
    """Baskets holding each planted pattern with its probability (drawn
    from ``schedule``), padded with uniform distinct items up to a size
    drawn uniformly from ``sizes`` (drawn from ``rng``)."""
    lo, hi = sizes
    baskets = []
    for _ in range(n):
        items: dict[int, None] = {}
        for pattern, probability in planted:
            if schedule.random() < probability:
                items.update(dict.fromkeys(pattern))
        size = lo + int(rng.random() * (hi - lo + 1))
        while len(items) < size:
            items[int(rng.random() * universe)] = None
        baskets.append(list(items))
    return baskets


def _poisson(rng: random.Random, mean: float) -> int:
    limit = math.exp(-mean)
    k, product = 0, rng.random()
    while product > limit:
        k += 1
        product *= rng.random()
    return k


def _exponential(rng: random.Random, mean: float) -> float:
    return -mean * math.log(1.0 - rng.random())


def _normal(rng: random.Random, mean: float, sd: float) -> float:
    u1, u2 = 1.0 - rng.random(), rng.random()
    return mean + sd * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _quest(pool: random.Random, rng: random.Random) -> list[list[int]]:
    """Transactions built from weighted, correlated, corrupted potentially
    large itemsets, as in Agrawal & Srikant 1994, section 2.4.3. ``pool``
    draws the itemsets, their weights and corruption levels; ``rng`` draws
    the transactions."""
    itemsets: list[list[int]] = []
    previous: list[int] = []
    for _ in range(QUEST_L):
        size = max(1, _poisson(pool, QUEST_I))
        # An exponentially distributed share of the items comes from the
        # previous itemset, the rest uniformly from the universe.
        share = min(1.0, _exponential(pool, QUEST_CORRELATION))
        chosen: dict[int, None] = {}
        for _ in range(min(size, int(share * size + 0.5), len(previous))):
            chosen[previous[int(pool.random() * len(previous))]] = None
        while len(chosen) < size:
            chosen[int(pool.random() * QUEST_ITEMS)] = None
        previous = list(chosen)
        itemsets.append(previous)
    cumulative, total = [], 0.0
    for _ in itemsets:
        total += _exponential(pool, 1.0)
        cumulative.append(total)
    corruption = [min(1.0, max(0.0, _normal(pool, QUEST_CORRUPTION_MEAN,
                                             QUEST_CORRUPTION_SD)))
                  for _ in itemsets]

    transactions: list[list[int]] = []
    carried: list[int] | None = None
    while len(transactions) < QUEST_N:
        size = max(1, _poisson(rng, QUEST_T))
        basket: dict[int, None] = {}
        while len(basket) < size:
            if carried is not None:
                picked, carried = carried, None
            else:
                index = min(bisect_right(cumulative, rng.random() * total),
                            len(itemsets) - 1)
                # Corruption: each item is dropped with the itemset's level.
                picked = [item for item in itemsets[index]
                          if rng.random() >= corruption[index]]
                if not picked:
                    continue
            # An itemset that does not fit goes in anyway half the time,
            # else it starts the next transaction.
            if basket and len(basket) + len(picked) > size and rng.random() < 0.5:
                carried = picked
                break
            basket.update(dict.fromkeys(picked))
        transactions.append(list(basket))
    return transactions


def generate(name: str, seed: int) -> list[list[int]]:
    """The 0-based item lists of workload ``name`` for ``seed``.

    The planted structure comes from a generator fixed per workload and
    only the rest from the seed, so every seed costs about the same to mine.
    """
    fixed, rng = random.Random(f"{name}:structure"), random.Random(f"{name}:{seed}")
    if name == "sparse":
        return _padded(fixed, rng, **SPARSE)
    if name == "dense":
        return _padded(fixed, rng, **DENSE)
    if name == "quest":
        return _quest(fixed, rng)
    raise ValueError(f"unknown workload {name!r}")


def render(workload: Workload, transactions: list[list[int]]) -> str:
    if workload.file_format == "tidpairs":
        rows = ["tid,item"]
        for tid, items in enumerate(transactions, start=1):
            rows.extend(f"{tid},{label(item)}" for item in items)
        return "\n".join(rows) + "\n"
    return "\n".join(",".join(label(item) for item in items)
                     for items in transactions) + "\n"


@dataclass(frozen=True)
class InputFile:
    path: Path
    sha256: str
    transactions: int
    items: int
    size_bytes: int


def write_input(workload: Workload, seed: int, directory: Path) -> InputFile:
    """Generate the workload for ``seed`` and write it under ``directory``."""
    transactions = generate(workload.name, seed)
    data = render(workload, transactions).encode("utf-8")
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{seed}-{workload.file_name}"
    path.write_bytes(data)
    distinct = {item for items in transactions for item in items}
    return InputFile(path, hashlib.sha256(data).hexdigest(), len(transactions),
                     len(distinct), len(data))
