import random
from collections import Counter
from itertools import chain, combinations
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketminer import pairs
from basketminer.pairs import (
    _block_cap,
    _cut_blocks,
    count_by_blocks,
    covers,
    pair_counts,
)
from helpers import (
    NO_HAND_OVER,
    PAIR_KERNELS,
    brute_pair_counts,
    forced_pair_counts,
)

# Row counts at and around the 64-bit word boundary of a cover.
BOUNDARY_NS = [0, 1, 63, 64, 65]


def every_path(rows, width, threshold):
    """The counts of each kernel: covers, blocks kept whatever they cost,
    and rows, with every int heavy."""
    return [forced_pair_counts(kernel)(rows, width, threshold)[0]
            for kernel in PAIR_KERNELS]


@pytest.mark.parametrize("n", BOUNDARY_NS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_each_path_matches_brute_force(n, data):
    width = data.draw(st.integers(0, 7), label="width")
    row = (st.just(()) if width == 0 else
           st.sets(st.integers(0, width - 1)).map(sorted).map(tuple))
    rows = data.draw(st.lists(row, min_size=n, max_size=n), label="rows")
    # n + 1 is above every count.
    threshold = data.draw(st.integers(1, n + 1), label="threshold")
    expected = brute_pair_counts(rows, width, threshold)
    assert every_path(rows, width, threshold) == [expected] * 3
    every = covers(rows, width, range(width))
    counted, built = pair_counts(rows, width, threshold)
    assert counted == expected
    covered = pairs._covers_cost(n, width) < pairs._row_cost(rows)
    assert built == (every if covered else None)
    wanted = data.draw(st.lists(st.integers(0, max(width - 1, 0)),
                                unique=True, max_size=width), label="wanted")
    assert covers(rows, width, wanted) == [
        sum(1 << i for i, row in enumerate(rows) if p in row) for p in wanted]


@pytest.mark.parametrize("n", BOUNDARY_NS)
def test_edges_on_both_paths(n):
    rng = random.Random(n)
    rows = [tuple(sorted(rng.sample(range(5), rng.randint(0, 5))))
            for _ in range(n)]
    assert every_path([()] * n, 0, 1) == [[]] * 3
    assert every_path([(0,)] * n, 1, 1) == [[[]]] * 3
    assert every_path(rows, 5, n + 1) == [[[]] * 5] * 3
    full = [(0, 1, 2)] * n
    expected = [[], [(0, n)], [(0, n), (1, n)]] if n else [[], [], []]
    assert every_path(full, 3, 1) == [expected] * 3
    # Each int of ``full`` is in every row, above the cap, so all are heavy
    # and the block path counts them by their rows alone.
    layout = ([-1] * 3, []) if n else ([0] * 3, [[0, 1, 2]])
    assert _cut_blocks([n] * 3, _block_cap(1, n)) == layout


def test_block_bounds_at_exactly_the_threshold():
    # 64 rows at threshold 4: the cap is 3·√256/4 = 12, so seven ints of
    # count 4 make blocks of 3, 3 and 1. Each frequent pair occurs in
    # exactly 4 rows, and so does its block bound: across blocks 0 and 1
    # for (0, 3), blocks 0 and 2 for (1, 6) and (2, 6), and inside blocks 0
    # and 1 for (1, 2) and (4, 5). A bound tested one too high loses them.
    rows = ([(0, 3)] * 4 + [(1, 2, 6)] * 4 + [(4, 5)] * 4) + [()] * 52
    assert _cut_blocks([4] * 7, _block_cap(4, 64)) == (
        [0, 0, 0, 1, 1, 1, 2], [[0, 1, 2], [3, 4, 5], [6]])
    expected = [[], [], [(1, 4)], [(0, 4)], [], [(4, 4)], [(1, 4), (2, 4)]]
    assert brute_pair_counts(rows, 7, 4) == expected
    assert count_by_blocks(rows, 7, 4, NO_HAND_OVER) == expected
    assert count_by_blocks(rows, 7, 5, NO_HAND_OVER) == [[]] * 7


def shaped_rows(seed, n, width, sizes):
    """``n`` rows of uniform random ints below ``width``, each of a size
    drawn uniformly from ``sizes``."""
    rng = random.Random(seed)
    low, high = sizes
    return [tuple(sorted(rng.sample(range(width), rng.randint(low, high))))
            for _ in range(n)]


def spy_on_kernels(monkeypatch):
    """The name of each kernel that runs from then on, and of each block
    layout it cuts, in the returned list: a count by blocks that makes
    every int heavy cuts a second layout."""
    ran = []
    for name in ("count_by_covers", "count_by_blocks", "_cut_blocks"):
        def spy(*args, kernel=getattr(pairs, name), name=name):
            ran.append(name)
            return kernel(*args)
        monkeypatch.setattr(pairs, name, spy)
    return ran


BLOCKS_KEPT = ["count_by_blocks", "_cut_blocks"]  # one layout, not redone


@pytest.mark.parametrize("shape, threshold, kernel", [
    # dense: 20k rows over 100 frequent items, 5-15 each.
    ((20_000, 100, (5, 15)), 600, ["count_by_covers"]),
    # sparse: 15k rows over 1000 frequent items, 8-20 each.
    ((15_000, 1000, (8, 20)), 150, BLOCKS_KEPT),
    # quest: 20k rows over 428 frequent items, about 9 each.
    ((20_000, 428, (5, 13)), 170, BLOCKS_KEPT),
], ids=["dense", "sparse", "quest"])
def test_cost_rule_picks_the_cheaper_path(monkeypatch, shape, threshold,
                                          kernel):
    n, width, sizes = shape
    rows = shaped_rows(1, n, width, sizes)
    ran = spy_on_kernels(monkeypatch)
    pair_counts(rows, width, threshold)
    assert ran == kernel


def best_of(runs, call):
    """The least time of ``runs`` calls of ``call``."""
    times = []
    for _ in range(runs):
        started = perf_counter()
        call()
        times.append(perf_counter() - started)
    return min(times)


def test_unprunable_shape_is_counted_by_rows(monkeypatch):
    # The cap, 3·⌊√(4·8192)⌋/4 = 135, counts the 7680 empty rows too, so
    # the 63 blocks hold about 16 ints each, and every one of their 1953
    # pairs meets in 4 rows or more: the filter prunes none. Intersecting
    # all 499,500 int pairs would cost 65 times what counting the pairs
    # inside the rows costs, so every int is made heavy.
    rows = shaped_rows(1, 512, 1000, (16, 16)) + [()] * 7680
    by_blocks = count_by_blocks(rows, 1000, 4, NO_HAND_OVER)
    chosen = best_of(3, lambda: pair_counts(rows, 1000, 4))
    naive = best_of(3, lambda: Counter(chain.from_iterable(
        combinations(row, 2) for row in rows)))
    assert chosen < 2 * naive + 0.01, (chosen, naive)
    ran = spy_on_kernels(monkeypatch)
    assert pair_counts(rows, 1000, 4) == (by_blocks, None)
    assert ran == ["count_by_blocks", "_cut_blocks", "_cut_blocks"]
