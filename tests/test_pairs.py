import random
from collections import Counter
from itertools import chain, combinations
from time import perf_counter
from unittest import mock

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
    PAIR_SHAPES,
    brute_pair_counts,
    forced_pair_counts,
    kept_ints,
    row_counts,
    shaped_rows,
    with_rare_tail,
)

# Row counts at and around the 64-bit word boundary of a cover.
BOUNDARY_NS = [0, 1, 63, 64, 65]


def every_path(rows, counts, threshold):
    """The counts of each kernel: covers, blocks kept whatever they cost,
    and rows, with every int heavy."""
    return [forced_pair_counts(kernel)(rows, counts, threshold)[0]
            for kernel in PAIR_KERNELS]


def paired(found):
    """Every int in a pair of ``found``."""
    return set(found).union(q for entries in found.values()
                            for q, _ in entries)


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
    # Each rare int stays in its first threshold - 1 rows only, so it is
    # counted below the threshold but still held, among the kept ints.
    rare = data.draw(st.sets(st.integers(0, max(width - 1, 0)),
                             max_size=width), label="rare")
    held = Counter()

    def thinned(row):
        left = []
        for p in row:
            if p in rare:
                held[p] += 1
                if held[p] >= threshold:
                    continue
            left.append(p)
        return tuple(left)

    rows = list(map(thinned, rows))
    counts = row_counts(rows, width)
    ignored = {p for p in range(width) if counts[p] < threshold}
    expected = brute_pair_counts(rows, counts, threshold)
    assert not paired(expected) & ignored
    # Every int of a frequent pair has its cover; no other int has one.
    expected_covers = {p: covers(rows, width, [p])[0]
                       for p in paired(expected)}
    budget = data.draw(st.integers(0, 1 << 16), label="budget")
    kept = kept_ints(counts, threshold)
    for counted in [forced_pair_counts(kernel)(rows, counts, threshold)
                    for kernel in PAIR_KERNELS] + [
            count_by_blocks(rows, counts, kept, threshold, budget)]:
        assert counted == (expected, expected_covers)
    with mock.patch.object(pairs, "count_by_covers",
                           wraps=pairs.count_by_covers) as by_covers:
        assert pair_counts(rows, counts, threshold) == (
            expected, expected_covers)
    covered = pairs._covers_cost(n, len(kept)) < pairs._row_cost(rows)
    assert by_covers.called == covered
    wanted = data.draw(st.lists(st.integers(0, max(width - 1, 0)),
                                unique=True, max_size=width), label="wanted")
    assert covers(rows, width, wanted) == [
        sum(1 << i for i, row in enumerate(rows) if p in row) for p in wanted]


@pytest.mark.parametrize("n", BOUNDARY_NS)
def test_edges_on_both_paths(n):
    rng = random.Random(n)
    rows = [tuple(sorted(rng.sample(range(5), rng.randint(0, 5))))
            for _ in range(n)]
    assert every_path([()] * n, [], 1) == [{}] * 3
    assert every_path([(0,)] * n, [n], 1) == [{}] * 3
    assert every_path(rows, row_counts(rows, 5), n + 1) == [{}] * 3
    full = [(0, 1, 2)] * n
    expected = {1: [(0, n)], 2: [(0, n), (1, n)]} if n else {}
    assert every_path(full, [n] * 3, 1) == [expected] * 3
    # Each int of ``full`` is in every row, above the cap, so all are heavy
    # and the block path counts them by their rows alone.
    layout = ([-1] * 3, []) if n else ([0] * 3, [[0, 1, 2]])
    assert _cut_blocks([n] * 3, range(3), _block_cap(1, n)) == layout


def test_block_bounds_at_exactly_the_threshold():
    # 64 rows at threshold 4: the cap is 3·√256/4 = 12, so seven ints of
    # count 4 make blocks of 3, 3 and 1. Each frequent pair occurs in
    # exactly 4 rows, and so does its block bound: across blocks 0 and 1
    # for (0, 3), blocks 0 and 2 for (1, 6) and (2, 6), and inside blocks 0
    # and 1 for (1, 2) and (4, 5). A bound tested one too high loses them.
    # At threshold 5 every int is passed as kept all the same, so that
    # the bounds, not the item counts, must leave every pair out.
    rows = ([(0, 3)] * 4 + [(1, 2, 6)] * 4 + [(4, 5)] * 4) + [()] * 52
    counts = [4] * 7
    assert _cut_blocks(counts, range(7), _block_cap(4, 64)) == (
        [0, 0, 0, 1, 1, 1, 2], [[0, 1, 2], [3, 4, 5], [6]])
    expected = {2: [(1, 4)], 3: [(0, 4)], 5: [(4, 4)], 6: [(1, 4), (2, 4)]}
    assert brute_pair_counts(rows, counts, 4) == expected
    assert count_by_blocks(
        rows, counts, range(7), 4, NO_HAND_OVER)[0] == expected
    assert count_by_blocks(
        rows, counts, range(7), 5, NO_HAND_OVER) == ({}, {})


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


@pytest.mark.parametrize("name, kernel", [
    ("dense", ["count_by_covers"]),
    ("sparse", BLOCKS_KEPT),
    ("quest", BLOCKS_KEPT),
    # quest again, with rare ints making up 13% of what the rows hold, as
    # in the benchmark's quest input when its rows are used as stored.
    ("quest-tail", BLOCKS_KEPT),
], ids=["dense", "sparse", "quest", "quest-tail"])
def test_cost_rule_picks_the_cheaper_path(monkeypatch, name, kernel):
    (n, width, sizes), threshold = PAIR_SHAPES[name.removesuffix("-tail")]
    rows = shaped_rows(1, n, width, sizes)
    if name.endswith("-tail"):
        rows, width = with_rare_tail(rows, width, 0.13, 2)
    ran = spy_on_kernels(monkeypatch)
    pair_counts(rows, row_counts(rows, width), threshold)
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
    # all 469,965 pairs of the 970 ints counted 4 times or more would cost
    # 61 times what counting the pairs inside the rows costs, so every int
    # is made heavy.
    rows = shaped_rows(1, 512, 1000, (16, 16)) + [()] * 7680
    counts = row_counts(rows, 1000)
    by_blocks = count_by_blocks(
        rows, counts, kept_ints(counts, 4), 4, NO_HAND_OVER)
    chosen = best_of(3, lambda: pair_counts(rows, counts, 4))
    naive = best_of(3, lambda: Counter(chain.from_iterable(
        combinations(row, 2) for row in rows)))
    assert chosen < 2 * naive + 0.01, (chosen, naive)
    ran = spy_on_kernels(monkeypatch)
    assert pair_counts(rows, counts, 4) == by_blocks
    assert ran == ["count_by_blocks", "_cut_blocks", "_cut_blocks"]
