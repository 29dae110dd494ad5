import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketminer import pairs
from basketminer.pairs import count_by_covers, count_by_prefixes, covers, pair_counts
from helpers import brute_pair_counts

# Row counts at and around the 64-bit word boundary of a cover.
BOUNDARY_NS = [0, 1, 63, 64, 65]


def both_paths(rows, width, threshold):
    return (count_by_covers(covers(rows, width), threshold),
            count_by_prefixes(rows, width, threshold))


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
    by_covers, by_prefixes = both_paths(rows, width, threshold)
    assert by_covers == expected
    assert by_prefixes == expected
    every = covers(rows, width)
    counted, built = pair_counts(rows, width, threshold)
    assert counted == expected
    assert built == (every if pairs._covers_cheaper(rows, width) else None)
    wanted = data.draw(st.lists(st.integers(0, max(width - 1, 0)),
                                unique=True, max_size=width), label="wanted")
    assert pairs.covers_of(rows, width, wanted) == [every[p] for p in wanted]


@pytest.mark.parametrize("n", BOUNDARY_NS)
def test_edges_on_both_paths(n):
    rng = random.Random(n)
    rows = [tuple(sorted(rng.sample(range(5), rng.randint(0, 5))))
            for _ in range(n)]
    assert both_paths([()] * n, 0, 1) == ([], [])
    assert both_paths([(0,)] * n, 1, 1) == ([[]], [[]])
    assert both_paths(rows, 5, n + 1) == ([[]] * 5, [[]] * 5)
    full = [(0, 1, 2)] * n
    expected = [[], [(0, n)], [(0, n), (1, n)]] if n else [[], [], []]
    assert both_paths(full, 3, 1) == (expected, expected)


def shaped_rows(seed, n, width, sizes):
    """``n`` rows of uniform random ints below ``width``, each of a size
    drawn uniformly from ``sizes``."""
    rng = random.Random(seed)
    low, high = sizes
    return [tuple(sorted(rng.sample(range(width), rng.randint(low, high))))
            for _ in range(n)]


@pytest.mark.parametrize("shape, covers_cheaper", [
    # dense: 20k rows over 100 frequent items, 5-15 each.
    ((20_000, 100, (5, 15)), True),
    # sparse: 15k rows over 1000 frequent items, 8-20 each.
    ((15_000, 1000, (8, 20)), False),
    # quest: 20k rows over 428 frequent items, about 9 each.
    ((20_000, 428, (5, 13)), False),
], ids=["dense", "sparse", "quest"])
def test_cost_rule_picks_the_cheaper_path(shape, covers_cheaper):
    n, width, sizes = shape
    assert pairs._covers_cheaper(shaped_rows(1, n, width, sizes), width) \
        is covers_cheaper
