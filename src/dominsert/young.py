"""Ordinary Young tableaux: enumeration, hook counts, reading-word signs."""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .partitions import as_partition, conjugate


def enumerate_syt(lam):
    """All standard Young tableaux of the given shape, as tuples of rows."""
    lam = as_partition(lam)
    n = sum(lam)
    results = []

    def fill(shape_rows, value, grid):
        if value > n:
            results.append(tuple(tuple(row) for row in grid))
            return
        for r in range(len(lam)):
            c = shape_rows[r]
            if c < lam[r] and (r == 0 or shape_rows[r - 1] > c):
                shape_rows[r] += 1
                grid[r].append(value)
                fill(shape_rows, value + 1, grid)
                grid[r].pop()
                shape_rows[r] -= 1

    fill([0] * len(lam), 1, [[] for _ in lam])
    return results


def hook_count(lam):
    """Number of standard Young tableaux of shape lam (hook-length formula)."""
    lam = as_partition(lam)
    conj = conjugate(lam)
    n = sum(lam)
    hooks = 1
    for r, length in enumerate(lam, start=1):
        for c in range(1, length + 1):
            hooks *= (length - c) + (conj[c - 1] - r) + 1
    return math.factorial(n) // hooks


def enumerate_ssyt(lam, max_value):
    """All semistandard Young tableaux with entries at most max_value.

    Built value class by value class: the cells holding v form a horizontal
    strip between consecutive shapes of the chain.
    """
    lam = as_partition(lam)
    rows = len(lam)
    results = []

    def strips(base):
        # the next shapes nu with base <= nu <= lam and nu/base a horizontal strip;
        # every choice is a partition, as nu_r <= base_(r-1) <= nu_(r-1)
        highs = [min(lam[r], base[r - 1]) if r else lam[0] for r in range(rows)]
        return itertools.product(*(range(lo, hi + 1) for lo, hi in zip(base, highs)))

    def extend(base, value, grid):
        if value > max_value:
            if base == lam:
                results.append(tuple(tuple(row) for row in grid))
            return
        for nu in strips(base):
            new_grid = [row + [value] * (nu[r] - base[r]) for r, row in enumerate(grid)]
            extend(nu, value + 1, new_grid)

    extend((0,) * rows, 1, [[] for _ in range(rows)])
    return results


def syt_sign(tableau):
    """Sign of the reading word (rows left to right, top row first) by its
    inversion count."""
    word = [v for row in tableau for v in row]
    return -1 if sum(a > b for a, b in itertools.combinations(word, 2)) % 2 else 1


@lru_cache(maxsize=None)
def involution_number(n):
    """t(n) = t(n-1) + (n-1) t(n-2), the number of involutions of [n]."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 1:
        return 1
    return involution_number(n - 1) + (n - 1) * involution_number(n - 2)
