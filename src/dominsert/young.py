"""Ordinary Young tableaux: enumeration, hook counts, reading-word signs."""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .partitions import as_partition, conjugate


def enumerate_syt(lam):
    """All standard Young tableaux of the given shape, as tuples of rows: value v
    goes at the end of each row shorter than its part of lam and than the row above."""
    lam = as_partition(lam)
    grids = [((),) * len(lam)]
    for v in range(1, sum(lam) + 1):
        grids = [
            (*grid[:r], row + (v,), *grid[r + 1:])
            for grid in grids
            for r, row in enumerate(grid)
            if len(row) < lam[r] and (r == 0 or len(grid[r - 1]) > len(row))
        ]
    return grids


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

    def strips(base):
        # the next shapes nu with base <= nu <= lam and nu/base a horizontal strip;
        # every choice is a partition, as nu_r <= base_(r-1) <= nu_(r-1)
        highs = [min(lam[r], base[r - 1]) if r else lam[0] for r in range(rows)]
        return itertools.product(*(range(lo, hi + 1) for lo, hi in zip(base, highs)))

    chains = [((0,) * rows, ((),) * rows)]  # (shape, rows of the tableau so far)
    for value in range(1, max_value + 1):
        chains = [
            (nu, tuple(row + (value,) * (nu[r] - base[r]) for r, row in enumerate(grid)))
            for base, grid in chains
            for nu in strips(base)
        ]
    return [grid for base, grid in chains if base == lam]


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
