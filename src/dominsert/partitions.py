"""Integer partitions, dominoes on their diagrams, 2-cores and 2-quotients.

Partitions are plain tuples of weakly decreasing positive integers; the empty
tuple is the empty shape.  Cells are 1-indexed ``(row, col)`` pairs with rows
counted top-down, so the cell diagonally outwards from ``(k, l)`` is
``(k + 1, l + 1)``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache
from itertools import zip_longest
from operator import neg

HORIZONTAL = "h"
VERTICAL = "v"


class DominoShape(namedtuple("DominoShape", "row col orient")):
    """Placement of a domino: topmost-leftmost cell plus orientation.  It is
    the ``(row, col, orient)`` triple itself, so it compares, hashes and sorts
    as that triple, and a growth edge label is the same value."""

    __slots__ = ()

    def __new__(cls, row, col, orient):
        self = tuple.__new__(cls, (row, col, orient))
        if row < 1 or col < 1 or orient not in (HORIZONTAL, VERTICAL):
            raise ValueError(f"bad domino placement {self}")
        return self

    def cells(self):
        row, col, orient = self
        return ((row, col), (row, col + 1) if orient == HORIZONTAL else (row + 1, col))

    @property
    def max_col(self):
        return self.col + 1 if self.orient == HORIZONTAL else self.col

    def transposed(self):
        row, col, orient = self
        return DominoShape(col, row, VERTICAL if orient == HORIZONTAL else HORIZONTAL)

    @classmethod
    def from_json(cls, data):
        """Inverse of ``_asdict``; row and col must be JSON integers."""
        try:
            return cls(json_value(data["row"], "row"), json_value(data["col"], "col"), data["orient"])
        except KeyError as exc:
            raise ValueError(f"a domino has no {exc} field") from None


_JSON_KINDS = {int: "an integer", list: "a JSON array", dict: "a JSON object"}


def json_value(value, name, kind=int):
    """A JSON integer, or by ``kind`` an array or object; any other type (a
    float, bool or string where an integer belongs) raises ValueError."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def domino_of_cells(cell_a, cell_b):
    """Domino covering two edge-adjacent cells."""
    (r1, c1), (r2, c2) = sorted((cell_a, cell_b))
    if (r1, c1 + 1) == (r2, c2):
        return DominoShape(r1, c1, HORIZONTAL)
    if (r1 + 1, c1) == (r2, c2):
        return DominoShape(r1, c1, VERTICAL)
    raise ValueError(f"cells {cell_a} and {cell_b} are not adjacent")


def as_partition(parts):
    """Validate and normalise a partition (trailing zeros are dropped)."""
    parts = tuple(int(p) for p in parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    for earlier, later in zip(parts, parts[1:]):
        if earlier < later:
            raise ValueError(f"{parts} is not weakly decreasing")
    if parts and parts[-1] < 0:
        raise ValueError(f"{parts} has negative parts")
    return parts


def size(lam):
    return sum(lam)


def part(lam, row):
    """Row length with zero padding, 1-indexed."""
    return lam[row - 1] if 1 <= row <= len(lam) else 0


def col_height(lam, col):
    return bisect_right(lam, -col, key=neg)


def conjugate(lam):
    if not lam:
        return ()
    return tuple(col_height(lam, c) for c in range(1, lam[0] + 1))


def contains(outer, inner):
    return all(part(outer, r) >= p for r, p in enumerate(inner, start=1))


def staircase(r):
    """The staircase (r, r-1, ..., 1); every 2-core has this form."""
    if r < 0:
        raise ValueError(f"core order must be nonnegative, got {r}")
    return tuple(range(r, 0, -1))


def staircase_order(lam):
    """r when lam is a staircase, otherwise None."""
    r = len(lam)
    return r if lam == staircase(r) else None


def place_domino(rows, row, col, orient):
    """Add the domino (row, col, orient) to the row lengths ``rows`` in place,
    checking only the rows it touches and the row above; a partition stays a
    partition, and ``rows`` is unchanged on error.  Rows past the end of the
    list have length 0, as in ``part``."""
    last, end = (row, col + 1) if orient == HORIZONTAL else (row + 1, col)
    n = len(rows)
    if (
        row < 1 or col < 1
        or not (rows[row - 1] == rows[last - 1] == col - 1 if last <= n
                else col == 1 and (row > n or not rows[row - 1]))
        or (row > 1 and (row > n + 1 or rows[row - 2] < end))
    ):
        raise ValueError(f"cannot add {(row, col, orient)} to {tuple(rows)}")
    if last > n:
        rows.extend([0] * (last - n))
    rows[row - 1] = rows[last - 1] = end


def lift_domino(rows, row, col, orient):
    """Remove the domino (row, col, orient) from ``rows`` in place; the
    inverse of ``place_domino``, dropping emptied rows."""
    last, end = (row, col + 1) if orient == HORIZONTAL else (row + 1, col)
    if (
        row < 1 or col < 1
        or last > len(rows)
        or not (rows[row - 1] == rows[last - 1] == end)
        or (last < len(rows) and rows[last] >= col)
    ):
        raise ValueError(f"cannot remove {(row, col, orient)} from {tuple(rows)}")
    rows[row - 1] = rows[last - 1] = col - 1
    while rows and not rows[-1]:
        rows.pop()


def add_domino(lam, dom):
    rows = list(lam)
    place_domino(rows, *dom)
    return tuple(rows)


def remove_domino(lam, dom):
    rows = list(lam)
    lift_domino(rows, *dom)
    return tuple(rows)


def domino_successors(lam):
    """All (mu, placement) with mu obtained from lam by adding one domino, by placement."""
    out = []
    for r in range(1, len(lam) + 2):
        length = part(lam, r)
        # horizontal at the end of row r
        if r == 1 or part(lam, r - 1) >= length + 2:
            dom = DominoShape(r, length + 1, HORIZONTAL)
            out.append((add_domino(lam, dom), dom))
        # vertical in rows r, r+1
        if part(lam, r + 1) == length and (r == 1 or part(lam, r - 1) >= length + 1):
            dom = DominoShape(r, length + 1, VERTICAL)
            out.append((add_domino(lam, dom), dom))
    return out


def domino_predecessors(lam):
    """All (mu, placement) with lam obtained from mu by adding one domino, by placement; only the
    last two rows of a run of equal parts can lose one, so the walk visits one run at a time."""
    out, end = [], 0
    while end < len(lam) and lam[end]:
        length = lam[end]
        start, end = end, col_height(lam, length)  # the run is rows start + 1 .. end
        if end - start >= 2:
            dom = DominoShape(end - 1, length, VERTICAL)
            out.append((remove_domino(lam, dom), dom))
        if length >= 2 and part(lam, end + 1) <= length - 2:
            dom = DominoShape(end, length - 1, HORIZONTAL)
            out.append((remove_domino(lam, dom), dom))
    return out


def fold_down(top, below, combine, memo):
    """The value of ``top`` in a recursion down the shape lattice.

    A shape not in ``memo`` has the value ``combine(pairs)``, with one
    ``(label, value of mu)`` pair for each ``(mu, label)`` in ``below(shape)``.
    ``memo`` holds the base values and receives every value found, so the
    calls that share it share the work.  The walk keeps its own stack, so a
    deep shape does not reach Python's recursion limit.
    """
    stack = [(top, None)]
    while stack:
        shape, edges = stack.pop()
        if shape in memo:
            continue
        if edges is None:  # first visit: the shapes below go first, then this one again
            edges = below(shape)
            stack.append((shape, edges))
            stack.extend((mu, None) for mu, _ in edges if mu not in memo)
        else:
            memo[shape] = combine([(label, memo[mu]) for mu, label in edges])
    return memo[top]


def _runners(lam):
    """The two runners of lam's 2-abacus with an even bead count: the positions
    b // 2 of the even and of the odd beta-numbers, largest first."""
    beads = len(lam) + (len(lam) % 2)
    beta = [part(lam, i) + (beads - i) for i in range(1, beads + 1)]
    return [b // 2 for b in beta if b % 2 == 0], [b // 2 for b in beta if b % 2 == 1]


def two_core(lam):
    """The 2-core, read off the 2-abacus.

    Removing a rim domino moves one bead one step down its runner, so the
    core has every bead pushed to the bottom: k0 beads on the even runner and
    k1 on the odd one.  That beta-set is staircase(k1 - k0) when k1 >= k0 and
    staircase(k0 - k1 - 1) otherwise.
    """
    even, odd = _runners(as_partition(lam))
    excess = len(odd) - len(even)
    return staircase(excess if excess >= 0 else -excess - 1)


def two_quotient(lam):
    """2-quotient via beta-numbers on a 2-abacus with an even bead count.

    Component 0 collects the beads of even position, component 1 the odd
    ones; this fixed convention makes ``size(lam) == size(two_core(lam)) +
    2*(size(q0) + size(q1))`` hold with a stable component order.
    """

    def from_positions(vals):
        k = len(vals)
        return as_partition(v - (k - 1 - i) for i, v in enumerate(vals))

    even, odd = _runners(as_partition(lam))
    return from_positions(even), from_positions(odd)


def odd_rows(lam):
    return sum(1 for p in lam if p % 2 == 1)


def d_stat(lam):
    """Sum of floor(lam_{2i} / 2) over the even-indexed rows."""
    return sum(lam[i] // 2 for i in range(1, len(lam), 2))


def v_stat(lam):
    return sum(p // 2 for p in lam)


@lru_cache(maxsize=None)
def enumerate_partitions(n):
    """All partitions of n in lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(sorted(gen(n, n)))


@lru_cache(maxsize=None)
def enumerate_with_core(r, n):
    """All shapes with 2-core staircase(r) and n dominoes, lexicographically.

    Built as the n-fold domino-successor closure of the staircase; the test
    suite checks this against filtering all partitions of the right size
    through two_core.
    """
    if r < 0 or n < 0:
        raise ValueError("r and n must be nonnegative")
    current = {staircase(r)}
    for _ in range(n):
        current = {mu for lam in current for mu, _ in domino_successors(lam)}
    return tuple(sorted(current))


def skew_domino(outer, inner):
    """The skew outer/inner as a domino placement, or None if not a domino;
    compares row lengths only."""
    grown = []
    for r, (length, inner_length) in enumerate(zip_longest(outer, inner, fillvalue=0), start=1):
        if length < inner_length:
            raise ValueError(f"{inner} is not contained in {outer}")
        if length > inner_length:
            grown.append((r, length, inner_length))
    if len(grown) == 1:
        (r, length, inner_length), = grown
        if length == inner_length + 2:
            return DominoShape(r, length - 1, HORIZONTAL)
    elif len(grown) == 2:
        (r, length, _), below = grown
        if below == (r + 1, length, length - 1):
            return DominoShape(r, length, VERTICAL)
    return None


def partition_str(lam):
    return "(" + ",".join(map(str, lam)) + ")"
