"""Sign imbalance of shapes and its domino-tableau evaluation.

The imbalance of a shape is the signed count of its standard Young tableaux
under the row-reading-word sign.  Pairing consecutive values collapses the
sum onto domino tableaux when the 2-core has at most one box, and the
four-variable generating polynomial over all shapes of m collapses to
(x + y)^floor(m/2).
"""

from __future__ import annotations

from collections import Counter

from .partitions import (VERTICAL, as_partition, conjugate, d_stat, domino_predecessors, enumerate_partitions,
                         fold_down, two_core, v_stat)
from .polynomials import IMBALANCE, MPoly


def _corners(lam):
    """(lam less the corner of row r, (-1)^(cells below row r)) for each corner.

    The largest entry of a standard tableau sits in a corner and comes before
    every cell of the rows below it in the reading word, so the imbalance of
    lam is the signed sum of those of these shapes, and 1 at the empty shape.
    """
    out, below = [], 0
    for r in range(len(lam) - 1, -1, -1):
        length = lam[r]
        if r == len(lam) - 1 or length > lam[r + 1]:
            out.append((lam[:r] + (length - 1,) * (length > 1) + lam[r + 1:], -1 if below % 2 else 1))
        below += length
    return out


def _signed_sum(pairs):
    return sum(sign * value for sign, value in pairs)


def imbalances(shapes):
    """The imbalance of each shape, by one walk with one memo for this call."""
    memo = {(): 1}
    return [fold_down(lam, _corners, _signed_sum, memo) for lam in shapes]


def imbalance(lam):
    """Signed count of the standard Young tableaux of the shape."""
    return imbalances([as_partition(lam)])[0]


def _domino_signed_sum(pairs):
    if not pairs:  # a core of three boxes or more
        raise ValueError("a domino sign sum needs a core of at most one box")
    return sum(-value if dom.orient == VERTICAL and dom.col % 2 == 0 else value for dom, value in pairs)


def domino_sign_sums(shapes):
    """Signed counts of standard domino tableaux, by one walk with one memo.  Removing the largest domino d
    takes the two largest values of the split, and only their inversions with later letters, off its reading
    word: as many for each if d is horizontal, c - 1 mod 2 in all if d is vertical in column c.  So a count
    is the sum over removable d of eps(d) times the count without d; eps(d) = -1 for d vertical in an even column."""
    memo = {(): 1, (1,): 1}
    return [fold_down(lam, domino_predecessors, _domino_signed_sum, memo) for lam in shapes]


def domino_sign_sum(lam):
    """Signed count over standard domino tableaux; needs a core of at most one box."""
    return domino_sign_sums([as_partition(lam)])[0]


def pairing_involution(tableau):
    """Swap the first pair (2i-1, 2i), or (2i, 2i+1) over a one-box 2-core of
    the shape, whose cells share no row and no column, the test for the swap to
    leave a standard tableau; fixed points are exactly the split domino tableaux."""
    core_order = sum(two_core(tuple(map(len, tableau))))
    if core_order > 1:
        raise ValueError("pairing involution needs core 0 or 1")
    cell = {value: (r, c) for r, row in enumerate(tableau) for c, value in enumerate(row)}
    for low in range(1 + core_order, len(cell), 2):
        (r1, c1), (r2, c2) = cell[low], cell[low + 1]
        if r1 != r2 and c1 != c2:
            swap = {low: low + 1, low + 1: low}
            return tuple(tuple(swap.get(v, v) for v in row) for row in tableau)
    return tableau


def _imbalance_sum(shapes):
    """Sum over the given shapes of x^v y^v' q^d t^d' times the imbalance."""
    shapes = list(shapes)
    counts = Counter()
    for lam, value in zip(shapes, imbalances(shapes)):
        if value:
            counts[v_stat(lam), v_stat(conjugate(lam)), d_stat(lam), d_stat(conjugate(lam))] += value
    return MPoly(IMBALANCE, counts)


def imbalance_polynomial(m):
    """Sum over shapes of m of x^v y^v' q^d t^d' times the imbalance."""
    return _imbalance_sum(enumerate_partitions(m))


def imbalance_polynomial_hooks(m):
    """The same sum restricted to hook shapes; the other terms cancel."""
    return _imbalance_sum(lam for lam in enumerate_partitions(m) if len(lam) < 2 or lam[1] < 2)


def imbalance_target(m):
    """(x + y)^floor(m/2)."""
    return (MPoly.var("x", IMBALANCE) + MPoly.var("y", IMBALANCE)) ** (m // 2)


def signed_tableau_total(n):
    """Signed count of all standard Young tableaux with n cells."""
    return sum(imbalances(enumerate_partitions(n)))
