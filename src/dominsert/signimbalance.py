"""Sign imbalance of shapes and its domino-tableau evaluation.

The imbalance of a shape is the signed count of its standard Young tableaux
under the row-reading-word sign.  Pairing consecutive values collapses the
sum onto domino tableaux when the 2-core has at most one box, and the
four-variable generating polynomial over all shapes of m collapses to
(x + y)^floor(m/2).
"""

from __future__ import annotations

from collections import Counter

from .partitions import conjugate, d_stat, enumerate_partitions, v_stat
from .polynomials import IMBALANCE, MPoly
from .tableaux import enumerate_standard, tableau_sign
from .young import enumerate_syt, syt_sign


def imbalance(lam):
    """Signed count of the standard Young tableaux of the shape."""
    return sum(syt_sign(t) for t in enumerate_syt(lam))


def domino_sign_sum(lam):
    """Signed count over standard domino tableaux; needs a core of at most
    one box."""
    return sum(tableau_sign(t) for t in enumerate_standard(lam))


def pairing_involution(tableau, core_order):
    """Swap the first pair (2i-1, 2i), or (2i, 2i+1) over a one-box core,
    whose cells share no row and no column, the test for the swap to leave
    a standard tableau; fixed points are exactly the split domino tableaux."""
    if core_order not in (0, 1):
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
    counts = Counter()
    for lam in shapes:
        value = imbalance(lam)
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
    return sum(imbalance(lam) for lam in enumerate_partitions(n))
