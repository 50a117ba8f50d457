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


def _swappable(tableau, low):
    """Whether exchanging low and low+1 leaves a standard tableau."""
    position = {}
    for r, row in enumerate(tableau):
        for c, value in enumerate(row):
            if value in (low, low + 1):
                position[value] = (r, c)
    (r1, c1), (r2, c2) = position[low], position[low + 1]
    return r1 != r2 and c1 != c2


def pairing_involution(tableau, core_order):
    """Swap the first swappable pair (2i-1, 2i), or (2i, 2i+1) over a one-box
    core; fixed points are exactly the split domino tableaux."""
    if core_order not in (0, 1):
        raise ValueError("pairing involution needs core 0 or 1")
    n = sum(len(row) for row in tableau)
    for low in range(1 + core_order, n, 2):
        if _swappable(tableau, low):
            swapped = tuple(
                tuple(
                    low if v == low + 1 else (low + 1 if v == low else v)
                    for v in row
                )
                for row in tableau
            )
            return swapped
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
