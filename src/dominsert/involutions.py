"""Signed involutions, their insertion statistics, and counting identities.

For an involution the insertion and recording tableaux coincide, and the
shape statistics are controlled by the cycle profile: with ``a`` fixed
points, ``b`` barred fixed points, ``c`` two-cycles and ``d`` barred
two-cycles,

* ``sp(P) = b/2 + d``
* ``(o(shape) - o(core)) / 2 = b``
* ``(o(shape') - o(core)) / 2 = a``
* ``d(shape) - d(core) = c + d``

(Each ``+1`` square on the diagonal of the symmetric growth diagram adds
two odd columns, each ``-1`` square two odd rows, and each off-diagonal
cycle exactly one unit of the ``d`` statistic.)
"""

from __future__ import annotations

import math
from collections import Counter

from .insertion import insert_word
from .partitions import (
    conjugate, d_stat, enumerate_partitions, enumerate_with_core, odd_rows, size, staircase, two_quotient,
)
from .polynomials import MPoly, PARAMS, one_plus_q
from .series import shape_weight
from .tableaux import spin_polys, tableau_sign
from .words import enumerate_involutions, involution_profile
from .young import hook_count, involution_number


def involution_statistics(pi, core=0):
    """Each statistic of the insertion tableau of a signed involution against
    its value from the cycle profile, as name -> (lhs, rhs).  The shape
    statistics are taken relative to the core, and the vertical dominoes split
    by column parity as ev = d and ov = b + d.  The sign of the tableau,
    (-1)^d, is only defined over a core of at most one box, so
    ``"insertion sign"`` is present exactly then."""
    profile = involution_profile(pi)
    result = insert_word(pi, core)
    if result.p != result.q:
        raise ValueError("insertion of an involution must be symmetric")
    tab, base = result.p, staircase(core)
    lam = tab.shape()
    a, b = profile.fixed, profile.barred_fixed
    c, d = profile.two_cycles, profile.barred_two_cycles
    stats = {
        "double spin": (tab.vertical_count(), b + 2 * d),
        "odd rows": (odd_rows(lam) - odd_rows(base), 2 * b),
        "odd columns": (odd_rows(conjugate(lam)) - odd_rows(base), 2 * a),
        "d statistic": (d_stat(lam) - d_stat(base), c + d),
        "even vertical": (tab.even_vertical(), d),
        "odd vertical": (tab.odd_vertical(), b + d),
    }
    if core <= 1:
        stats["insertion sign"] = (tableau_sign(tab), (-1) ** d)
    return stats


def involution_poly(n, core=0):
    """Sum over shapes with n dominoes of a^.. b^.. c^.. times the spin
    polynomial; independent of the core."""
    shapes = enumerate_with_core(core, n)
    total = MPoly.zero(PARAMS)
    for lam, poly in zip(shapes, spin_polys(shapes)):
        total = total + shape_weight(lam) * poly
    return total


def involution_poly_direct(n):
    """The same polynomial, summed over signed involutions by cycle profile."""
    counts = Counter()
    for pi in enumerate_involutions(n):
        p = involution_profile(pi)
        counts[p.barred_fixed, p.fixed, p.two_cycles + p.barred_two_cycles,  # a, b, c, s
               p.barred_fixed + 2 * p.barred_two_cycles] += 1
    return MPoly(PARAMS, counts)


def involution_poly_recursive(n):
    """h(n+1) = (b + a s) h(n) + n c (1 + s^2) h(n-1)."""
    h0 = MPoly.const(1, PARAMS)
    if n == 0:
        return h0
    h1 = MPoly.var("b", PARAMS) + MPoly.var("a", PARAMS) * MPoly.var("s", PARAMS)
    previous, current = h0, h1
    for m in range(1, n):
        nxt = h1 * current + m * MPoly.var("c", PARAMS) * one_plus_q() * previous
        previous, current = current, nxt
    return current


def involution_poly_egf(n):
    """n! times the t^n coefficient of exp((b + a s) t + c (1 + s^2) t^2 / 2).

    Expanded with the exponential formula: the number of involutions of [n]
    with j two-cycles is n! / ((n - 2j)! j! 2^j).
    """
    single = MPoly.var("b", PARAMS) + MPoly.var("a", PARAMS) * MPoly.var("s", PARAMS)
    double = MPoly.var("c", PARAMS) * one_plus_q()
    total = MPoly.zero(PARAMS)
    for j in range(n // 2 + 1):
        count = math.factorial(n) // (math.factorial(n - 2 * j) * math.factorial(j) * 2**j)
        total = total + count * single ** (n - 2 * j) * double**j
    return total


def spin_square_sum(n, core=0):
    """Sum of the squared spin polynomials over shapes with n dominoes."""
    total = MPoly.zero(PARAMS)
    for poly in spin_polys(enumerate_with_core(core, n)):
        total = total + poly * poly
    return total


def spin_square_target(n):
    """(1 + q)^n  n!, written in s."""
    return math.factorial(n) * one_plus_q() ** n


def standard_tableau_count(lam):
    """Number of standard domino tableaux, as a counting oracle.

    The 2-quotient bijection sends a tableau with n dominoes to a pair of
    Young tableaux on the quotient shapes whose entries partition [n], so
    the count carries a binomial factor for the split of the values.
    """
    q0, q1 = two_quotient(lam)
    n = size(q0) + size(q1)
    return math.comb(n, size(q0)) * hook_count(q0) * hook_count(q1)


def classical_counts(n):
    """Hook-length oracles: sum of squares is n!, plain sum is t(n)."""
    shapes = enumerate_partitions(n)
    counts = [hook_count(lam) for lam in shapes]
    return {
        "sum_fsq": sum(f * f for f in counts),
        "sum_f": sum(counts),
        "factorial": math.factorial(n),
        "involutions": involution_number(n),
    }
