"""Truncated symmetric series over exact coefficients.

A series is an ``MPoly`` in x-variables and optionally y-variables with a
bound on the total degree, so it shares the polynomials' sparse add and
product; its coefficients are polynomials in (a, b, c, s) with
s = q^(1/2).  Domino functions are homogeneous of degree equal to their
number of dominoes, so bounding the shape size makes every truncated
identity exact.  A domino function is built in x only; the Cauchy sums
place it in the x or the y block.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from .partitions import (
    as_partition,
    conjugate,
    d_stat,
    enumerate_partitions,
    odd_rows,
    staircase,
    two_core,
    v_stat,
)
from .polynomials import MPoly, PARAMS
from .tableaux import strip_transfer
from .young import enumerate_ssyt


class TruncatedSeries(MPoly):
    """Polynomial in x_1..x_nx (and y_1..y_ny) truncated in total degree,
    with coefficients in ``PARAMS``.  An int or a ``PARAMS`` polynomial on
    either side of ``+`` or ``*`` is a constant series."""

    __slots__ = ()

    def __init__(self, nx, ny, bound, terms=None):
        if nx < 0 or ny < 0 or bound < 0:
            raise ValueError(f"series sizes must be nonnegative, got nx={nx}, ny={ny}, bound={bound}")
        super().__init__([f"x{i + 1}" for i in range(nx)] + [f"y{i + 1}" for i in range(ny)], terms, bound)

    # MPoly's own functions, bound here since perfbench/spans.py reads each class's namespace
    __add__ = __radd__ = MPoly.__add__
    __mul__ = __rmul__ = MPoly.__mul__

    # the block sizes, read off the variable names
    nx = property(lambda self: sum(name[0] == "x" for name in self.names))
    ny = property(lambda self: len(self.names) - self.nx)

    @classmethod
    def one(cls, nx, ny, bound):
        return cls(nx, ny, bound, {(0,) * (nx + ny): MPoly.const(1, PARAMS)})

    @classmethod
    def zero(cls, nx, ny, bound):
        return cls(nx, ny, bound)

    def _coerce(self, other):
        if isinstance(other, int):
            other = MPoly.const(other, PARAMS)
        if type(other) is MPoly:
            if other.names != PARAMS:
                raise ValueError(f"series coefficients are in {PARAMS}, not {other.names}")
            return self._new({(0,) * len(self.names): other} if other else {})
        return super()._coerce(other)

    def subs(self, assignments):
        return TruncatedSeries(self.nx, self.ny, self.bound, {e: c.subs(assignments) for e, c in self.terms.items()})

    def monomial_str(self, exps):
        return self._monomial_str(exps) or "1"

    def lines(self):
        ordered = sorted(self.terms, key=lambda e: (sum(e), e))
        return [f"{self.monomial_str(exps)}: {self.terms[exps]}" for exps in ordered]

    def __str__(self):
        return "\n".join(self.lines()) if self.terms else "0"

    def __repr__(self):
        return f"TruncatedSeries({self.nx}, {self.ny}, {self.bound}, {self.terms!r})"


def expand_product(factors, nx, ny, bound):
    """The product of (1 + coeff * monomial)^power over the ``(coeff, exps,
    power)`` triples, power +1 or -1, truncated at ``bound``."""
    total = TruncatedSeries.one(nx, ny, bound)
    one = MPoly.const(1, PARAMS)
    for coeff, exps, power in factors:
        degree = sum(exps)
        if degree == 0:
            raise ValueError("factor monomial must have positive degree")
        if power not in (1, -1):
            raise ValueError("factor power must be +1 or -1")
        terms = {(0,) * (nx + ny): one}
        if power == 1:
            terms[exps] = coeff
        else:
            # geometric expansion of 1 / (1 + u): alternating powers of u
            u = current = -coeff
            for k in range(1, bound // degree + 1):
                terms[tuple(e * k for e in exps)] = current
                current = current * u
        total = total * TruncatedSeries(nx, ny, bound, terms)
    return total


def _exponents(width, *indices):
    """The exponent vector of ``width`` variables with one more at each index."""
    exps = [0] * width
    for i in indices:
        exps[i] += 1
    return tuple(exps)


def schur(lam, nx, bound):
    """Schur polynomial in nx variables by semistandard Young tableau enumeration."""
    counts = Counter(_exponents(nx, *(value - 1 for row in tab for value in row)) for tab in enumerate_ssyt(lam, nx))
    return TruncatedSeries(nx, 0, bound, {key: MPoly.const(n, PARAMS) for key, n in counts.items()})


def _from_row(row, nx, bound, complement=False):
    """G in x from its row of ``strip_transfer``: x^exps has the sum of s^v over
    its tableaux, or with ``complement`` of s^(m - v), m = |exps|: q^(m/2) G(X; 1/q)."""
    spins = defaultdict(dict)  # x exponents -> (a, b, c, s) exponents -> tableaux
    for (*exps, v), count in row.items():
        spins[tuple(exps)][0, 0, 0, sum(exps) - v if complement else v] = count
    return TruncatedSeries(nx, 0, bound, {exps: MPoly(PARAMS, terms) for exps, terms in spins.items()})


def domino_function(lam, nx, bound):
    """Domino function in x: sum of q^spin x^weight over semistandard fillings,
    read off a strip transfer kept inside lam."""
    lam = as_partition(lam)
    return _from_row(strip_transfer(two_core(lam), nx, bound, _limit=lam).get(lam, {}), nx, bound)


# ---------------------------------------------------------------------------
# identity sides


def _cauchy_sum(core, nx, bound, dual):
    """Sum over the shapes lam of one 2-core of G_lam(X) G_lam(Y), or with
    ``dual`` of G_lam(X) q^(m/2) G_lam'(Y; 1/q), each G read off one strip
    transfer in x and padded with nx zeros to place it in the x or y block."""
    total = TruncatedSeries.zero(nx, nx, 2 * bound)
    zeros = (0,) * nx
    table = strip_transfer(staircase(core), nx, bound)
    for lam, row in table.items():
        g = _from_row(row, nx, bound)  # lam' has lam's core, and G = 0 off the table
        h = _from_row(table.get(conjugate(lam), {}), nx, bound, complement=True) if dual else g
        gx = TruncatedSeries(nx, nx, 2 * bound, {e + zeros: c for e, c in g.terms.items()})
        gy = TruncatedSeries(nx, nx, 2 * bound, {zeros + e: c for e, c in h.terms.items()})
        total = total + gx * gy
    return total


def cauchy_sum(core, nx, bound):
    return _cauchy_sum(core, nx, bound, dual=False)


def dual_cauchy_sum(core, nx, bound):
    return _cauchy_sum(core, nx, bound, dual=True)


def _xy_grid_product(nx, bound, sign):
    """Product over all i, j of ((1 + sign x_i y_j)(1 + sign q x_i y_j))^sign, for sign 1 or -1."""
    coeffs = (MPoly.const(sign, PARAMS), MPoly.var("s", PARAMS, power=2, coeff=sign))
    cells = [_exponents(2 * nx, i, nx + j) for i in range(nx) for j in range(nx)]
    factors = [(coeff, exps, sign) for exps in cells for coeff in coeffs]
    return expand_product(factors, nx, nx, 2 * bound)


def cauchy_product(nx, bound):
    """Product of 1 / ((1 - x_i y_j)(1 - q x_i y_j)) over all i, j."""
    return _xy_grid_product(nx, bound, -1)


def dual_cauchy_product(nx, bound):
    """Product of (1 + x_i y_j)(1 + q x_i y_j) over all i, j."""
    return _xy_grid_product(nx, bound, 1)


def shape_weight(lam):
    """a^((o(lam) - o(core))/2) b^((o(lam') - o(core))/2) c^(d(lam) - d(core)), core = two_core(lam);
    each difference is even, as a domino changes the odd rows, and the odd columns, by 0 or 2."""
    base = two_core(lam)
    o_diff = odd_rows(lam) - odd_rows(base)
    oc_diff = odd_rows(conjugate(lam)) - odd_rows(base)
    return MPoly(PARAMS, {(o_diff // 2, oc_diff // 2, d_stat(lam) - d_stat(base), 0): 1})  # a, b, c, s


def weighted_domino_sum(core, nx, bound):
    """Three-parameter sum of a^.. b^.. c^.. G(X; q) over one 2-core class."""
    total = TruncatedSeries.zero(nx, 0, bound)
    for lam, row in strip_transfer(staircase(core), nx, bound).items():
        total = total + _from_row(row, nx, bound) * shape_weight(lam)
    return total


def weighted_domino_product(nx, bound):
    """Product side: (1 + a s x_i) over (1 - b x_i)(1 - c q x_i^2), and
    (1 - c x_i x_j)(1 - c q x_i x_j) below the diagonal."""
    a, b, c, s = (MPoly.var(name, PARAMS) for name in PARAMS)
    q = s * s
    factors = []
    for i in range(nx):
        single = _exponents(nx, i)
        factors.append((a * s, single, 1))
        factors.append((-b, single, -1))
        factors.append((-c * q, _exponents(nx, i, i), -1))
    for i in range(nx):
        for j in range(i + 1, nx):
            pair = _exponents(nx, i, j)
            factors.append((-c, pair, -1))
            factors.append((-c * q, pair, -1))
    return expand_product(factors, nx, 0, bound)


def schur_sum(nx, bound, weight=None):
    """Sum of (optionally weighted) Schur polynomials over all shapes."""
    total = TruncatedSeries.zero(nx, 0, bound)
    for m in range(bound + 1):
        for lam in enumerate_partitions(m):
            term = schur(lam, nx, bound)
            if weight is not None:
                term = term * weight(lam)
            total = total + term
    return total


# ---------------------------------------------------------------------------
# specializations


def specialization_square(total):
    """a=b=c=s=1 in ``total``, the core-0 ``weighted_domino_sum``: the square
    of the classical Schur-sum product identity."""
    classical = schur_sum(total.nx, total.bound)
    return total.subs({"a": 1, "b": 1, "c": 1, "s": 1}), classical * classical


def specialization_zero_spin(total):
    """s=0 in ``total``: Schur sum weighted by odd columns and column pairs."""
    nx, bound = total.nx, total.bound

    def weight(lam):
        conj = conjugate(lam)
        return MPoly(PARAMS, {(0, odd_rows(conj), v_stat(conj), 0): 1})  # a, b, c, s

    rhs = schur_sum(nx, bound, weight=weight)
    b = MPoly.var("b", PARAMS)
    c = MPoly.var("c", PARAMS)
    factors = [(-b, _exponents(nx, i), -1) for i in range(nx)]
    factors.extend((-c, _exponents(nx, i, j), -1) for i in range(nx) for j in range(i + 1, nx))
    return total.subs({"s": 0}), rhs, expand_product(factors, nx, 0, bound)


def _even_shapes(total, values, columns):
    """``total`` at ``values`` and the sum of G over the shapes with even
    rows, and with ``columns`` even columns too, from one strip transfer."""
    rhs = TruncatedSeries.zero(total.nx, 0, total.bound)
    for lam, row in strip_transfer((), total.nx, total.bound).items():
        if odd_rows(lam) == 0 and not (columns and odd_rows(conjugate(lam))):
            rhs = rhs + _from_row(row, total.nx, total.bound)
    return total.subs(values), rhs


def specialization_even_rows(total):
    """a=0, b=c=1 picks out the even-row shapes."""
    return _even_shapes(total, {"a": 0, "b": 1, "c": 1}, columns=False)


def specialization_even_both(total):
    """a=b=0, c=1 picks out shapes with even rows and even columns."""
    return _even_shapes(total, {"a": 0, "b": 0, "c": 1}, columns=True)
