import itertools
import operator

import pytest

from dominsert import series
from dominsert.partitions import conjugate, d_stat, enumerate_with_core, odd_rows, staircase, two_quotient
from dominsert.polynomials import MPoly, PARAMS
from dominsert.series import (
    TruncatedSeries,
    cauchy_product,
    cauchy_sum,
    domino_function,
    dual_cauchy_product,
    dual_cauchy_sum,
    expand_product,
    schur,
    shape_weight,
    specialization_even_both,
    specialization_even_rows,
    specialization_square,
    specialization_zero_spin,
    weighted_domino_product,
    weighted_domino_sum,
)
from dominsert.tableaux import strip_transfer
from support import domino_function_by_listing

ONE = MPoly.const(1, PARAMS)
Q = MPoly.var("s", PARAMS, power=2)
S = MPoly.var("s", PARAMS)


def is_symmetric(series):
    """Invariance under permuting the x-block and the y-block."""
    for perm in itertools.permutations(range(series.nx)):
        swapped = {}
        for exps, coeff in series.terms.items():
            key = tuple(exps[perm[i]] for i in range(series.nx)) + exps[series.nx:]
            swapped[key] = coeff
        if swapped != series.terms:
            return False
    for perm in itertools.permutations(range(series.ny)):
        swapped = {}
        for exps, coeff in series.terms.items():
            key = exps[: series.nx] + tuple(exps[series.nx + perm[i]] for i in range(series.ny))
            swapped[key] = coeff
        if swapped != series.terms:
            return False
    return True


def test_series_ring_basics():
    one = TruncatedSeries.one(2, 0, 3)
    x1 = TruncatedSeries(2, 0, 3, {(1, 0): ONE})
    x2 = TruncatedSeries(2, 0, 3, {(0, 1): ONE})
    assert one * x1 == x1
    # truncation at total degree 1 drops the cross term
    low = TruncatedSeries(2, 0, 1, {(0, 0): ONE, (1, 0): ONE})
    low2 = TruncatedSeries(2, 0, 1, {(0, 0): ONE, (0, 1): ONE})
    product = low * low2
    assert product == TruncatedSeries(2, 0, 1, {(0, 0): ONE, (1, 0): ONE, (0, 1): ONE})


def test_geometric_factor():
    geo = expand_product([(-ONE, (1,), -1)], 1, 0, 3)
    assert geo == TruncatedSeries(1, 0, 3, {(0,): ONE, (1,): ONE, (2,): ONE, (3,): ONE})
    binom = expand_product([(Q, (1,), 1)], 1, 0, 3)
    assert binom.terms[(1,)] == Q


def test_expand_product_small():
    x1y1 = (ONE, (1, 1), 1)
    assert expand_product([x1y1], 1, 1, 4).terms[(1, 1)] == ONE
    halves = expand_product(
        [(-ONE, (1, 0), -1), (-ONE, (0, 1), -1)], 2, 0, 2
    )
    assert halves.terms[(1, 1)] == ONE and halves.terms[(2, 0)] == ONE


def test_schur_examples():
    assert schur((1,), 2, 3).terms == {(1, 0): ONE, (0, 1): ONE}
    assert schur((2,), 2, 3).terms == {(2, 0): ONE, (1, 1): ONE, (0, 2): ONE}
    assert schur((1, 1), 2, 3).terms == {(1, 1): ONE}


def test_domino_function_examples():
    g22 = domino_function((2, 2), 2, 4)
    assert g22 == schur((2,), 2, 4) * Q + schur((1, 1), 2, 4)
    g311 = domino_function((3, 1, 1), 2, 4)
    assert g311 == (schur((2,), 2, 4) + schur((1, 1), 2, 4)) * S
    assert g22 != g311  # equal 2-quotients, different functions
    assert domino_function((), 2, 4) == TruncatedSeries.one(2, 0, 4)
    assert domino_function((2, 1), 2, 4) == TruncatedSeries.one(2, 0, 4)


def test_domino_function_symmetry_and_zero_spin():
    for lam in ((2, 2), (3, 1), (4,), (3, 1, 1), (2, 2, 1, 1)):
        assert is_symmetric(domino_function(lam, 2, 4))
    assert domino_function((4,), 2, 4).subs({"s": 0}) == schur((2,), 2, 4)
    assert domino_function((2, 2), 2, 4).subs({"s": 0}) == schur((1, 1), 2, 4)
    assert domino_function((3, 1), 2, 4).subs({"s": 0}) == TruncatedSeries.zero(2, 0, 4)


def test_domino_function_at_q_one_factors_through_the_two_quotient():
    """G_lam(X; 1) = s_lam0(X) s_lam1(X) for the 2-quotient (lam0, lam1)
    (Stanton-White; Carre-Leclerc), checked by Schur polynomials of the
    quotient rather than domino tableaux."""
    shapes = [lam for core in (0, 1, 2) for n in range(5) for lam in enumerate_with_core(core, n)]
    assert len(shapes) == 114
    for lam in shapes:
        lam0, lam1 = two_quotient(lam)
        assert domino_function(lam, 2, 4).subs({"s": 1}) == schur(lam0, 2, 4) * schur(lam1, 2, 4), lam


def test_doubled_shape_has_even_rows():
    # H of mu is the domino function of the doubled shape
    assert domino_function((4, 2), 2, 3).subs({"s": 0}) == schur((2, 1), 2, 3)


def test_cauchy_identities():
    for core in (0, 1, 2):
        assert cauchy_sum(core, 1, 2) == cauchy_product(1, 2), core
        assert dual_cauchy_sum(core, 1, 2) == dual_cauchy_product(1, 2), core
    assert cauchy_sum(0, 2, 2) == cauchy_product(2, 2)
    assert dual_cauchy_sum(0, 2, 2) == dual_cauchy_product(2, 2)


def test_each_sum_runs_one_strip_transfer(monkeypatch):
    # every G of a sum, and in the dual sum the conjugate's G too, is read off one transfer per call
    calls = []
    real_transfer = series.strip_transfer
    monkeypatch.setattr(series, "strip_transfer", lambda *args, **kwargs: calls.append(args) or real_transfer(*args, **kwargs))
    for core in (0, 1, 2):
        for total, product in ((cauchy_sum, cauchy_product), (dual_cauchy_sum, dual_cauchy_product)):
            calls.clear()
            assert total(core, 2, 3) == product(2, 3)
            assert calls == [(staircase(core), 2, 3)], (total, core)
        calls.clear()
        assert weighted_domino_sum(core, 2, 3) == weighted_domino_product(2, 3)
        assert calls == [(staircase(core), 2, 3)], core
    total = weighted_domino_sum(0, 2, 4)
    for specialization in (specialization_even_rows, specialization_even_both):
        calls.clear()
        lhs, rhs = specialization(total)
        assert lhs == rhs and calls == [((), 2, 4)]


def test_domino_functions_match_the_listing():
    # the transfer kept inside one shape, and the one over every shape of its core, against listed tableaux
    for core in (0, 1, 2):
        table = strip_transfer(staircase(core), 2, 4)
        for lam in (lam for n in range(5) for lam in enumerate_with_core(core, n)):
            assert table.get(lam, {}) == strip_transfer(staircase(core), 2, 4, _limit=lam).get(lam, {}), lam
            assert domino_function(lam, 2, 4) == domino_function_by_listing(lam, 2, 4), lam
            dual = series._from_row(table.get(lam, {}), 2, 4, complement=True)
            assert dual == domino_function_by_listing(lam, 2, 4, True), lam


def test_weighted_sum_product_and_core_independence():
    reference = None
    for core in (0, 1, 2):
        lhs = weighted_domino_sum(core, 2, 3)
        assert lhs == weighted_domino_product(2, 3), core
        if reference is None:
            reference = lhs
        assert lhs == reference, core


def test_degree_zero_terms():
    lhs = cauchy_sum(0, 2, 0)
    assert lhs == cauchy_product(2, 0)
    assert lhs.terms == {(0, 0, 0, 0): ONE}


def test_specializations():
    lhs, rhs = specialization_square(weighted_domino_sum(0, 1, 3))
    assert lhs == rhs
    lhs, rhs = specialization_square(weighted_domino_sum(0, 2, 3))
    assert lhs == rhs
    l2, r2, p2 = specialization_zero_spin(weighted_domino_sum(0, 2, 3))
    assert l2 == r2 == p2
    l3, r3 = specialization_even_rows(weighted_domino_sum(0, 2, 4))
    assert l3 == r3
    l4, r4 = specialization_even_both(weighted_domino_sum(0, 2, 4))
    assert l4 == r4


def test_truncation_consistency():
    full = weighted_domino_sum(0, 2, 4)
    assert TruncatedSeries(full.nx, full.ny, 2, full.terms) == weighted_domino_sum(0, 2, 2)


def test_series_config_mismatch():
    with pytest.raises(ValueError):
        TruncatedSeries.one(1, 0, 2) + TruncatedSeries.one(2, 0, 2)
    for other in (TruncatedSeries.one(1, 1, 2), TruncatedSeries.one(1, 0, 3)):
        for op in (operator.add, operator.mul):
            with pytest.raises(ValueError):
                op(TruncatedSeries.one(1, 0, 2), other)
    with pytest.raises(ValueError):
        TruncatedSeries.one(1, 0, 2) + MPoly.var("s", ("s",))


def _with_coefficient(series, coeff, op):
    """``series`` with ``coeff`` added to its constant term or multiplied
    into every coefficient, built term by term."""
    coeff = MPoly.const(coeff, PARAMS) if isinstance(coeff, int) else coeff
    if op is operator.mul:
        terms = {exps: c * coeff for exps, c in series.terms.items()}
    else:
        constant = (0,) * (series.nx + series.ny)
        terms = {**series.terms, constant: series.terms.get(constant, MPoly.zero(PARAMS)) + coeff}
    return TruncatedSeries(series.nx, series.ny, series.bound, terms)


@pytest.mark.parametrize("op", [operator.add, operator.mul], ids=["add", "mul"])
@pytest.mark.parametrize("coeff", [2, -1, 0, S, Q + 1], ids=["2", "-1", "0", "s", "q+1"])
@pytest.mark.parametrize("constant", [0, 1], ids=["no-constant", "constant-1"])
def test_a_coefficient_on_either_side(op, coeff, constant):
    g = domino_function((2, 2), 2, 4)
    if constant:
        g = TruncatedSeries(2, 0, 4, {**g.terms, (0, 0): MPoly.const(constant, PARAMS)})
    expected = _with_coefficient(g, coeff, op)
    for result in (op(g, coeff), op(coeff, g)):
        assert isinstance(result, TruncatedSeries) and result == expected


@pytest.mark.parametrize(
    "value",
    [
        MPoly.var("s", PARAMS, power=2, coeff=-3) + 1,
        MPoly(("x", "y"), {(1, 2): 5, (3, 0): 1}, bound=3),
        TruncatedSeries.one(1, 0, 2),
        domino_function((2, 2), 2, 4),
        cauchy_product(1, 2),
    ],
    ids=["mpoly", "bounded-mpoly", "series-one", "series", "series-x-and-y"],
)
def test_repr_evaluates_back_to_the_value(value):
    # repr names the class and keeps the degree bound, so a series and a polynomial print apart
    copy = eval(repr(value), {"MPoly": MPoly, "TruncatedSeries": TruncatedSeries})
    assert type(copy) is type(value) and copy == value


def test_shape_weight_reads_the_core_off_the_shape():
    # the formula that took the core order as an argument, against the one that reads it
    def weight_over(lam, core):
        base = staircase(core)
        o_diff, oc_diff = odd_rows(lam) - odd_rows(base), odd_rows(conjugate(lam)) - odd_rows(base)
        assert o_diff % 2 == oc_diff % 2 == 0
        return MPoly(PARAMS, {(o_diff // 2, oc_diff // 2, d_stat(lam) - d_stat(base), 0): 1})

    for core in range(4):
        for n in range(7):
            for lam in enumerate_with_core(core, n):
                assert shape_weight(lam) == weight_over(lam, core), lam
