import pytest

from dominsert.involutions import (
    classical_counts,
    involution_poly,
    involution_poly_direct,
    involution_poly_egf,
    involution_poly_recursive,
    involution_statistics,
    spin_square_sum,
    spin_square_target,
)
from dominsert.polynomials import MPoly, PARAMS, one_plus_q
from dominsert.words import enumerate_involutions, parse_word

from support import count_insertions

SHAPE_STATS = ("double spin", "odd rows", "odd columns", "d statistic")


def test_involution_counts():
    assert len(enumerate_involutions(0)) == 1
    assert len(enumerate_involutions(1)) == 2
    assert len(enumerate_involutions(2)) == 6
    # matches the recursion h(n+1) = 2 h(n) + 2n h(n-1) at a=b=c=s=1
    assert len(enumerate_involutions(3)) == 2 * 6 + 2 * 2 * 2 == 20


def test_identity_involution_stats():
    stats = involution_statistics(parse_word("1 2 3"), 0)
    spin, rows, cols, dstat = (stats[name] for name in SHAPE_STATS)
    assert spin == (0, 0)
    assert rows == (0, 0)
    # the identity inserts to a single flat row, so every column is odd
    assert cols == (2 * 3, 2 * 3)
    assert dstat == (0, 0)


def test_barred_letter_stats():
    stats = involution_statistics(parse_word("1'"), 0)
    spin, rows, cols, dstat = (stats[name] for name in SHAPE_STATS)
    assert spin == (1, 1)  # shape (1,1): one vertical domino
    assert rows == (2, 2)
    assert cols == (0, 0)
    assert dstat == (0, 0)
    even, odd = stats["even vertical"], stats["odd vertical"]
    assert even == (0, 0) and odd == (1, 1)


def test_involution_stats_exhaustive():
    for n in range(5):
        for core in (0, 1, 2):
            for pi in enumerate_involutions(n):
                assert all(lhs == rhs for lhs, rhs in involution_statistics(pi, core).values())


def test_insertion_sign():
    assert involution_statistics(parse_word("1 2"), 0)["insertion sign"][0] == 1
    barred_cycle = involution_statistics(parse_word("2' 1'"), 0)["insertion sign"]
    assert barred_cycle == (-1, -1)
    for n in range(5):
        for core in (0, 1):
            for pi in enumerate_involutions(n):
                lhs, rhs = involution_statistics(pi, core)["insertion sign"]
                assert lhs == rhs


def test_insertion_sign_only_over_a_core_of_at_most_one_box():
    pi = parse_word("2' 1'")
    assert ["insertion sign" in involution_statistics(pi, core) for core in range(4)] == [True, True, False, False]


def test_involution_statistics_insert_once(monkeypatch):
    calls = count_insertions(monkeypatch)
    involution_statistics(parse_word("3 2' 1"), 1)
    assert calls == [parse_word("3 2' 1")]


def test_non_involution_rejected():
    with pytest.raises(ValueError):
        involution_statistics(parse_word("2 3 1"), 0)


def test_involution_poly_base_cases():
    a = MPoly.var("a", PARAMS)
    b = MPoly.var("b", PARAMS)
    c = MPoly.var("c", PARAMS)
    s = MPoly.var("s", PARAMS)
    assert involution_poly_recursive(0) == MPoly.const(1, PARAMS)
    assert involution_poly_recursive(1) == b + a * s
    assert involution_poly_recursive(2) == (b + a * s) ** 2 + c * one_plus_q()


def test_involution_poly_routes_agree():
    for n in range(7):
        reference = involution_poly_recursive(n)
        assert involution_poly_direct(n) == reference
        assert involution_poly_egf(n) == reference
    for n in range(5):
        reference = involution_poly_recursive(n)
        for core in (0, 1, 2):
            assert involution_poly(n, core) == reference


def test_spin_square_sum():
    s = MPoly.var("s", PARAMS)
    assert spin_square_sum(1, 0) == 1 + s * s
    assert spin_square_sum(0, 2) == spin_square_target(0)
    for n in range(5):
        for core in (0, 1, 2):
            assert spin_square_sum(n, core) == spin_square_target(n)


def test_classical_counts():
    three = classical_counts(3)
    assert three["sum_fsq"] == 6 and three["sum_f"] == 4
    zero = classical_counts(0)
    assert zero["sum_fsq"] == 1 and zero["sum_f"] == 1
    for n in range(9):
        counts = classical_counts(n)
        assert counts["sum_fsq"] == counts["factorial"]
        assert counts["sum_f"] == counts["involutions"]
