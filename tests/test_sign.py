import pytest

from dominsert.partitions import enumerate_partitions, staircase_order, two_core
from dominsert.signimbalance import (
    domino_sign_sum,
    imbalance,
    imbalance_polynomial,
    imbalance_polynomial_hooks,
    imbalance_target,
    pairing_involution,
    signed_tableau_total,
)
from dominsert.polynomials import IMBALANCE, MPoly
from dominsert.verify import check_bar_toggle, check_pairing_involution
from dominsert.young import enumerate_syt, hook_count, syt_sign
from support import imbalance_by_listing


def test_imbalance_small():
    assert imbalance((2,)) == 1
    assert imbalance((1, 1)) == 1
    assert imbalance((2, 1)) == 0  # 2-core is the two-step staircase
    assert imbalance((2, 2)) == 0
    assert domino_sign_sum((2, 2)) == 0


@pytest.mark.parametrize("m", range(11))
def test_imbalance_by_corners_matches_the_listing(m):
    for lam in enumerate_partitions(m):
        assert imbalance(lam) == imbalance_by_listing(lam), lam


def test_imbalance_walks_deep_shapes_without_recursion():
    assert imbalance((1000,)) == imbalance((1,) * 1000) == 1
    assert imbalance((500, 499)) == 0  # its 2-core has three cells


def test_imbalance_identities_past_the_reach_of_listing():
    assert imbalance_polynomial(24) == imbalance_target(24)
    assert imbalance_polynomial_hooks(24) == imbalance_target(24)
    assert signed_tableau_total(20) == 2**10


def test_imbalance_matches_domino_sum():
    for m in range(1, 9):
        for lam in enumerate_partitions(m):
            core = staircase_order(two_core(lam))
            if core in (0, 1):
                assert imbalance(lam) == domino_sign_sum(lam), lam
            else:
                assert imbalance(lam) == 0, lam


def test_imbalance_polynomial():
    x = MPoly.var("x", IMBALANCE)
    y = MPoly.var("y", IMBALANCE)
    assert imbalance_polynomial(1) == MPoly.const(1, IMBALANCE)
    assert imbalance_polynomial(2) == x + y
    for m in range(1, 9):
        assert imbalance_polynomial(m) == imbalance_target(m), m
        assert imbalance_polynomial_hooks(m) == imbalance_target(m), m


def test_signed_totals():
    for n in range(1, 9):
        assert signed_tableau_total(n) == 2 ** (n // 2), n


def test_pairing_involution_structure():
    record = check_pairing_involution(6)
    assert record["pass"], record
    # values sharing a row or column cannot swap, so both fillings of (2,2)
    # split into dominoes and are fixed
    assert pairing_involution(((1, 2),), 0) == ((1, 2),)
    assert pairing_involution(((1, 2), (3, 4)), 0) == ((1, 2), (3, 4))
    assert pairing_involution(((1, 3), (2, 4)), 0) == ((1, 3), (2, 4))
    # in 124/3 the pair (3, 4) sits in different rows and columns
    before = ((1, 2, 4), (3,))
    after = ((1, 2, 3), (4,))
    assert pairing_involution(before, 0) == after
    assert pairing_involution(after, 0) == before
    assert syt_sign(before) == -syt_sign(after)


def test_bar_toggle_cancellation():
    for core in (0, 1):
        record = check_bar_toggle(4, core)
        assert record["pass"], record


def test_syt_utilities():
    assert hook_count((2, 1)) == 2 == len(enumerate_syt((2, 1)))
    assert syt_sign(((1, 2, 3),)) == 1
    assert syt_sign(((1, 3), (2, 4))) == -1
