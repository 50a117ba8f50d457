import pytest

from dominsert.partitions import enumerate_partitions, staircase_order, two_core
from dominsert.signimbalance import (
    domino_sign_sum,
    domino_sign_sums,
    imbalance,
    imbalances,
    imbalance_polynomial,
    imbalance_polynomial_hooks,
    imbalance_target,
    pairing_involution,
    signed_tableau_total,
)
from dominsert.polynomials import IMBALANCE, MPoly
from dominsert.verify import check_bar_toggle, check_imbalance_via_dominoes, check_pairing_involution
from dominsert.young import enumerate_syt, hook_count, syt_sign
from support import domino_sign_sum_by_listing, imbalance_by_listing


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


def test_domino_sign_recursion_matches_the_listing():
    # one memo for all the shapes, and one per shape, give the listing's signed count
    shapes = [lam for m in range(13) for lam in enumerate_partitions(m) if staircase_order(two_core(lam)) in (0, 1)]
    listed = [domino_sign_sum_by_listing(lam) for lam in shapes]
    assert domino_sign_sums(shapes) == listed
    assert [domino_sign_sum(lam) for lam in shapes] == listed


def test_domino_sign_recursion_matches_the_imbalance_to_size_30():
    # the corner recursion shares no step with the domino one; past a one-box core the imbalance is 0
    shapes = [lam for m in range(31) for lam in enumerate_partitions(m)]
    split = [lam for lam in shapes if staircase_order(two_core(lam)) in (0, 1)]
    signs = dict(zip(split, domino_sign_sums(split)))
    assert [signs.get(lam, 0) for lam in shapes] == imbalances(shapes)


def test_the_domino_sign_sum_needs_a_core_of_at_most_one_box():
    for lam in ((2, 1), (500, 499), (6, 5, 4, 3, 2, 1)):
        with pytest.raises(ValueError, match="core of at most one box"):
            domino_sign_sum(lam)
    # over a core of at most one box, a shape of 500 dominoes walks with no recursion limit
    assert domino_sign_sum((1000,)) == domino_sign_sum((1,) * 1001) == 1


def test_imbalance_via_dominoes_runs_past_the_listing_reach():
    record = check_imbalance_via_dominoes(24)
    assert record["pass"] and record["lhs"] == "0 violations in 7337 cases", record


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
    assert pairing_involution(((1, 2),)) == ((1, 2),)
    assert pairing_involution(((1, 2), (3, 4))) == ((1, 2), (3, 4))
    assert pairing_involution(((1, 3), (2, 4))) == ((1, 3), (2, 4))
    # in 124/3 the pair (3, 4) sits in different rows and columns
    before = ((1, 2, 4), (3,))
    after = ((1, 2, 3), (4,))
    assert pairing_involution(before) == after
    assert pairing_involution(after) == before
    assert syt_sign(before) == -syt_sign(after)


def test_pairing_involution_reads_its_core_off_the_shape():
    # (2, 1) is its own 2-core, of three boxes
    with pytest.raises(ValueError, match="core 0 or 1"):
        pairing_involution(((1, 2), (3,)))


def test_bar_toggle_cancellation():
    for core in (0, 1):
        record = check_bar_toggle(4, core)
        assert record["pass"], record


def test_syt_utilities():
    assert hook_count((2, 1)) == 2 == len(enumerate_syt((2, 1)))
    assert syt_sign(((1, 2, 3),)) == 1
    assert syt_sign(((1, 3), (2, 4))) == -1
