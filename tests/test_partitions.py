import itertools
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from dominsert.insertion import _partner
from dominsert.partitions import (
    DominoShape,
    add_domino,
    as_partition,
    conjugate,
    d_stat,
    domino_predecessors,
    domino_successors,
    enumerate_partitions,
    enumerate_with_core,
    lift_domino,
    odd_rows,
    place_domino,
    remove_domino,
    size,
    skew_domino,
    staircase,
    staircase_order,
    two_core,
    two_quotient,
    v_stat,
)
from support import domino_predecessors_by_rows


@st.composite
def partitions(draw, max_size=12):
    n = draw(st.integers(min_value=0, max_value=max_size))
    shapes = enumerate_partitions(n)
    return shapes[draw(st.integers(min_value=0, max_value=len(shapes) - 1))]


def all_shapes(max_size):
    for n in range(max_size + 1):
        yield from enumerate_partitions(n)


def test_as_partition_validation():
    assert as_partition([3, 1, 0, 0]) == (3, 1)
    with pytest.raises(ValueError):
        as_partition([1, 2])
    with pytest.raises(ValueError):
        as_partition([2, -1])


@given(partitions())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert size(conjugate(lam)) == size(lam)


def test_domino_shape_is_its_triple():
    triples = [(r, c, o) for r in (1, 2, 3) for c in (1, 2, 3) for o in ("h", "v")]
    random.Random(0).shuffle(triples)
    dominoes = [DominoShape(*t) for t in triples]
    for dom, triple in zip(dominoes, triples):
        assert dom == triple and hash(dom) == hash(triple)
        copy = pickle.loads(pickle.dumps(dom))
        assert copy == dom and type(copy) is DominoShape
    assert sorted(dominoes) == sorted(triples)
    assert [d < t for d in dominoes for t in triples] == [a < b for a in triples for b in triples]
    for bad in ((0, 1, "h"), (1, 0, "v"), (1, 1, "x")):
        with pytest.raises(ValueError, match="bad domino placement"):
            DominoShape(*bad)


def test_staircase():
    assert staircase(0) == ()
    assert staircase(1) == (1,)
    assert staircase(3) == (3, 2, 1)
    assert staircase_order((2, 1)) == 2
    assert staircase_order((2, 2)) is None
    with pytest.raises(ValueError):
        staircase(-1)


def test_two_core_examples():
    assert two_core((5, 5, 4, 1, 1)) == ()  # fully tileable shape
    assert two_core(()) == ()
    assert two_core((2, 1)) == (2, 1)


def test_two_core_is_staircase_exhaustive():
    for lam in all_shapes(12):
        assert staircase_order(two_core(lam)) is not None, lam


def test_two_core_order_independent():
    # walk every removal order on small shapes; all terminate at one core
    for lam in all_shapes(10):
        terminals = set()

        def explore(shape):
            preds = domino_predecessors(shape)
            if not preds:
                terminals.add(shape)
                return
            for mu, _ in preds:
                explore(mu)

        explore(lam)
        assert terminals == {two_core(lam)}, lam


def peeled_core(lam):
    """Oracle: peel the first removable domino until none is left."""
    while preds := domino_predecessors(lam):
        lam = preds[0][0]
    return lam


def test_two_core_matches_peeling():
    for lam in all_shapes(14):
        assert two_core(lam) == peeled_core(lam), lam


def test_two_quotient_examples():
    assert two_quotient((2, 2)) == ((1,), (1,))
    assert two_quotient((3, 1, 1)) == ((1,), (1,))
    assert two_quotient(()) == ((), ())


def test_two_quotient_size_identity():
    for lam in all_shapes(12):
        q0, q1 = two_quotient(lam)
        assert size(lam) == size(two_core(lam)) + 2 * (size(q0) + size(q1)), lam


def test_shape_stats_examples():
    assert (odd_rows((1,)), odd_rows(conjugate((1,))), d_stat((1,))) == (1, 1, 0)
    assert (odd_rows((2, 2)), odd_rows(conjugate((2, 2))), d_stat((2, 2)), v_stat((2, 2))) == (0, 0, 1, 2)


def test_d_symmetric_and_v_identity():
    for lam in all_shapes(12):
        assert d_stat(lam) == d_stat(conjugate(lam)), lam
        assert 2 * v_stat(lam) + odd_rows(lam) == size(lam), lam


def brute_successors(lam):
    """Oracle: all partitions one domino larger whose difference is a domino."""
    out = []
    for mu in enumerate_partitions(size(lam) + 2):
        if all(a >= b for a, b in itertools.zip_longest(mu, lam, fillvalue=0)):
            diff = [
                (r, c)
                for r, length in enumerate(mu, start=1)
                for c in range(1, length + 1)
                if c > (lam[r - 1] if r <= len(lam) else 0)
            ]
            (r1, c1), (r2, c2) = diff
            if (r1 == r2 and abs(c1 - c2) == 1) or (c1 == c2 and abs(r1 - r2) == 1):
                out.append(mu)
    return sorted(out)


def test_domino_successors_frozen():
    assert domino_successors(()) == [
        ((2,), DominoShape(1, 1, "h")),
        ((1, 1), DominoShape(1, 1, "v")),
    ]
    # values below computed with brute_successors
    assert [mu for mu, _ in domino_successors((1,))] == [(3,), (1, 1, 1)]
    assert [mu for mu, _ in domino_successors((2, 1))] == [(4, 1), (2, 1, 1, 1)]


def test_domino_successors_oracle():
    for lam in all_shapes(8):
        assert sorted(mu for mu, _ in domino_successors(lam)) == brute_successors(lam)


def test_successor_predecessor_duality():
    for lam in all_shapes(8):
        for mu, dom in domino_successors(lam):
            assert (lam, dom) in domino_predecessors(mu)


def test_domino_predecessors_visit_the_rows_that_end_a_run():
    # the run-by-run walk against the row-by-row one, order included; trailing zeros are no run
    for lam in all_shapes(14):
        assert domino_predecessors(lam) == domino_predecessors_by_rows(lam), lam
        assert domino_predecessors(lam + (0, 0)) == domino_predecessors_by_rows(lam + (0, 0)), lam


def test_domino_neighbours_come_in_placement_order():
    # both loops emit their pairs by (row, col, orient), so neither sorts them
    for lam in all_shapes(14):
        for pairs in (domino_successors(lam), domino_predecessors(lam)):
            placements = [dom for _, dom in pairs]
            assert placements == sorted(placements), lam


def test_two_addable_dominoes_share_a_first_cell_or_commute():
    # (A) of ``growth``: two different dominoes addable to lam start at one
    # cell with opposite orientations, or are disjoint and either goes on
    # after the other, to one shape
    for lam in all_shapes(16):
        for (mu_a, a), (mu_b, b) in itertools.permutations(domino_successors(lam), 2):
            if a[:2] == b[:2]:
                assert a.orient != b.orient, (lam, a, b)
            else:
                assert not set(a.cells()) & set(b.cells()), (lam, a, b)
                assert add_domino(mu_b, a) == add_domino(mu_a, b), (lam, a, b)


def test_two_removable_dominoes_are_partners_or_commute():
    # (B) of ``growth_reverse_word``: two different dominoes removable from
    # rho end at one cell, each the other's ``_partner``, or are disjoint
    # and either comes off after the other, to one shape
    for rho in all_shapes(16):
        for (mu_c, c), (mu_d, d) in itertools.permutations(domino_predecessors(rho), 2):
            if c.cells()[1] == d.cells()[1]:
                assert c == _partner(d) and d == _partner(c), (rho, c, d)
            else:
                assert not set(c.cells()) & set(d.cells()), (rho, c, d)
                assert remove_domino(mu_d, c) == remove_domino(mu_c, d), (rho, c, d)


def test_enumerate_with_core_examples():
    assert enumerate_with_core(0, 1) == ((1, 1), (2,))
    assert enumerate_with_core(1, 0) == ((1,),)
    assert enumerate_with_core(0, 2) == tuple(
        sorted([(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)])
    )


def test_enumerate_with_core_against_filter():
    for r in (0, 1, 2):
        for n in range(0, (12 - size(staircase(r))) // 2 + 1):
            total = size(staircase(r)) + 2 * n
            expected = tuple(
                lam for lam in enumerate_partitions(total) if two_core(lam) == staircase(r)
            )
            assert enumerate_with_core(r, n) == expected, (r, n)


def diagram(lengths):
    return {(r, c) for r, p in enumerate(lengths, start=1) for c in range(1, p + 1)}


def test_place_and_lift_domino_against_cells():
    # reference on cell sets alone: add or remove the domino's two cells, then
    # ask for the diagram of a partition; no partitions helper is used
    def lengths(cells):
        counts = {}
        for r, _ in cells:
            counts[r] = counts.get(r, 0) + 1
        rows = [counts.get(r, 0) for r in range(1, len(counts) + 1)]
        ok = diagram(rows) == cells and all(a >= b for a, b in zip(rows, rows[1:]))
        return rows if ok else None

    for lam in all_shapes(8):
        cells = diagram(lam)
        rows_span, cols_span = range(-1, sum(lam) + 4), range(-1, max(sum(lam) + 4, 9))
        for row, col, orient in itertools.product(rows_span, cols_span, "hv"):
            dom = {(row, col), (row, col + 1) if orient == "h" else (row + 1, col)}
            for move, want in (
                (place_domino, None if dom & cells else lengths(cells | dom)),
                (lift_domino, lengths(cells - dom) if dom <= cells else None),
            ):
                rows = list(lam)
                if want is None:
                    with pytest.raises(ValueError):
                        move(rows, row, col, orient)
                    assert rows == list(lam), (lam, move.__name__, row, col, orient)
                else:
                    move(rows, row, col, orient)
                    assert rows == want, (lam, move.__name__, row, col, orient)


# (routine, row lengths, domino, the list after the call or the error message)
# for lists the in-range case must treat as the general test does: trailing
# zeros, negative entries, rows at or past either end, and one failed clause
ROW_LIST_CASES = [
    # lists with trailing zeros
    (place_domino, [4, 2, 0], (2, 3, "h"), [4, 4, 0]),
    (place_domino, [3, 2, 0], (3, 1, "h"), [3, 2, 2]),
    (place_domino, [2, 0, 0], (2, 1, "v"), [2, 1, 1]),
    (place_domino, [3, 1, 0], (3, 1, "h"), "cannot add (3, 1, 'h') to (3, 1, 0)"),
    (lift_domino, [3, 1, 0], (1, 2, "h"), [1, 1]),
    (lift_domino, [1, 1, 0], (1, 1, "v"), []),
    (lift_domino, [3, 3, 1, 0], (1, 3, "v"), [2, 2, 1]),
    (lift_domino, [4, 2, 2, 0], (2, 1, "v"), "cannot remove (2, 1, 'v') from (4, 2, 2, 0)"),
    # lists with a negative entry
    (place_domino, [5, -1], (2, 0, "h"), "cannot add (2, 0, 'h') to (5, -1)"),
    (place_domino, [5, -1, -1], (2, 0, "v"), "cannot add (2, 0, 'v') to (5, -1, -1)"),
    (place_domino, [5, 0, -3], (2, 1, "h"), [5, 2, -3]),
    (place_domino, [5, 0, 0, -3], (2, 1, "v"), [5, 1, 1, -3]),
    (lift_domino, [1, -5, 3], (1, 0, "h"), "cannot remove (1, 0, 'h') from (1, -5, 3)"),
    (lift_domino, [0, 0, -1, 5], (1, 0, "v"), "cannot remove (1, 0, 'v') from (0, 0, -1, 5)"),
    (lift_domino, [2, -3], (1, 1, "h"), [0, -3]),
    (lift_domino, [1, 1, -3], (1, 1, "v"), [0, 0, -3]),
    # row 1
    (place_domino, [3, 2], (1, 4, "h"), [5, 2]),
    (place_domino, [3, 3], (1, 4, "v"), [4, 4]),
    (place_domino, [3], (1, 3, "h"), "cannot add (1, 3, 'h') to (3,)"),
    (lift_domino, [5, 2], (1, 4, "h"), [3, 2]),
    (lift_domino, [1, 1], (1, 1, "v"), []),
    (lift_domino, [3, 2], (1, 1, "h"), "cannot remove (1, 1, 'h') from (3, 2)"),
    # a row one past the end
    (place_domino, [3, 2], (3, 1, "h"), [3, 2, 2]),
    (place_domino, [2, 2], (3, 1, "v"), [2, 2, 1, 1]),
    (place_domino, [3, 2], (3, 2, "h"), "cannot add (3, 2, 'h') to (3, 2)"),
    (place_domino, [3, 1], (2, 2, "v"), "cannot add (2, 2, 'v') to (3, 1)"),
    (lift_domino, [3, 2], (3, 1, "h"), "cannot remove (3, 1, 'h') from (3, 2)"),
    (lift_domino, [2, 1], (2, 1, "v"), "cannot remove (2, 1, 'v') from (2, 1)"),
    # row 0, the last row, and lists that fail one clause of the in-range case
    (place_domino, [5, 2], (0, 3, "h"), "cannot add (0, 3, 'h') to (5, 2)"),
    (place_domino, [2, 3, 2], (0, 3, "v"), "cannot add (0, 3, 'v') to (2, 3, 2)"),
    (place_domino, [5, 3], (2, 2, "h"), "cannot add (2, 2, 'h') to (5, 3)"),
    (place_domino, [3, 2], (2, 3, "h"), "cannot add (2, 3, 'h') to (3, 2)"),
    (place_domino, [3, 1, 0], (2, 2, "v"), "cannot add (2, 2, 'v') to (3, 1, 0)"),
    (place_domino, [2, 2, 2], (2, 3, "v"), "cannot add (2, 3, 'v') to (2, 2, 2)"),
    (place_domino, [3, 2, 1], (2, 2, "v"), "cannot add (2, 2, 'v') to (3, 2, 1)"),
    (place_domino, [2, 1, 1], (2, 2, "v"), [2, 2, 2]),
    (lift_domino, [1, 3], (0, 2, "h"), "cannot remove (0, 2, 'h') from (1, 3)"),
    (lift_domino, [5, 2], (2, 1, "h"), [5]),
    (lift_domino, [3, 1], (1, 3, "h"), "cannot remove (1, 3, 'h') from (3, 1)"),
    (lift_domino, [3, 2], (1, 2, "h"), "cannot remove (1, 2, 'h') from (3, 2)"),
    (lift_domino, [2, 1, 2], (0, 2, "v"), "cannot remove (0, 2, 'v') from (2, 1, 2)"),
    (lift_domino, [3, 2, 1], (1, 2, "v"), "cannot remove (1, 2, 'v') from (3, 2, 1)"),
    (lift_domino, [3, 2, 1], (1, 3, "v"), "cannot remove (1, 3, 'v') from (3, 2, 1)"),
    (lift_domino, [2, 2, 2], (1, 2, "v"), "cannot remove (1, 2, 'v') from (2, 2, 2)"),
    (lift_domino, [3, 3, 2, 1], (1, 3, "v"), [2, 2, 2, 1]),
]


@pytest.mark.parametrize(
    "move, rows, dom, want", ROW_LIST_CASES, ids=[f"{m.__name__}-{r}-{d}" for m, r, d, _ in ROW_LIST_CASES]
)
def test_place_and_lift_domino_on_lists_that_are_not_partitions(move, rows, dom, want):
    got = list(rows)
    if isinstance(want, str):
        with pytest.raises(ValueError) as excinfo:
            move(got, *dom)
        assert str(excinfo.value) == want and got == rows
    else:
        move(got, *dom)
        assert got == want


def test_skew_domino_against_cells():
    # oracle: the cell set difference, read as a domino when it is two
    # edge-adjacent cells
    for outer, inner in itertools.product(all_shapes(8), repeat=2):
        if not diagram(inner) <= diagram(outer):
            with pytest.raises(ValueError):
                skew_domino(outer, inner)
            continue
        want = None
        diff = sorted(diagram(outer) - diagram(inner))
        if len(diff) == 2:
            (r1, c1), (r2, c2) = diff
            if (r2, c2) == (r1, c1 + 1):
                want = DominoShape(r1, c1, "h")
            elif (r2, c2) == (r1 + 1, c1):
                want = DominoShape(r1, c1, "v")
        assert skew_domino(outer, inner) == want, (outer, inner)
