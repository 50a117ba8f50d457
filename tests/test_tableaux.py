import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from dominsert.partitions import (
    DominoShape, conjugate, domino_successors, enumerate_partitions, enumerate_with_core, staircase,
)
from dominsert.polynomials import MPoly, PARAMS
from dominsert.tableaux import (
    DominoTableau,
    associated_young_tableau,
    enumerate_semistandard,
    enumerate_standard,
    spin_poly,
    spin_polys,
    strip_transfer,
    tableau_sign,
)
from dominsert.involutions import standard_tableau_count
from support import (
    cospin,
    enumerate_column_semistandard,
    max_even_vertical,
    max_odd_vertical,
    max_spin,
    spin_poly_by_listing,
    standardized_top_to_bottom,
    tableau_from_chain,
)

H, V = "h", "v"

# weight (3,2,1,2) filling of (5,5,4,1,1) and its standardization
BIG = DominoTableau(
    (),
    (
        (1, DominoShape(1, 1, V)),
        (1, DominoShape(1, 2, H)),
        (1, DominoShape(1, 4, H)),
        (2, DominoShape(2, 2, H)),
        (2, DominoShape(2, 4, H)),
        (3, DominoShape(3, 1, H)),
        (4, DominoShape(3, 3, H)),
        (4, DominoShape(4, 1, V)),
    ),
)

BIG_STD = DominoTableau(
    (),
    (
        (1, DominoShape(1, 1, V)),
        (2, DominoShape(1, 2, H)),
        (3, DominoShape(1, 4, H)),
        (4, DominoShape(2, 2, H)),
        (5, DominoShape(2, 4, H)),
        (6, DominoShape(3, 1, H)),
        (7, DominoShape(4, 1, V)),
        (8, DominoShape(3, 3, H)),
    ),
)


def test_big_example_shape_weight():
    assert BIG.shape() == (5, 5, 4, 1, 1)
    assert BIG.weight() == (3, 2, 1, 2)
    assert BIG.is_semistandard()
    assert not BIG.is_standard()


def test_big_example_standardization():
    assert BIG.standardized() == BIG_STD
    assert BIG_STD.is_standard()
    already = BIG_STD.standardized()
    assert already == BIG_STD


def test_flat_standardization():
    flat = DominoTableau((), ((1, DominoShape(1, 1, H)), (1, DominoShape(1, 3, H))))
    assert flat.standardized().values() == (1, 2)
    assert flat.standardized().entries[0][1].col == 1


def test_stats():
    assert BIG.vertical_count() == 2
    single = DominoTableau((), ((1, DominoShape(1, 1, H)),))
    assert single.vertical_count() == 0 and single.spin() == 0
    # final frame of the running insertion example
    frame = DominoTableau(
        (),
        (
            (1, DominoShape(1, 1, V)),
            (2, DominoShape(1, 2, V)),
            (3, DominoShape(3, 1, H)),
            (4, DominoShape(1, 3, V)),
        ),
    )
    assert frame.vertical_count() == 3
    assert frame.odd_vertical() == 2 and frame.even_vertical() == 1


def test_validation():
    with pytest.raises(ValueError):
        DominoTableau((), ((1, DominoShape(1, 1, H)), (2, DominoShape(1, 2, H))))
    with pytest.raises(ValueError):  # does not tile a partition
        DominoTableau((), ((1, DominoShape(2, 1, H)),))
    with pytest.raises(ValueError):  # core must be a staircase
        DominoTableau((2, 2), ())
    for low in (0, -1):  # values start at 1
        with pytest.raises(ValueError, match="start at 1"):
            DominoTableau((), ((low, DominoShape(1, 1, H)), (3, DominoShape(1, 3, H))))
    # two same-value dominoes in one column are not semistandard
    stacked = DominoTableau(
        (), ((1, DominoShape(1, 1, V)), (1, DominoShape(3, 1, V)))
    )
    assert not stacked.is_semistandard()
    assert stacked.is_column_semistandard()
    # standardization numbers rows by default and never guesses the direction
    with pytest.raises(ValueError, match="not semistandard"):
        stacked.standardized()
    assert stacked.standardized(columns=True).values() == (1, 2)


def tiling_oracle(core, placements):
    """The partition tiled by core plus (row, col, orient) placements, or
    None; built from cell sets alone."""
    cells = [(r, c) for r, p in enumerate(core, start=1) for c in range(1, p + 1)]
    for row, col, orient in placements:
        cells += [(row, col), (row, col + 1) if orient == H else (row + 1, col)]
    rows = max((r for r, _ in cells), default=0)
    lam = [sum(1 for r, _ in cells if r == k) for k in range(1, rows + 1)]
    diagram = {(r, c) for r, p in enumerate(lam, start=1) for c in range(1, p + 1)}
    if core != staircase(len(core)) or len(set(cells)) != len(cells):
        return None
    if lam != sorted(lam, reverse=True) or set(cells) != diagram:
        return None
    return tuple(lam)


def test_construction_against_oracle_on_standard_tableaux():
    # each distinct tiling of cores 0-3 by up to 8 dominoes once, grown a domino at a time, its values shuffled
    rng, tilings = random.Random(0), 0
    for r in range(4):
        level = {(staircase(r), frozenset())}
        for _ in range(9):
            for lam, dominoes in sorted((lam, sorted(tiling)) for lam, tiling in level):
                rng.shuffle(dominoes)
                assert tiling_oracle(staircase(r), dominoes) == lam
                assert DominoTableau(staircase(r), tuple(enumerate(dominoes, start=1))).shape() == lam
            tilings += len(level)
            level = {(mu, tiling | {dom}) for lam, tiling in level for mu, dom in domino_successors(lam)}
    assert tilings == 6222


@pytest.mark.parametrize(
    "entries, shape",
    [
        # vertical dominoes on one diagonal: the lower one holds the cell left of the upper one's second
        (((1, DominoShape(1, 2, V)), (2, DominoShape(2, 1, V))), (2, 2, 1)),
        # horizontal dominoes on one diagonal: the upper one holds the cell above the lower one's second
        (((1, DominoShape(2, 1, H)), (2, DominoShape(1, 2, H))), (3, 2)),
    ],
)
def test_construction_places_a_diagonal_tie_in_its_order(entries, shape):
    # the domino that must be placed first has the larger value, so no value order places it first
    assert DominoTableau((1,), entries).shape() == shape


placement = st.tuples(st.integers(1, 5), st.integers(1, 5), st.sampled_from((H, V)))
any_core = st.sampled_from(((), (1,), (2, 1), (3, 2, 1), (2,), (1, 1), (2, 2), (3, 1)))


@st.composite
def perturbed_tilings(draw):
    """A standard tableau grown by domino_successors, then maybe damaged by
    dropping, repeating, moving or floating one domino."""
    core = staircase(draw(st.integers(0, 2)))
    shape, placements = core, []
    for _ in range(draw(st.integers(0, 6))):
        mu, dom = draw(st.sampled_from(domino_successors(shape)))
        shape = mu
        placements.append((dom.row, dom.col, dom.orient))
    damage = draw(st.sampled_from(("none", "drop", "repeat", "move", "float")))
    if damage != "none" and placements:
        k = draw(st.integers(0, len(placements) - 1))
        if damage == "drop":
            del placements[k]
        elif damage == "repeat":
            placements.append(placements[k])
        else:
            placements[k] = draw(placement) if damage == "move" else (9, 1, V)
    return core, placements


def check_against_oracle(core, placements):
    entries = tuple((value, DominoShape(*p)) for value, p in enumerate(placements, start=1))
    want = tiling_oracle(core, placements)
    if want is None:
        with pytest.raises(ValueError):
            DominoTableau(core, entries)
    else:
        assert DominoTableau(core, entries).shape() == want


@given(any_core, st.lists(placement, max_size=6))
def test_construction_against_oracle_on_arbitrary_placements(core, placements):
    check_against_oracle(core, placements)


@given(perturbed_tilings())
def test_construction_against_oracle_on_perturbed_tilings(case):
    check_against_oracle(*case)


def test_construction_rejects_far_dominoes_without_building_them():
    for far in (DominoShape(1, 10**12, H), DominoShape(10**12, 1, V), DominoShape(3, 3, H)):
        with pytest.raises(ValueError):
            DominoTableau((1,), ((1, DominoShape(2, 1, V)), (2, far)))


def test_construction_messages():
    # a domino on a core cell overlaps it, as one on another domino's cell does
    for dom in (DominoShape(1, 2, H), DominoShape(1, 1, V), DominoShape(1, 2, V), DominoShape(2, 1, V)):
        with pytest.raises(ValueError, match=r"^overlapping cell in"):
            DominoTableau((2, 1), ((1, dom),))
    with pytest.raises(ValueError, match=r"^overlapping cell in"):
        DominoTableau((2, 1), ((1, DominoShape(1, 3, H)), (2, DominoShape(1, 4, H))))
    for dom in (DominoShape(2, 2, H), DominoShape(1, 4, H), DominoShape(3, 2, V)):
        with pytest.raises(ValueError, match="cells do not tile a partition shape"):
            DominoTableau((2, 1), ((1, dom),))


def test_a_large_core_costs_no_bit_masks():
    # a row's mask holds only the cells past its core, so an empty tableau
    # over staircase(10000) keeps a 0 per row, not about k^2/2 bits
    tracemalloc.start()
    try:
        tab = DominoTableau(staircase(10_000), ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tab.shape() == staircase(10_000)
    assert peak < 3_000_000


def test_conjugation():
    vert = DominoTableau((), ((1, DominoShape(1, 1, V)),))
    assert vert.conjugated() == DominoTableau((), ((1, DominoShape(1, 1, H)),))
    conj = BIG.conjugated()
    assert conj.shape() == conjugate((5, 5, 4, 1, 1))
    assert conj.is_column_semistandard()
    assert conj.vertical_count() == len(BIG) - BIG.vertical_count() == 6
    for lam in enumerate_with_core(0, 3):
        for tab in enumerate_standard(lam):
            assert tab.conjugated().conjugated() == tab


def test_standardize_commutes_with_conjugation():
    for lam in enumerate_with_core(0, 3):
        for tab in enumerate_semistandard(lam, 2):
            left = tab.standardized(columns=False).conjugated()
            right = tab.conjugated().standardized(columns=True)
            assert left == right, tab


def test_column_standardization_numbers_each_class_top_to_bottom():
    # through the conjugate, as the sort on rows it replaces
    count = 0
    for core in range(3):
        for n in range(4):
            for lam in enumerate_with_core(core, n):
                for tab in enumerate_column_semistandard(lam, 3):
                    assert tab.standardized(columns=True) == standardized_top_to_bottom(tab), tab
                    count += 1
    assert count == 378
    with pytest.raises(ValueError):  # a row strip of one value is not column-semistandard
        BIG.standardized(columns=True)


def test_enumerate_standard_counts():
    assert len(enumerate_standard((2,))) == 1
    tabs = enumerate_standard((3, 1, 1))
    assert len(tabs) == 2 and all(2 * t.spin() == 1 for t in tabs)
    tabs22 = enumerate_standard((2, 2))
    assert sorted(2 * t.spin() for t in tabs22) == [0, 2]
    for r in (0, 1, 2):
        for n in range(8):
            for lam in enumerate_with_core(r, n):
                assert len(enumerate_standard(lam)) == standard_tableau_count(lam)


def test_enumerate_standard_lists_each_tableau_once_sorted_by_entries():
    # the walk meets the tableaux in no fixed order; the list comes back sorted, so CLI output is stable
    for r in (0, 1, 2):
        for n in range(6):
            for lam in enumerate_with_core(r, n):
                tabs = enumerate_standard(lam)
                assert all(a.entries < b.entries for a, b in zip(tabs, tabs[1:])), lam


def test_enumerate_standard_walks_deep_shapes():
    # the walk keeps its own stack, so a shape of 1,000 dominoes reaches no recursion limit
    for lam in ((2000,), (1,) * 2000):
        (tab,) = enumerate_standard(lam)
        assert tab.shape() == lam and tab.values() == tuple(range(1, 1001))


def test_enumerate_semistandard_takes_a_large_bound():
    # one list of partial tableaux, extended value by value: no recursion per value
    assert len(enumerate_semistandard((2,), 1000)) == 1000
    # nor per domino of a strip: a row of a thousand dominoes is one strip of value 1
    assert len(enumerate_semistandard((2000,), 1)) == 1
    assert strip_transfer((), 1, 1000, _limit=(2000,))[(2000,)] == {(1000, 0): 1}


def test_enumerate_semistandard_small():
    assert len(enumerate_semistandard((2, 2), 2)) == 4
    # no entries at all: only a bare core is tiled; a negative bound is an error
    assert enumerate_semistandard((4, 2), 0) == []
    assert [t.entries for t in enumerate_semistandard((2, 1), 0)] == [()]
    with pytest.raises(ValueError):
        enumerate_semistandard((4, 2), -5)
    assert len(enumerate_semistandard((2, 1, 1), 1)) == 0
    assert len(enumerate_semistandard((3, 1), 1)) == 1
    for tab in enumerate_semistandard((5, 5, 4, 1, 1), 4):
        assert tab.is_semistandard()
    assert BIG in enumerate_semistandard((5, 5, 4, 1, 1), 4)
    # standardization embeds semistandard into standard
    for lam in enumerate_with_core(0, 3):
        standard = set(enumerate_standard(lam))
        for tab in enumerate_semistandard(lam, 3):
            assert tab.standardized() in standard


def test_strip_transfer_counts_the_listed_tableaux():
    # the shapes reached are those within the domino bound that have a tableau; a column-semistandard
    # tableau of lam is a conjugated one of lam', so lam' has its count
    for core in (0, 1, 2):
        shapes = [lam for n in range(6) for lam in enumerate_with_core(core, n)]
        for k in range(4):
            counts = {lam: sum(row.values()) for lam, row in strip_transfer(staircase(core), k, 5).items()}
            listed = {lam: len(enumerate_semistandard(lam, k)) for lam in shapes}
            assert counts == {lam: n for lam, n in listed.items() if n}, (core, k)
            for lam in shapes:
                assert counts.get(conjugate(lam), 0) == len(enumerate_column_semistandard(lam, k)), (lam, k)


def test_column_semistandard():
    tabs = enumerate_column_semistandard((2, 2), 2)
    assert all(t.is_column_semistandard() for t in tabs)
    assert len(tabs) == len(enumerate_semistandard((2, 2), 2))


def test_spin_poly_examples():
    s = MPoly.var("s", PARAMS)
    assert spin_poly((3, 1, 1)) == 2 * s
    assert spin_poly((2, 2)) == 1 + s * s
    assert spin_poly(staircase(2)) == MPoly.const(1, PARAMS)


def test_spin_poly_by_dominoes_matches_the_listing():
    shapes = [lam for m in range(11) for lam in enumerate_partitions(m)]
    shapes += [lam for r in (0, 1, 2) for n in range(7) for lam in enumerate_with_core(r, n)]
    for lam in shapes:
        assert spin_poly(lam) == spin_poly_by_listing(lam), lam


@pytest.mark.parametrize("r", [0, 1, 2])
def test_spin_poly_coefficients_sum_to_the_hook_count(r):
    # the count of the 2-quotient's hook formula; the shapes share one memo, in any order
    shapes = [lam for n in range(13) for lam in enumerate_with_core(r, n)]
    polys = spin_polys(shapes[::-1])[::-1]
    for lam, poly in zip(shapes, polys):
        assert sum(poly.terms.values()) == standard_tableau_count(lam), lam
    assert polys[-60:] == [spin_poly(lam) for lam in shapes[-60:]]


def test_spin_poly_walks_deep_shapes_without_recursion():
    s = MPoly.var("s", PARAMS)
    assert spin_poly((2000,)) == MPoly.const(1, PARAMS)
    assert spin_poly((1,) * 2000) == s**1000


def test_max_spin_and_cospin():
    assert max_spin((2, 2)) == 1
    assert max_spin((3, 1, 1)) * 2 == 1
    assert max_spin(staircase(1)) == 0
    spin_zero = next(t for t in enumerate_standard((2, 2)) if t.spin() == 0)
    assert cospin(spin_zero) == 1
    for tab in enumerate_standard((3, 1, 1)):
        assert cospin(tab) == 0
    for r in (0, 1, 2):
        for n in range(4):
            for lam in enumerate_with_core(r, n):
                assert 2 * max_spin(lam) == max_odd_vertical(lam) + max_even_vertical(lam)


def test_associated_young_tableau():
    vert = DominoTableau((), ((1, DominoShape(1, 1, V)),))
    assert associated_young_tableau(vert) == ((1,), (2,))
    assert tableau_sign(vert) == 1
    pair = DominoTableau((), ((1, DominoShape(1, 1, V)), (2, DominoShape(1, 2, V))))
    assert associated_young_tableau(pair) == ((1, 3), (2, 4))
    assert tableau_sign(pair) == -1
    assert pair.even_vertical() == 1
    # one-box core: core cell takes 1, domino i takes 2i and 2i+1
    cored = DominoTableau((1,), ((1, DominoShape(2, 1, V)),))
    assert associated_young_tableau(cored) == ((1,), (2,), (3,))
    with pytest.raises(ValueError):
        associated_young_tableau(DominoTableau((2, 1), ()))


def _is_standard_young(tableau, shape):
    """Rows of the shape's lengths, the values 1..|shape| once each, and
    increasing along every row and down every column."""
    values = sorted(v for row in tableau for v in row)
    return (
        tuple(map(len, tableau)) == tuple(shape)
        and values == list(range(1, sum(shape) + 1))
        and all(a < b for row in tableau for a, b in zip(row, row[1:]))
        and all(upper[c] < lower[c] for upper, lower in zip(tableau, tableau[1:]) for c in range(len(lower)))
    )


def test_the_split_of_a_standard_tableau_is_standard():
    # associated_young_tableau does not check its output again; its docstring proves it standard
    count = 0
    for r in (0, 1):
        for n in range(8):
            for lam in enumerate_with_core(r, n):
                for tab in enumerate_standard(lam):
                    split = associated_young_tableau(tab)
                    assert _is_standard_young(split, lam), tab
                    for value, dom in tab.entries:
                        assert {split[i - 1][j - 1] for i, j in dom.cells()} == {2 * value - 1 + r, 2 * value + r}
                    count += 1
    assert count == 16626


def test_sign_formula_small():
    for r in (0, 1):
        for n in range(4):
            for lam in enumerate_with_core(r, n):
                for tab in enumerate_standard(lam):
                    assert tableau_sign(tab) == (-1) ** tab.even_vertical()


def test_chain_and_from_chain():
    for lam in enumerate_with_core(1, 2):
        for tab in enumerate_standard(lam):
            assert tableau_from_chain(tab.chain()) == tab


def test_json_round_trip():
    data = BIG.to_json()
    assert DominoTableau.from_json(data) == BIG
    empty = DominoTableau(staircase(2), ())
    assert DominoTableau.from_json(empty.to_json()) == empty
