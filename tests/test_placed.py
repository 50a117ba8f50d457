"""Tableaux that the library builds from a shape it has proven, through
``DominoTableau._placed``, against their validated twins: the public
constructor's sorted entries and the shape ``tiled_shape`` derives."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dominsert import tableaux
from dominsert.insertion import (
    biword_insert, dual_insert_alpha, dual_insert_beta, growth, growth_reverse_word, insert_frames, insert_word,
)
from dominsert.partitions import DominoShape, enumerate_with_core
from dominsert.tableaux import DominoTableau, enumerate_semistandard, enumerate_standard
from dominsert.words import Letter, invert_dual
from support import (
    colored_biwords, cores, dual_biwords, enumerate_column_semistandard, signed_permutations, value_order_chain,
)


def assert_validated(tab):
    twin = DominoTableau(tab.core, tab.entries)
    assert tab.entries == twin.entries
    assert tab.shape() == twin.shape()


@settings(max_examples=40)
@given(signed_permutations(max_n=200), st.integers(min_value=0, max_value=3))
def test_insertion_and_growth_place_their_shapes(word, core):
    result, diagram = insert_word(word, core), growth(word, core)
    for tab in (result.p, result.q, diagram.p, diagram.q):
        assert_validated(tab)


@settings(max_examples=20)
@given(signed_permutations(max_n=40), cores)
def test_every_insertion_frame_places_its_shape(word, core):
    for frame in insert_frames(word, core):
        assert_validated(frame)


def test_enumerators_place_their_shapes():
    for core in range(3):
        for n in range(5):
            for lam in enumerate_with_core(core, n):
                for tab in enumerate_standard(lam):
                    assert_validated(tab)
                    assert_validated(tab.conjugated())
                if n > 3:
                    continue
                for tab in enumerate_semistandard(lam, 3):
                    assert_validated(tab)
                    assert_validated(tab.standardized())
                for tab in enumerate_column_semistandard(lam, 3):
                    assert_validated(tab)
                    assert_validated(tab.standardized(columns=True))


@given(colored_biwords, cores)
def test_the_semistandard_correspondence_places_its_shapes(w, core):
    for tab in biword_insert(w, core):
        assert_validated(tab)


@given(dual_biwords, cores)
def test_the_dual_correspondences_place_their_shapes(w, core):
    for tab in dual_insert_alpha(w, core) + dual_insert_beta(invert_dual(w), core):
        assert_validated(tab)


def test_a_wrong_shape_is_never_equal():
    tab = insert_word((Letter(2, True), Letter(1)), 1).p
    assert DominoTableau._placed(tab.core, tab.entries, tab.shape() + (1,)) != tab


@pytest.mark.parametrize("core", range(4))
def test_insertion_and_growth_tile_no_shape(monkeypatch, core):
    """Bumping and growth build P and Q from the shape they hold: a seeded
    signed permutation of size 200 makes no ``tiled_shape`` call."""
    calls = []
    original = tableaux.tiled_shape

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(tableaux, "tiled_shape", counted)
    rng = random.Random(200)
    values = list(range(1, 201))
    rng.shuffle(values)
    word = tuple(Letter(v, rng.random() < 0.5) for v in values)
    result, diagram = insert_word(word, core), growth(word, core)
    assert calls == []
    for tab in (result.p, result.q, diagram.p, diagram.q):
        assert_validated(tab)
    assert len(calls) == 4  # the patch is live: the public constructor still tiles


@settings(max_examples=40)
@given(signed_permutations(max_n=60), colored_biwords, st.integers(min_value=0, max_value=3))
def test_the_replay_keeps_the_value_order_chain(word, w, core):
    """A standard tableau's ``chain`` is its value-order walk, any other's
    raises, and a standardized copy carries its parent's replay, which a
    fresh one of its entries and shape equals."""
    for tab in insert_word(word, core) + biword_insert(w, core):
        std = tab.standardized()
        fresh = DominoTableau._placed(std.core, std.entries, std.shape())
        assert std._replay is tab._replay and std._replay == fresh._replay
        assert std.chain() == value_order_chain(std)
        if tab.is_standard():
            assert tab.chain() == value_order_chain(tab)
        else:
            with pytest.raises(ValueError, match="chain is defined for standard tableaux"):
                tab.chain()


H, V = "h", "v"
STANDARD_22 = ((1, DominoShape(1, 1, H)), (2, DominoShape(2, 1, H)))

# tilings of (2, 2) over the empty core, and whether each is standard
TILINGS = {
    "standard": (STANDARD_22, True),
    "values 1 and 3": (((1, DominoShape(1, 1, H)), (3, DominoShape(2, 1, H))), False),
    "a repeated value": (((1, DominoShape(1, 1, V)), (1, DominoShape(1, 2, V))), False),
    "not a chain in value order": (((1, DominoShape(2, 1, H)), (2, DominoShape(1, 1, H))), False),
}


@pytest.mark.parametrize("entries, standard", TILINGS.values(), ids=TILINGS)
def test_chain_and_the_reverse_reject_exactly_the_nonstandard_tilings(entries, standard):
    tab, good = DominoTableau((), entries), DominoTableau((), STANDARD_22)
    assert tab.shape() == (2, 2) and tab.is_standard() is standard
    if standard:
        assert tab.chain() == ((), (2,), (2, 2))
        diagram = growth(growth_reverse_word(tab, tab))
        assert (diagram.p, diagram.q) == (tab, tab)
        return
    with pytest.raises(ValueError, match="chain is defined for standard tableaux"):
        tab.chain()
    for pair in ((tab, good), (good, tab), (tab, tab)):
        with pytest.raises(ValueError, match="growth_reverse expects standard tableaux of one shape over one core"):
            growth_reverse_word(*pair)
