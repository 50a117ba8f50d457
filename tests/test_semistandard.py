import pytest
from hypothesis import given

from dominsert.insertion import biword_insert, biword_reverse, insert_word
from dominsert.partitions import DominoShape, enumerate_with_core
from dominsert.tableaux import DominoTableau, enumerate_semistandard
from dominsert.verify import check_semistandard
from dominsert.words import (
    DUAL,
    colored_word,
    enumerate_biwords,
    invert_colored,
    parse_biword,
    parse_word,
    standardize,
    total_color,
)
from support import biword_insert_by_recording, colored_biwords, cores, count_insertions

H, V = "h", "v"

W = parse_biword("1/2' 1/3 2/4 3/1' 3/1'")

# frozen output of the running example (independently confirmed through the
# standardization commutation and the round trip below)
W_P = DominoTableau(
    (),
    (
        (1, DominoShape(1, 1, V)),
        (1, DominoShape(1, 2, V)),
        (2, DominoShape(1, 3, V)),
        (3, DominoShape(1, 4, V)),
        (4, DominoShape(1, 5, V)),
    ),
)
W_Q = DominoTableau(
    (),
    (
        (1, DominoShape(1, 1, V)),
        (1, DominoShape(1, 2, H)),
        (2, DominoShape(1, 4, H)),
        (3, DominoShape(2, 2, H)),
        (3, DominoShape(2, 4, H)),
    ),
)


def test_running_example():
    p, q = biword_insert(W, 0)
    assert (p, q) == (W_P, W_Q)
    assert p.weight() == W.bottom_weight() == (2, 1, 1, 1)
    assert q.weight() == W.top_weight() == (2, 1, 2)
    assert p.vertical_count() + q.vertical_count() == 2 * total_color(W) == 6


def test_running_example_commutation_and_symmetry():
    p, q = biword_insert(W, 0)
    ps, qs = biword_insert(standardize(W), 0)
    assert p.standardized() == ps and q.standardized() == qs
    p2, q2 = biword_insert(invert_colored(W), 0)
    assert (p, q) == (q2, p2)


def test_running_example_round_trip():
    p, q = biword_insert(W, 0)
    assert biword_reverse(p, q) == W


def test_agrees_with_standard_insertion():
    word = parse_word("3' 4 2 1'")
    result = insert_word(word, 0)
    p, q = biword_insert(colored_word(word), 0)
    assert (p, q) == (result.p, result.q)


def test_empty_biword():
    p, q = biword_insert(parse_biword(""), 1)
    assert p.core == (1,) and len(p) == 0 and p == q


def test_trivial_pair_reverse():
    single = DominoTableau((), ((1, DominoShape(1, 1, H)),))
    word = biword_reverse(single, single)
    assert str(word) == "1/1"


def test_reverse_rejects_shape_mismatch():
    single = DominoTableau((), ((1, DominoShape(1, 1, H)),))
    vertical = DominoTableau((), ((1, DominoShape(1, 1, V)),))
    with pytest.raises(ValueError):
        biword_reverse(single, vertical)


# column-semistandard only: one value down a column, so no horizontal strip
STACKED = DominoTableau((), ((1, DominoShape(1, 1, V)), (1, DominoShape(3, 1, V))))
COLUMN_P = DominoTableau((), ((1, DominoShape(1, 1, V)), (2, DominoShape(3, 1, V))))


def test_reverse_rejects_pair_outside_image():
    # equal shapes and weights, but the columns cannot come from one biword
    assert not STACKED.is_semistandard()
    with pytest.raises(ValueError):
        biword_reverse(STACKED, STACKED)


def test_reverse_rejects_a_column_semistandard_recording():
    assert COLUMN_P.is_semistandard() and STACKED.is_column_semistandard()
    with pytest.raises(ValueError, match="not semistandard"):
        biword_reverse(COLUMN_P, STACKED)


def test_reverse_inverts_insertion_on_every_small_pair():
    """Every same-shape semistandard pair over cores 0-2 with at most three
    dominoes and values at most 3 is in the image: inserting the reverse
    gives the pair back, as the bijection theorem says."""
    count = 0
    for core in range(3):
        for n in range(4):
            for lam in enumerate_with_core(core, n):
                tabs = enumerate_semistandard(lam, 3)
                for p in tabs:
                    for q in tabs:
                        assert biword_insert(biword_reverse(p, q), core) == (p, q)
                        count += 1
    assert count == 3990


def test_reverse_inserts_nothing(monkeypatch):
    calls = count_insertions(monkeypatch)
    assert biword_reverse(W_P, W_Q) == W
    assert calls == []


def test_exhaustive_small():
    for core in (0, 1):
        for length in range(4):
            record = check_semistandard(length, core)
            assert record["pass"], record


def test_biword_pool_sizes():
    assert len(enumerate_biwords(2, 0)) == 1
    assert len(enumerate_biwords(2, 1)) == 8
    assert len(enumerate_biwords(2, 4)) == 330
    # multiplicity-free: 4 of the 8 biletters, of either kind
    assert len(enumerate_biwords(2, 4, multiplicity_free=True)) == 70
    assert len(enumerate_biwords(2, 4, DUAL, multiplicity_free=True)) == 70


def test_equals_the_two_recording_construction():
    """One insertion of the standardized word, relabelled, gives the pair
    that recording the word and its inverse separately gives."""
    pool = [w for length in range(5) for w in enumerate_biwords(2, length)]
    assert len(pool) == 495
    for core in (0, 1, 2):
        for w in pool:
            assert biword_insert(w, core) == biword_insert_by_recording(w, core), w


def test_one_insertion_per_biword(monkeypatch):
    calls = count_insertions(monkeypatch)
    biword_insert(W, 1)
    assert len(calls) == 1


@given(colored_biwords, cores)
def test_correspondence_at_scale(w, core):
    p, q = biword_insert(w, core)
    assert p.is_semistandard() and q.is_semistandard() and p.shape() == q.shape()
    assert p.weight() == w.bottom_weight() and q.weight() == w.top_weight()
    assert 2 * total_color(w) == p.vertical_count() + q.vertical_count()
    assert (p.standardized(), q.standardized()) == biword_insert(standardize(w), core)
    assert biword_insert(invert_colored(w), core) == (q, p)
    assert biword_reverse(p, q) == w
