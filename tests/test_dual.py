import pytest
from hypothesis import given

from dominsert.insertion import dual_insert_alpha, dual_insert_beta, insert_word
from dominsert.verify import check_dual
from dominsert.words import (
    COLORED,
    DUAL,
    colored_word,
    enumerate_biwords,
    invert_dual,
    parse_biword,
    total_color,
)
from support import (
    cores,
    count_insertions,
    dual_alpha_by_recording,
    dual_beta_by_recording,
    dual_biwords,
    enumerate_signed_permutations,
    with_kind,
)


def test_agree_with_standard_on_permutations():
    for n in range(4):
        for pi in enumerate_signed_permutations(n):
            word = colored_word(pi)
            result = insert_word(pi, 0)
            assert dual_insert_alpha(with_kind(word, DUAL), 0) == (result.p, result.q)
            assert dual_insert_beta(word, 0) == (result.p, result.q)


def test_single_letter_seeds():
    p, q = dual_insert_alpha(parse_biword("1/1'", kind=DUAL), 0)
    assert p.shape() == (1, 1) and q.shape() == (1, 1)
    p, q = dual_insert_beta(parse_biword("1/1"), 1)
    assert p.core == (1,) and p.shape() == q.shape()


def test_rejects_wrong_kind_or_repeats():
    with pytest.raises(ValueError):
        dual_insert_alpha(parse_biword("1/1"), 0)  # colored, not dual
    with pytest.raises(ValueError):
        dual_insert_beta(parse_biword("1/1", kind=DUAL), 0)
    with pytest.raises(ValueError):
        dual_insert_beta(parse_biword("1/1 1/1"), 0)


def test_column_class_example():
    # two equal bottom letters under different tops land in one column class
    word = parse_biword("1/1 2/1", kind=DUAL)
    p, q = dual_insert_alpha(word, 0)
    assert p.is_semistandard() and q.is_column_semistandard()
    assert q.weight() == (1, 1) and p.weight() == (2,)


def test_exhaustive_small():
    for core in (0, 1):
        for length in range(4):
            record = check_dual(length, core)
            assert record["pass"], record


def test_equal_the_two_recording_construction():
    """Alpha and beta equal their construction through two recording
    tableaux on every multiplicity-free biword of length at most 4 with
    values at most 2."""
    checked = 0
    for core in (0, 1, 2):
        for length in range(5):
            for w in enumerate_biwords(2, length, DUAL, multiplicity_free=True):
                assert dual_insert_alpha(w, core) == dual_alpha_by_recording(w, core), w
                checked += 1
            for w in enumerate_biwords(2, length, COLORED, multiplicity_free=True):
                assert dual_insert_beta(w, core) == dual_beta_by_recording(w, core), w
                checked += 1
    assert checked == 3 * 2 * 163


def test_one_insertion_per_biword(monkeypatch):
    calls = count_insertions(monkeypatch)
    word = parse_biword("1/1' 1/2 2/1 3/2'", kind=DUAL)
    dual_insert_alpha(word, 1)
    assert len(calls) == 1
    dual_insert_beta(invert_dual(word), 1)
    assert len(calls) == 2


@given(dual_biwords, cores)
def test_correspondences_at_scale(w, core):
    p, q = dual_insert_alpha(w, core)
    assert p.is_semistandard() and q.is_column_semistandard() and p.shape() == q.shape()
    assert p.weight() == w.bottom_weight() and q.weight() == w.top_weight()
    assert 2 * total_color(w) == p.vertical_count() + q.vertical_count()
    v = invert_dual(w)
    assert dual_insert_beta(v, core) == (q, p)
    assert p.weight() == v.top_weight() and q.weight() == v.bottom_weight()
