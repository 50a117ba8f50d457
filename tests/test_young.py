import pytest

from dominsert.partitions import enumerate_partitions
from dominsert.young import enumerate_ssyt, enumerate_syt, hook_count
from support import ssyt_by_filter, syt_by_lattice_words


@pytest.mark.parametrize("n", range(9))
def test_the_syt_listing_is_the_lattice_words_in_lex_order(n):
    for lam in enumerate_partitions(n):
        listed = enumerate_syt(lam)
        assert listed == syt_by_lattice_words(lam), lam
        assert len(listed) == hook_count(lam), lam


@pytest.mark.parametrize("n", range(6))
def test_the_ssyt_listing_is_the_filtered_fillings(n):
    for lam in enumerate_partitions(n):
        for max_value in range(4):
            listed = enumerate_ssyt(lam, max_value)
            assert len(set(listed)) == len(listed), (lam, max_value)
            assert set(listed) == set(ssyt_by_filter(lam, max_value)), (lam, max_value)


def test_the_listings_run_past_the_recursion_limit():
    assert enumerate_syt((1200,)) == [(tuple(range(1, 1201)),)]
    assert enumerate_syt((1,) * 1200) == [tuple((v,) for v in range(1, 1201))]
    assert len(enumerate_ssyt((1,), 1200)) == 1200
