import itertools
import operator

import pytest

from dominsert.words import (
    COLORED,
    DUAL,
    Biletter,
    Letter,
    biword,
    colored_word,
    dual_standardize,
    enumerate_involutions,
    group_inverse,
    invert_colored,
    invert_dual,
    involution_profile,
    is_involution,
    neg_values,
    parse_biword,
    parse_word,
    standardize,
    total_color,
    word_str,
)

from support import (
    cycle_profile,
    doubly_biword,
    enumerate_signed_permutations,
    group_inverse_by_biword,
    involution_profile_by_biword,
    invert,
    is_involution_by_biword,
    standardize_top,
    with_kind,
)

W = parse_biword("1/2' 1/3 2/4 3/1' 3/1'")  # running example biword
W9 = parse_biword("1/3' 1/3 2/2' 2/2' 2/2' 3/1' 3/1 4/5 5/4")  # 9-letter involution


def bottoms(word):
    return word_str(bl.bottom for bl in word.letters)


def tops(word):
    return word_str(bl.top for bl in word.letters)


def all_colored_biwords(max_top, max_bottom, max_len):
    types = [
        Biletter(Letter(t), Letter(b, bar))
        for t in range(1, max_top + 1)
        for b in range(1, max_bottom + 1)
        for bar in (False, True)
    ]
    for length in range(max_len + 1):
        for combo in itertools.combinations_with_replacement(types, length):
            yield biword(combo, COLORED)


def test_letter_parsing():
    assert parse_word("3' 4 2 1'") == (
        Letter(3, True),
        Letter(4),
        Letter(2),
        Letter(1, True),
    )
    assert parse_word("-3 4") == (Letter(3, True), Letter(4))
    with pytest.raises(ValueError):
        parse_word("3 x")
    with pytest.raises(ValueError):
        parse_word("0")


def test_a_letter_is_its_pair_without_an_order():
    # tuple order would put 1 before 1'; letters sort by ``key`` only
    assert Letter(3, True) == (3, True) and Letter(3) == Letter(3, False) != Letter(3, True)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        for left, right in ((Letter(1, True), Letter(1)), (Letter(1), (2, False)), ((1, True), Letter(1))):
            with pytest.raises(TypeError):
                compare(left, right)
    with pytest.raises(ValueError, match="^letter values are positive$"):
        Letter(0)


def test_canonical_order_running_example():
    shuffled = biword(reversed(W.letters), COLORED)
    assert shuffled == W
    assert tops(W) == "1 1 2 3 3"
    assert bottoms(W) == "2' 3 4 1' 1'"


def test_parse_two_row_form():
    assert parse_biword("1 1 2 3 3 ; 2' 3 4 1' 1'") == W
    with pytest.raises(ValueError):
        parse_biword("1 2 ; 3")


def test_dual_order_tie_break():
    word = biword(
        [
            Biletter(Letter(1), Letter(2)),
            Biletter(Letter(1), Letter(3, True)),
            Biletter(Letter(1), Letter(1)),
        ],
        DUAL,
    )
    assert bottoms(word) == "2 1 3'"


def test_single_biletter_sorts_to_itself():
    one = biword([Biletter(Letter(2), Letter(5, True))], COLORED)
    assert len(one) == 1
    assert one != biword(one.letters, DUAL) and one != one.letters  # the kind takes part in equality


def test_invert_colored_example():
    inv = invert_colored(W)
    assert tops(inv) == "1 1 2 3 4"
    assert bottoms(inv) == "3' 3' 1' 1 2"
    identity = colored_word(parse_word("1 2 3"))
    assert invert_colored(identity) == identity


def test_doubly_invert_example():
    inv = invert(standardize_top(W))
    assert tops(inv) == "1' 1' 2' 3 4"
    assert bottoms(inv) == "5 4 1 2 3"


def test_standardize_top():
    top = standardize_top(W)
    assert tops(top) == "1 2 3 4 5"
    assert bottoms(top) == "2' 3 4 1' 1'"
    assert standardize_top(top) == top
    dual = with_kind(W, DUAL)
    assert standardize_top(standardize_top(dual)) == standardize_top(dual)


def test_standardize_running_example():
    st = standardize(W)
    assert tops(st) == "1 2 3 4 5"
    assert bottoms(st) == "3' 4 5 2' 1'"
    perm = colored_word(parse_word("2 3' 1"))
    assert standardize(perm) == perm


def test_standardize_nine_letter_involution():
    assert bottoms(standardize(W9)) == "6' 7 5' 4' 3' 1' 2 9 8"


def test_total_color_and_strip():
    assert total_color(parse_word("2' 3' 1'")) == 3
    assert total_color(W) == total_color(standardize(W)) == 3


def test_rejects_barred_tops_for_colored():
    with pytest.raises(ValueError):
        biword([Biletter(Letter(1, True), Letter(1))], COLORED)
    with pytest.raises(ValueError):
        invert_colored(doubly_biword([Biletter(Letter(1, True), Letter(1))]))


def test_word_identities_exhaustive():
    for w in all_colored_biwords(3, 3, 4):
        st1 = standardize(w)
        alt = standardize_top(invert(standardize_top(invert(w))))
        assert st1 == with_kind(alt, COLORED)
        via_colored = invert_colored(
            standardize_top(invert_colored(standardize_top(w)))
        )
        assert st1 == via_colored
        assert invert_colored(st1) == standardize(invert_colored(w))
        assert total_color(st1) == total_color(w)
        if is_involution(w):
            assert is_involution(st1)
        if w.top_weight() == w.bottom_weight():
            # with equal weights, standardization preserves being an involution
            assert is_involution(st1) == is_involution(w)
        assert invert_colored(invert_colored(w)) == w
        assert invert_dual(invert_dual(w)) == w


def test_dual_standardize_identities():
    types = [
        Biletter(Letter(t), Letter(b, bar))
        for t in range(1, 4)
        for b in range(1, 4)
        for bar in (False, True)
    ]
    for kind in (COLORED, DUAL):
        for length in range(4):
            for combo in itertools.combinations(types, length):
                w = biword(combo, kind)
                s1 = dual_standardize(w)
                alt = standardize_top(invert_dual(standardize_top(invert_dual(w))))
                assert s1.letters == alt.letters
                assert invert_dual(s1) == dual_standardize(invert_dual(w))


def test_dual_standardize_rejects_repeats():
    with pytest.raises(ValueError):
        dual_standardize(parse_biword("1/1 1/1"))


def test_cycle_profile_nine_letter():
    profile = cycle_profile(W9)
    assert profile.fixed == {}
    assert profile.barred_fixed == {2: 3}
    assert profile.two_cycles == {(1, 3): 1, (4, 5): 1}
    assert profile.barred_two_cycles == {(1, 3): 1}
    st_profile = profile.standardized
    assert (st_profile.fixed, st_profile.barred_fixed) == (0, 1)
    assert (st_profile.two_cycles, st_profile.barred_two_cycles) == (2, 2)


def test_cycle_profile_identity():
    identity = colored_word(parse_word("1 2 3"))
    profile = cycle_profile(identity)
    assert profile.fixed == {1: 1, 2: 1, 3: 1}
    assert profile.standardized.fixed == 3


def test_involution_profile_seven_letter():
    pi = parse_word("1 6' 3' 5 4 2' 7'")
    profile = involution_profile(pi)
    assert (profile.fixed, profile.barred_fixed) == (1, 2)
    assert (profile.two_cycles, profile.barred_two_cycles) == (1, 1)
    assert profile.length == 7


def test_cycle_profile_rejects_non_involution():
    with pytest.raises(ValueError):
        cycle_profile(colored_word(parse_word("2 3 1")))


def test_profile_matches_standardization_brute_force():
    # colored involutions assembled from cycle atoms: letters <= 3, length <= 6
    atoms = []
    for i in range(1, 4):
        atoms.append(((Biletter(Letter(i), Letter(i)),), 1))
        atoms.append(((Biletter(Letter(i), Letter(i, True)),), 1))
    for i in range(1, 4):
        for j in range(i + 1, 4):
            atoms.append(
                ((Biletter(Letter(i), Letter(j)), Biletter(Letter(j), Letter(i))), 2)
            )
            atoms.append(
                (
                    (
                        Biletter(Letter(i), Letter(j, True)),
                        Biletter(Letter(j), Letter(i, True)),
                    ),
                    2,
                )
            )
    checked = 0
    for count in range(4):
        for chosen in itertools.combinations_with_replacement(atoms, count):
            if sum(weight for _, weight in chosen) > 6:
                continue
            letters = tuple(bl for group, _ in chosen for bl in group)
            w = biword(letters, COLORED)
            assert is_involution(w)
            predicted = cycle_profile(w).standardized
            actual = involution_profile(
                tuple(bl.bottom for bl in standardize(w).letters)
            )
            assert predicted == actual, w
            checked += 1
    assert checked > 300


def test_enumerations():
    assert len(enumerate_signed_permutations(3)) == 48
    assert word_str(enumerate_involutions(1)[0]) == "1'"
    assert len(enumerate_involutions(2)) == 6
    assert len(enumerate_involutions(3)) == 20
    for pi in enumerate_involutions(3):
        assert is_involution(pi)
        assert group_inverse(pi) == pi


def test_involution_helpers_match_the_biword_route():
    perms = [pi for n in range(7) for pi in enumerate_signed_permutations(n)]
    assert len(perms) == 50363
    found = 0
    for pi in perms:
        assert group_inverse(pi) == group_inverse_by_biword(pi), pi
        assert is_involution(pi) == is_involution_by_biword(pi), pi
        if is_involution(pi):
            found += 1
            assert involution_profile(pi) == involution_profile_by_biword(pi), pi
    assert found == sum(len(enumerate_involutions(n)) for n in range(7))


@pytest.mark.parametrize("n", range(6))
def test_the_involution_listing_is_the_filtered_signed_permutations(n):
    involutions = [pi for pi in enumerate_signed_permutations(n) if is_involution_by_biword(pi)]
    assert enumerate_involutions(n) == sorted(involutions, key=neg_values)


@pytest.mark.parametrize("text", ["2", "1 1'", "1 3", "2 2 1"])
def test_non_permutations_have_no_inverse(text):
    word = parse_word(text)
    assert not is_involution(word)
    with pytest.raises(ValueError):
        group_inverse(word)
    with pytest.raises(ValueError):
        involution_profile(word)
