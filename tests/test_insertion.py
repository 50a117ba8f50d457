import pickle
import random
import tracemalloc
from bisect import bisect_left
from collections import Counter
from itertools import accumulate
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from dominsert import insertion
from dominsert import tableaux as tableaux_module
from dominsert.partitions import (
    DominoShape,
    col_height,
    domino_of_cells,
    domino_successors,
    enumerate_partitions,
    enumerate_with_core,
    part,
    place_domino,
    skew_domino,
    staircase,
)
from dominsert.insertion import (
    biword_insert,
    growth,
    growth_reverse,
    growth_reverse_word,
    growth_str,
    insert_all,
    insert_frames,
    insert_letter,
    insert_word,
    local_rule,
    local_rule_reverse,
    word_matrix,
)
from dominsert.tableaux import DominoTableau, enumerate_standard, tiled_shape
from dominsert.words import (
    Letter,
    colored_word,
    group_inverse,
    involution_profile,
    is_signed_permutation,
    parse_biword,
    parse_word,
    total_color,
)
from support import (
    abacus_quotient,
    enumerate_signed_permutations,
    grow_by_slices,
    growth_by_every_square,
    growth_reverse_by_every_square,
    schensted_quotients,
    shrink_by_shifts,
    signed_permutations,
    spin_ledger_by_grid,
    tableau_from_chain,
)

H, V = "h", "v"

RUNNING_WORD = parse_word("3' 4 2 1'")

# frames of the running insertion, one per inserted letter
RUNNING_FRAMES = (
    ((3, DominoShape(1, 1, V)),),
    ((3, DominoShape(1, 1, V)), (4, DominoShape(1, 2, H))),
    ((2, DominoShape(1, 1, H)), (3, DominoShape(2, 1, H)), (4, DominoShape(1, 3, V))),
    (
        (1, DominoShape(1, 1, V)),
        (2, DominoShape(1, 2, V)),
        (3, DominoShape(3, 1, H)),
        (4, DominoShape(1, 3, V)),
    ),
)

RUNNING_GRID = (
    ((), (), (), (), ()),
    ((), (), (), (1, 1), (1, 1)),
    ((), (), (), (1, 1), (3, 1)),
    ((), (), (2,), (2, 2), (3, 3)),
    ((), (1, 1), (2, 2), (2, 2, 2), (3, 3, 2)),
)


def test_insert_single_letters():
    barred = insert_letter(DominoTableau((), ()), Letter(3, True))
    assert barred.entries == ((3, DominoShape(1, 1, V)),)
    plain = insert_word(parse_word("1"), 0)
    assert plain.p.entries == ((1, DominoShape(1, 1, H)),)
    assert plain.p == plain.q


def test_insert_letter_over_a_core_and_a_vertical_domino():
    # values spaced out so a letter can land between them; value 4 is a
    # vertical domino below the core in every lower part used here
    tab = DominoTableau(
        (1,),
        (
            (2, DominoShape(1, 2, H)),
            (4, DominoShape(2, 1, V)),
            (6, DominoShape(1, 4, H)),
            (8, DominoShape(2, 2, H)),
            (10, DominoShape(4, 1, V)),
            (12, DominoShape(6, 1, V)),
        ),
    )
    expected = (
        (Letter(5), "2:1,2,h, 4:2,1,v, 5:1,4,h, 6:2,2,h, 8:3,2,h, 10:4,1,v, 12:6,1,v", (5, 3, 3, 1, 1, 1, 1)),
        (Letter(5, True), "2:1,2,h, 4:2,1,v, 5:4,1,v, 6:1,4,h, 8:2,2,h, 10:3,2,v, 12:6,1,v", (5, 3, 2, 2, 1, 1, 1)),
        (Letter(7, True), "2:1,2,h, 4:2,1,v, 6:1,4,h, 7:4,1,v, 8:2,2,h, 10:3,2,v, 12:6,1,v", (5, 3, 2, 2, 1, 1, 1)),
    )
    for letter, entries, shape in expected:
        out = insert_letter(tab, letter)
        assert str(out) == f"[core (1) | {entries}]"
        assert out.shape() == shape
    for value in (4, 12):
        with pytest.raises(ValueError):
            insert_letter(tab, Letter(value, True))


def test_insert_into_one_box_core():
    result = insert_word(parse_word("1'"), 1)
    assert result.p.core == (1,)
    assert result.p.entries == ((1, DominoShape(2, 1, V)),)
    assert result.p.shape() == (1, 1, 1)
    assert growth(parse_word("1'"), 1).p_tableau() == result.p


def insertion_frames(word, core):
    """The insertion tableau after each letter: insert_letter folded from the
    empty tableau, as ``insert --trace`` prints it."""
    return tuple(accumulate(word, insert_letter, initial=DominoTableau(staircase(core), ())))[1:]


def test_running_example_frames():
    result = insert_word(RUNNING_WORD, 0)
    assert tuple(f.entries for f in insertion_frames(RUNNING_WORD, 0)) == RUNNING_FRAMES
    assert result.p.entries == RUNNING_FRAMES[-1]
    assert result.p.shape() == (3, 3, 2)
    assert result.p.vertical_count() == 3
    assert result.q.vertical_count() == 1


def test_insert_rejects_duplicate_value():
    tab = insert_word(parse_word("1"), 0).p
    with pytest.raises(ValueError):
        insert_letter(tab, Letter(1))
    # a tableau whose values repeat, or whose value 1 sits right of value 2
    for entries in (((1, DominoShape(1, 1, H)), (1, DominoShape(1, 3, H))),
                    ((2, DominoShape(1, 1, H)), (1, DominoShape(1, 3, H)))):
        with pytest.raises(ValueError):
            insert_letter(DominoTableau((), entries), Letter(3))


def test_word_matrix_round_trip():
    matrix = word_matrix(RUNNING_WORD)
    assert matrix == (
        (0, 0, -1, 0),
        (0, 0, 0, 1),
        (0, 1, 0, 0),
        (-1, 0, 0, 0),
    )
    with pytest.raises(ValueError):
        word_matrix(parse_word("1 1"))


def test_growth_running_example():
    diagram = growth(RUNNING_WORD, 0)
    assert diagram.grid == RUNNING_GRID
    assert diagram.p.chain() == ((), (1, 1), (2, 2), (2, 2, 2), (3, 3, 2))
    assert diagram.q.chain() == ((), (1, 1), (3, 1), (3, 3), (3, 3, 2))
    assert diagram.spin_ledger_holds()


def test_growth_empty_word():
    diagram = growth((), 2)
    assert diagram.grid == ((staircase(2),),)
    assert diagram.p_tableau() == DominoTableau(staircase(2), ())


_H12, _V21 = "DominoShape(row=1, col=2, orient='h')", "DominoShape(row=2, col=1, orient='v')"
_TAB = f"DominoTableau(core=(1,), entries=((1, {_H12}), (2, {_V21})))"
_TAB_Q = f"DominoTableau(core=(1,), entries=((1, {_V21}), (2, {_H12})))"
_WORD = "(Letter(value=2, barred=True), Letter(value=1, barred=False))"
# each value type: how to build one, a field, and its repr
VALUES = {
    "Letter": (lambda: Letter(3, True), "value", "Letter(value=3, barred=True)"),
    "DominoTableau": (lambda: DominoTableau((1,), [(2, DominoShape(2, 1, V)), (1, DominoShape(1, 2, H))]), "core", _TAB),
    "InvolutionProfile": (
        lambda: involution_profile(parse_word("1 3' 2'")),
        "fixed",
        "InvolutionProfile(fixed=1, barred_fixed=0, two_cycles=0, barred_two_cycles=1)",
    ),
    "GrowthDiagram": (
        lambda: growth(parse_word("2' 1"), 1),
        "word",
        f"GrowthDiagram(word={_WORD}, core_order=1, p={_TAB}, q={_TAB_Q},"
        " changes=(((1, (2, 1, 'v')),), ((0, (1, 2, 'h')),)))",
    ),
    "InsertionResult": (lambda: insert_word(parse_word("2' 1"), 1), "p", f"InsertionResult(p={_TAB}, q={_TAB_Q})"),
    "ColoredBiword": (
        lambda: colored_word(parse_word("2' 1")),
        "letters",
        "ColoredBiword(letters=(Biletter(top=Letter(value=1, barred=False), bottom=Letter(value=2, barred=True)),"
        " Biletter(top=Letter(value=2, barred=False), bottom=Letter(value=1, barred=False))), kind='colored')",
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_are_immutable_and_compare_by_content(name):
    build, field, text = VALUES[name]
    value, again = build(), build()
    assert value == again and hash(value) == hash(again) and value is not again and value != object()
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(again, field))
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and type(copy) is type(value) and repr(copy) == text
    if isinstance(value, DominoTableau):  # the replay it keeps takes no part in equality, hash or repr
        assert value.semistandard_shape() == value.shape()
        assert value == again and hash(value) == hash(again) and repr(value) == text
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(again) and repr(copy) == text
        assert copy.semistandard_shape() == value.shape()


def test_local_rule_validation():
    with pytest.raises(ValueError):
        local_rule((), (2,), (), 1)  # +1 needs three equal corners
    with pytest.raises(ValueError):
        local_rule((), (2,), (1,), 0)  # (1,)/() is not a domino


def test_local_rule_reverse_squares():
    # every square of every small growth diagram reverses to its own corner
    for n in range(4):
        for pi in enumerate_signed_permutations(n):
            diagram = growth(pi, 1)
            for i in range(n):
                for j in range(n):
                    lam, entry = local_rule_reverse(
                        diagram.grid[i + 1][j + 1],
                        diagram.grid[i + 1][j],
                        diagram.grid[i][j + 1],
                    )
                    assert lam == diagram.grid[i][j]
                    assert entry == diagram.matrix[i][j]


def test_growth_reverse_trivial():
    tab = insert_word(parse_word("1"), 0)
    assert growth_reverse(tab.p, tab.q) == ((1,),)
    assert growth_reverse(DominoTableau(staircase(2), ()), DominoTableau(staircase(2), ())) == ()


def test_growth_reverse_rejects_bad_chains():
    bad = [
        (tableau_from_chain(((), (2,))), tableau_from_chain(((), (1, 1)))),  # unequal final shapes
        (insert_word(parse_word("1"), 1).p, insert_word(parse_word("1'"), 0).p),  # cores 1 and 0
        # values 1 and 2 tile (4), but value 1 alone is no shape: not standard
        (DominoTableau((), ((1, DominoShape(1, 3, H)), (2, DominoShape(1, 1, H)))), tableau_from_chain(((), (2,), (4,)))),
    ]
    bad.append(bad[-1][::-1])
    bad.append(biword_insert(parse_biword("1/1 2/1"), 0))  # P repeats value 1
    skipping = DominoTableau((), ((1, DominoShape(1, 1, H)), (3, DominoShape(1, 3, H))))
    bad.append((insert_word(parse_word("1 2"), 0).p, skipping))  # a standard P, and a Q that skips 2
    # a tableau's core is the 2-core of its shape (each domino covers one
    # cell of each content parity), so a Q of P's shape over another core
    # is built around the constructor's checks
    p = insert_word(parse_word("2 1"), 0).p
    q = object.__new__(DominoTableau)
    for name, value in (("core", (1,)), ("entries", p.entries), ("_shape", p.shape())):
        object.__setattr__(q, name, value)
    bad.append((p, q))
    for p, q in bad:
        with pytest.raises(ValueError, match="standard tableaux of one shape over one core"):
            growth_reverse(p, q)
    with pytest.raises(ValueError):
        tableau_from_chain(((2,), (2, 2)))  # core is not a staircase


def test_growth_reverse_compares_the_replayed_shapes():
    # the stated shapes agree, but P's domino relaid upright replays to
    # (1, 1): the precondition, not a lift, rejects the pair
    diagram = growth(parse_word("1"), 0)
    relaid = DominoTableau._placed((), ((1, DominoShape(1, 1, V)),), (2,))
    assert diagram.p.shape() == relaid.shape() == (2,) and relaid.is_standard()
    with pytest.raises(ValueError, match="^growth_reverse expects standard tableaux of one shape over one core$"):
        growth_reverse_word(relaid, diagram.q)


def test_growth_reverse_compares_the_stated_shapes():
    # a genuine pair whose P states another shape of its size: the replays
    # agree, and the stated shapes still reject it
    diagram = growth(parse_word("2 1' 3"), 1)
    other = next(mu for mu in enumerate_with_core(1, 3) if mu != diagram.p.shape())
    p = DominoTableau._placed(diagram.p.core, diagram.p.entries, other)
    assert p.semistandard_shape() == diagram.q.semistandard_shape() == diagram.q.shape()
    with pytest.raises(ValueError, match="^growth_reverse expects standard tableaux of one shape over one core$"):
        growth_reverse_word(p, diagram.q)


def test_bijection_small_exhaustive():
    from dominsert.partitions import enumerate_with_core

    for n in range(4):
        for core in (0, 1, 2):
            seen = set()
            for pi in enumerate_signed_permutations(n):
                result = insert_word(pi, core)
                diagram = growth(pi, core)
                assert diagram.p_tableau() == result.p
                assert diagram.q_tableau() == result.q
                assert diagram.spin_ledger_holds()
                assert 2 * total_color(pi) == (
                    result.p.vertical_count() + result.q.vertical_count()
                )
                assert growth_reverse_word(result.p, result.q) == pi
                pair = (result.p, result.q)
                assert pair not in seen
                seen.add(pair)
            expected = sum(
                len(enumerate_standard(lam)) ** 2
                for lam in enumerate_with_core(core, n)
            )
            assert len(seen) == expected


def test_surjectivity_onto_tableau_pairs():
    from dominsert.partitions import enumerate_with_core

    for core in (0, 1):
        for lam in enumerate_with_core(core, 2):
            tabs = enumerate_standard(lam)
            for p in tabs:
                for q in tabs:
                    pi = growth_reverse_word(p, q)
                    result = insert_word(pi, core)
                    assert (result.p, result.q) == (p, q)


def test_inverse_symmetry():
    for n in range(4):
        for pi in enumerate_signed_permutations(n):
            result = insert_word(pi, 1)
            other = insert_word(group_inverse(pi), 1)
            assert result.p == other.q and result.q == other.p


def grid_from_local_rule(word, core, column_major=False):
    """Fill the squares one by one with the shape-level local rule."""
    matrix = word_matrix(word)
    n = len(matrix)
    grid = [[staircase(core)] * (n + 1) for _ in range(n + 1)]
    squares = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    if column_major:
        squares.sort(key=lambda square: (square[1], square[0]))
    for i, j in squares:
        grid[i][j] = local_rule(
            grid[i - 1][j - 1], grid[i][j - 1], grid[i - 1][j], matrix[i - 1][j - 1]
        )
    return tuple(tuple(row) for row in grid)


def scrambled_growth_grid(word, core):
    """Fill the squares column-major instead of row-major."""
    return grid_from_local_rule(word, core, column_major=True)


def test_growth_order_independent():
    for n in range(4):
        for pi in enumerate_signed_permutations(n):
            assert growth(pi, 1).grid == scrambled_growth_grid(pi, 1)


def test_larger_words_spot_checks():
    # beyond the exhaustive range: fixed words in B_5 and B_6
    for text in (
        "3' 5 1 4' 2",
        "5' 4' 3' 2' 1'",
        "2 4' 6 1' 3 5'",
        "6' 1 5 2' 4 3",
        "4 6' 2 5' 1' 3'",
    ):
        word = parse_word(text)
        for core in (0, 1, 2):
            result = insert_word(word, core)
            diagram = growth(word, core)
            assert diagram.p_tableau() == result.p
            assert diagram.q_tableau() == result.q
            assert diagram.spin_ledger_holds()
            assert 2 * total_color(word) == (
                result.p.vertical_count() + result.q.vertical_count()
            )
            assert growth_reverse_word(result.p, result.q) == word


def test_growth_str_shapes():
    text = growth_str(growth(RUNNING_WORD, 0))
    lines = text.splitlines()
    assert lines[0].startswith("()")
    assert "(3,3,2)" in lines[0]
    assert lines[-1].strip().startswith("()")
    celled = growth_str(growth(parse_word("2' 1"), 0), cells=True)
    assert "#" in celled


cores = st.integers(min_value=0, max_value=2)


@settings(max_examples=30)
@given(signed_permutations(), cores)
def test_labelled_growth_matches_shape_rule(word, core):
    assert growth(word, core).grid == grid_from_local_rule(word, core)


@settings(max_examples=40)
@given(signed_permutations(), cores)
def test_growth_reverse_inverts_growth(word, core):
    diagram = growth(word, core)
    assert growth_reverse(diagram.p, diagram.q) == diagram.matrix


@settings(max_examples=40)
@given(signed_permutations(), cores)
def test_bumping_agrees_with_growth(word, core):
    result = insert_word(word, core)
    diagram = growth(word, core)
    assert diagram.p_tableau() == result.p
    assert diagram.q_tableau() == result.q


def _two_schensted_insertions(word, core, result):
    # the oracle shares no code with the library's insertion, tableaux or 2-quotient
    chains = [[abacus_quotient(shape) for shape in tab.chain()] for tab in (result.p, result.q)]
    return chains == list(schensted_quotients(word, core))


@settings(max_examples=30)
@given(signed_permutations(max_n=200), st.sampled_from((-1, 0, 5)))
def test_bumping_over_a_large_core_is_two_schensted_insertions(word, offset):
    core = max(len(word) + offset, 0)
    assert _two_schensted_insertions(word, core, insert_word(word, core))


def test_bumping_over_a_large_core_is_two_schensted_insertions_on_every_word():
    # every signed permutation of n <= 5 at core orders n - 1 and n
    for n in range(6):
        for core in sorted({max(n - 1, 0), n}):
            for word, result in insert_all(n, core):
                assert _two_schensted_insertions(word, core, result), (word, core)


@settings(max_examples=60)
@given(
    signed_permutations(max_n=20),
    cores,
    st.sampled_from(("swap", "skip", "stall")),
    st.data(),
)
def test_growth_reverse_rejects_corrupted_chains(word, core, corruption, data):
    """A corrupted pair of chains is a ValueError, never an IndexError, from
    reading the chains as tableaux or from the reverse."""
    diagram = growth(word, core)
    p, q = list(diagram.p.chain()), list(diagram.q.chain())
    n = len(word)
    if corruption == "swap":
        # exchange two neighbouring interior shapes of P
        if n < 3:
            return
        k = data.draw(st.integers(min_value=1, max_value=n - 2))
        p[k], p[k + 1] = p[k + 1], p[k]
    elif corruption == "skip":
        # drop one interior shape from each chain
        if n < 2:
            return
        del p[data.draw(st.integers(min_value=1, max_value=n - 1))]
        del q[data.draw(st.integers(min_value=1, max_value=n - 1))]
    else:
        # repeat one shape in each chain: every step adds a domino or nothing
        for chain in (p, q):
            k = data.draw(st.integers(min_value=0, max_value=n))
            chain.insert(k, chain[k])
    with pytest.raises(ValueError):
        growth_reverse(tableau_from_chain(p), tableau_from_chain(q))


def test_growth_reverse_on_all_small_chain_pairs():
    """Every pair of standard tableaux with at most 4 dominoes over cores 0-2:
    the reverse succeeds exactly when both have one shape (the bijection),
    and then the recovered matrix grows back to both tableaux."""
    pairs = same_shape = 0
    for core in (0, 1, 2):
        for n in range(5):
            tabs = [tab for lam in enumerate_with_core(core, n) for tab in enumerate_standard(lam)]
            for p in tabs:
                for q in tabs:
                    pairs += 1
                    if p.shape() == q.shape():
                        same_shape += 1
                        diagram = growth(growth_reverse_word(p, q), core)
                        assert (diagram.p, diagram.q) == (p, q)
                    else:
                        with pytest.raises(ValueError):
                            growth_reverse(p, q)
    assert (pairs, same_shape) == (18651, 1329)


@settings(max_examples=30)
@given(signed_permutations(), cores)
def test_insert_word_steps_match_insert_letter(word, core):
    """insert_word threads one entries list; letter-by-letter insertion into
    validated tableaux ends at the same P, and Q is the chain of its shapes."""
    frames = (DominoTableau(staircase(core), ()),) + insertion_frames(word, core)
    result = insert_word(word, core)
    assert result.p == frames[-1]
    assert result.q == tableau_from_chain([frame.shape() for frame in frames])


@settings(max_examples=30)
@given(signed_permutations(), cores)
def test_insert_frames_match_insert_letter(word, core):
    # ``insert --trace`` snapshots one index; the fold validates every input tableau
    assert tuple(insert_frames(word, core)) == insertion_frames(word, core)


@settings(max_examples=60)
@given(
    signed_permutations(),
    cores,
    st.sampled_from(("swap", "repeat", "other-q")),
    st.booleans(),
    st.data(),
)
def test_growth_reverse_rejects_damaged_chains(word, core, damage, on_p, data):
    """A chain damaged at one step raises ValueError, read as a tableau or in
    the reverse.  A Q tableau taken from another word of the same length
    does exactly when its shape differs."""
    diagram = growth(word, core)
    chains = [list(diagram.p.chain()), list(diagram.q.chain())]
    n = len(word)
    if damage == "other-q":
        other = data.draw(signed_permutations(max_n=n, min_n=n))
        p, q = diagram.p, growth(other, core).q
        if p.shape() == q.shape():
            regrown = growth(growth_reverse_word(p, q), core)
            assert (regrown.p, regrown.q) == (p, q)
        else:
            with pytest.raises(ValueError):
                growth_reverse(p, q)
        return
    if n < 2:
        return
    chain = chains[0 if on_p else 1]
    k = data.draw(st.integers(min_value=1, max_value=n - 1 if damage == "swap" else n))
    if damage == "swap":
        chain[k], chain[k + 1] = chain[k + 1], chain[k]
    else:
        chain[k] = chain[k - 1]  # step k adds nothing
    with pytest.raises(ValueError):
        growth_reverse(*map(tableau_from_chain, chains))


def test_every_domino_is_a_domino_shape():
    word = parse_word("5' 12 3 9' 1 11' 7 2' 10 4' 8 6'")
    tableaux = []
    for core in range(3):
        result = insert_word(word, core)
        tableaux += [result.p, result.q, growth(word, core).p_tableau()]
    tableaux += enumerate_standard(insert_word(RUNNING_WORD).p.shape())
    dominoes = [dom for tab in tableaux for _, dom in tab.entries]
    dominoes += [dom for lam in enumerate_with_core(1, 3) for _, dom in domino_successors(lam)]
    assert dominoes and all(type(dom) is DominoShape for dom in dominoes)


@settings(max_examples=30)
@given(signed_permutations(max_n=30), cores)
def test_vertical_labels_are_the_grid_dominoes(word, core):
    diagram = growth(word, core)
    for labels, inner, outer in zip(diagram.vertical, diagram.grid, diagram.grid[1:]):
        assert labels == tuple(None if o == i else skew_domino(o, i) for i, o in zip(inner, outer))


@settings(max_examples=30)
@given(signed_permutations(), cores)
def test_no_label_left_of_a_rows_nonzero_entry(word, core):
    # growth starts each row at its nonzero column and the reverse leaves a
    # row once its right label is None; the local-rule grid shows why
    diagram = growth(word, core)
    grid = grid_from_local_rule(word, core)
    for i, letter in enumerate(word):
        for j in range(letter.value):
            assert diagram.vertical[i][j] is None
            assert grid[i + 1][j] == grid[i][j]
    assert growth_reverse(diagram.p, diagram.q) == diagram.matrix


def replay_bump(core, entries, letter):
    """Reference bumping that shares no code with the row index: rebuild the
    shape below the letter's value, seed, then replay every larger domino
    against the current shape.  Returns the new sorted entries."""
    value = letter.value
    split = bisect_left(entries, value, key=itemgetter(0))
    if split < len(entries) and entries[split][0] == value:
        raise ValueError(f"value {value} already present")
    lower, upper = entries[:split], entries[split:]
    placed = list(lower)
    rows = list(tiled_shape(core, lower))
    if letter.barred:
        seed = DominoShape(len(rows) + 1, 1, "v")
    else:
        seed = DominoShape(1, (rows[0] if rows else 0) + 1, "h")
    place_domino(rows, *seed)
    placed.append((value, seed))
    for other_value, dom in upper:
        inside = [(r, c) for r, c in dom.cells() if r <= len(rows) and c <= rows[r - 1]]
        if len(inside) == 0:
            new = dom
        elif len(inside) == 1:
            (k, l) = inside[0]
            free = next(cell for cell in dom.cells() if cell != (k, l))
            new = domino_of_cells(free, (k + 1, l + 1))
        elif dom.orient == "h":
            new = DominoShape(dom.row + 1, part(rows, dom.row + 1) + 1, "h")
        else:
            new = DominoShape(col_height(rows, dom.col + 1) + 1, dom.col + 1, "v")
        place_domino(rows, *new)
        placed.append((other_value, new))
    return tuple(placed)


def test_insert_letter_matches_the_replay_on_small_tableaux():
    """Every standard tableau with at most 4 dominoes over cores 0-2, its
    values spaced out to 2, 4, ...: every odd value inserts, barred and
    unbarred, as the replay does, and every present value raises."""
    inserted = 0
    for core in (0, 1, 2):
        for n in range(5):
            for lam in enumerate_with_core(core, n):
                for tab in enumerate_standard(lam):
                    spaced = DominoTableau(tab.core, tuple((2 * v, dom) for v, dom in tab.entries))
                    for value in range(1, 2 * n + 2):
                        for barred in (False, True):
                            letter = Letter(value, barred)
                            if value % 2:
                                want = replay_bump(spaced.core, spaced.entries, letter)
                                assert insert_letter(spaced, letter).entries == want
                                inserted += 1
                            else:
                                with pytest.raises(ValueError):
                                    insert_letter(spaced, letter)
    assert inserted == 2898


@settings(max_examples=40)
@given(signed_permutations(), cores)
def test_insert_word_steps_match_the_replay(word, core):
    """insert_letter folded letter by letter gives the replay's tableau after
    every step, and insert_word ends at the replay's P and Q."""
    entries, steps = (), []
    for letter in word:
        entries = replay_bump(staircase(core), entries, letter)
        steps.append(entries)
    assert tuple(frame.entries for frame in insertion_frames(word, core)) == tuple(steps)
    shapes = [staircase(core)] + [tiled_shape(staircase(core), step) for step in steps]
    result = insert_word(word, core)
    assert result.p.entries == (steps[-1] if steps else ())
    assert result.q == tableau_from_chain(shapes)


@settings(max_examples=5)
@given(signed_permutations(min_n=150, max_n=200))
def test_insert_word_matches_the_replay_at_benchmark_size(word):
    """P and Q at the round-trip benchmark's sizes, over cores 0-3, against
    the replay and the chain of shapes it tiles after each letter."""
    for core in range(4):
        entries, shapes = (), [staircase(core)]
        for letter in word:
            entries = replay_bump(staircase(core), entries, letter)
            shapes.append(tiled_shape(staircase(core), entries))
        result = insert_word(word, core)
        assert result.p.entries == entries
        assert result.q == tableau_from_chain(shapes)


def views_of(core, entries):
    """P's non-core values read across each row and down each column, from
    its cells, with P's shape."""
    shape = tiled_shape(staircase(core), entries)
    at = {cell: value for value, dom in entries for cell in dom.cells()}
    rows = [[at[r, c] for c in range(max(core + 1 - r, 0) + 1, length + 1)] for r, length in enumerate(shape, 1)]
    heights = [col_height(shape, c) for c in range(1, (shape[0] if shape else 0) + 1)]
    cols = [[at[r, c] for r in range(max(core + 1 - c, 0) + 1, height + 1)] for c, height in enumerate(heights, 1)]
    return rows, cols, shape


def seeded_word(n, seed):
    rng = random.Random(seed)
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(Letter(v, rng.random() < 0.5) for v in values)


@settings(max_examples=40, deadline=None)
@given(signed_permutations(), st.integers(min_value=0, max_value=4))
@example(seeded_word(200, 22), 3)
def test_the_row_and_column_views_agree_with_p_after_every_step(word, core):
    """After each letter the index's rows and columns hold the replay's P,
    read across each row and down each column; lists past the shape are
    empty."""
    base, entries = staircase(core), ()
    index = insertion._RowIndex(base, (), base)
    for letter in word:
        index.insert(letter)
        entries = replay_bump(base, entries, letter)
        rows, cols, shape = views_of(core, entries)
        assert tuple(index.lengths) == shape
        assert index.rows[:len(rows)] == rows and not any(index.rows[len(rows):])
        assert index.cols[:len(cols)] == cols and not any(index.cols[len(cols):])


def test_non_letters_are_not_a_signed_permutation():
    # a matrix or bare integers raise ValueError, not AttributeError
    assert not is_signed_permutation((1, 2)) and not is_signed_permutation((Letter(1), 2))
    # a word of letters that skips a value raises in insert_frames as in insert_word
    for call in (
        lambda: growth(((1, 0), (0, 1)), 1),
        lambda: insert_word((1, 2)),
        lambda: word_matrix((2, 1)),
        lambda: insert_frames((1, 2)),
        lambda: insert_frames(parse_word("1 3")),
    ):
        with pytest.raises(ValueError, match="signed permutation"):
            call()


@settings(max_examples=20, deadline=None)
@given(
    signed_permutations(max_n=200),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(("intact", "other", "relaid")),
    st.data(),
)
def test_growth_matches_every_square_reference_at_benchmark_size(word, core, damage, data):
    """Growth and its reverse run a local rule only where a row's label
    changes; the reference runs one on every square with a top label.  Both
    give the same changes, P and Q, and the same word or ValueError message
    on a pair whose stated shape hides a damaged tableau: P stating the shape
    of another word's Q, or P or Q with its last domino laid elsewhere."""
    diagram = growth(word, core)
    assert (diagram.changes, diagram.p, diagram.q) == growth_by_every_square(word, core)
    pair = [diagram.p, diagram.q]
    if damage == "other":
        other = growth(data.draw(signed_permutations(min_n=len(word), max_n=len(word))), core).q
        pair = [DominoTableau._placed(diagram.p.core, diagram.p.entries, other.shape()), other]
    elif damage == "relaid" and word:
        side = data.draw(st.integers(min_value=0, max_value=1))
        tab = pair[side]
        value, last = tab.entries[-1]
        elsewhere = [dom for _, dom in domino_successors(tab.chain()[-2]) if dom != last]
        if elsewhere:
            dom = data.draw(st.sampled_from(elsewhere))
            pair[side] = DominoTableau._placed(tab.core, tab.entries[:-1] + ((value, dom),), tab.shape())
    back = _outcome(growth_reverse_word, *pair)
    assert back == _outcome(growth_reverse_by_every_square, *pair)
    if damage == "intact":
        assert back == word


def test_a_row_index_out_of_step_fails_its_move():
    # two corrupted indices, each caught at its first move and named by the
    # inserted value: value 2's domino does not start at the cell the rows
    # put it in, or row 2 holds a cell below 2 that no domino covers
    index = insertion._RowIndex((), ((2, DominoShape(1, 1, H)),), (2,))
    index.dominoes[2] = DominoShape(2, 1, H)
    with pytest.raises(ValueError, match=r"does not start at \(1, 1\) in the insertion of 1$"):
        index.insert(Letter(1, True))
    index = insertion._RowIndex((), ((2, DominoShape(1, 1, V)),), (1, 1))
    index.rows[1].insert(0, 1)
    with pytest.raises(ValueError, match=r"^cannot move .* to .* in the insertion of 1$"):
        index.insert(Letter(1))


def test_insertion_over_a_large_core_stays_small():
    # core cells are never stored, so a 3000-row core costs its row lengths only
    tracemalloc.start()
    try:
        insert_word(parse_word("3 1 2' 5 4'"), 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_insert_word_keeps_no_per_step_copies():
    # one signed permutation of size 1000: a copy of the entries after every
    # step would hold about n^2/2 entries
    rng = random.Random(1000)
    values = list(range(1, 1001))
    rng.shuffle(values)
    word = tuple(Letter(v, rng.random() < 0.5) for v in values)
    tracemalloc.start()
    try:
        result = insert_word(word, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.p) == len(result.q) == 1000
    assert peak < 2_000_000


def test_bumping_places_a_bounded_number_of_dominoes(monkeypatch):
    """Bumping visits only the dominoes on its path: a seeded signed
    permutation of size 200 makes fewer than 4n calls that place a domino or
    build a shape, where a replay of every larger domino makes about n^2/4."""
    calls = Counter()
    # insertion binds tiled_shape itself only if bumping rebuilds shapes again
    for module, name in ((insertion, "place_domino"), (insertion, "tiled_shape"), (tableaux_module, "tiled_shape")):
        original = getattr(module, name, None)
        if original is not None:

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
    rng = random.Random(200)
    values = list(range(1, 201))
    rng.shuffle(values)
    word = tuple(Letter(v, rng.random() < 0.5) for v in values)
    result = insert_word(word, 1)
    assert sum(calls.values()) < 4 * len(word)
    monkeypatch.undo()
    assert result.p == growth(word, 1).p_tableau()


def _random_word(rng, n):
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(Letter(v, rng.random() < 0.5) for v in values)


def _outcome(rule, *args):
    try:
        return rule(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_local_rules_test_overlaps_as_the_slicing_rules_do():
    """``_grow`` and ``_shrink`` compare coordinates where the rules in
    ``support`` slice labels and shift copies; they agree on every pair of
    labels, None or a domino with row and column at most 5, every entry and
    every partition of size at most 10, down to ``_shrink``'s row list."""
    labels = [None] + [(row, col, orient) for row in range(1, 6) for col in range(1, 6) for orient in (H, V)]
    pairs = [(a, b) for a in labels for b in labels]
    shapes = [shape for size in range(11) for shape in enumerate_partitions(size)]
    mismatches = []
    for shape in shapes:
        for a, b in pairs:
            for entry in (-1, 0, 1):
                if _outcome(insertion._grow, shape, a, b, entry) != _outcome(grow_by_slices, shape, a, b, entry):
                    mismatches.append(("grow", shape, a, b, entry))
            rows, expected = list(shape), list(shape)
            if (_outcome(insertion._shrink, rows, a, b), rows) != (_outcome(shrink_by_shifts, expected, a, b), expected):
                mismatches.append(("shrink", shape, a, b))
    assert len(shapes) == 139 and not mismatches


def test_growth_visits_only_squares_with_a_top_label(monkeypatch):
    """Growth and its reverse check a domino only where a row's label
    changes: growth runs ``_grow`` and places with ``place_domino`` there,
    and the reverse runs ``_shrink``, which lifts with ``lift_domino`` on
    every such square but the seeds.  On the other squares they write the
    row lengths of the label that passes through."""
    calls = Counter()
    for name in ("_grow", "_shrink", "place_domino", "lift_domino"):

        def counted(*args, _name=name, _original=getattr(insertion, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(insertion, name, counted)
    rng = random.Random(10)
    for n in (0, 1, 2, 5, 17, 40, 200):
        for core in range(3):
            word = _random_word(rng, n)
            calls.clear()
            diagram = growth(word, core)
            changes = sum(map(len, diagram.changes))
            assert calls == Counter(place_domino=changes, _grow=changes)
            calls.clear()
            assert growth_reverse(diagram.p, diagram.q) == diagram.matrix
            assert calls == Counter(lift_domino=changes - n, _shrink=changes)


def test_proven_dominoes_skip_the_range_check(monkeypatch):
    """Bumping and growth build the dominoes they prove in range without
    ``DominoShape.__new__``, and each one would pass its check."""
    calls = []

    def counted(cls, *args, _original=DominoShape.__new__):
        calls.append(args)
        return _original(cls, *args)

    monkeypatch.setattr(DominoShape, "__new__", counted)
    word, tableaux = _random_word(random.Random(23), 200), []
    for core in range(3):
        bumped, grown = insert_word(word, core), growth(word, core)
        tableaux += bumped.p, bumped.q, grown.p, grown.q
    assert len(calls) == 0
    monkeypatch.undo()
    for tab in tableaux:
        assert len(tab) == 200
        assert all(type(d) is DominoShape and DominoShape(*d) == d for _, d in tab.entries)


def test_growth_keeps_where_each_rows_label_changes(monkeypatch):
    """Row i's change list starts at its seed, column value - 1, rises in
    j, and each label differs from the one before: the row's label changes
    only where ``_grow`` seeds, bumps (equal labels) or fills a 2x2 block
    (labels from one cell), on 1 + that many of the row's squares."""
    rows = []

    def counted(nu, a, b, entry, _original=insertion._grow):
        if entry:
            rows.append(0)
        elif a and b and a[:2] == b[:2]:
            rows[-1] += 1
        return _original(nu, a, b, entry)

    monkeypatch.setattr(insertion, "_grow", counted)
    rng = random.Random(14)
    for n in (0, 1, 2, 5, 17, 60):
        for core in range(3):
            word = _random_word(rng, n)
            rows.clear()
            diagram = growth(word, core)
            assert len(diagram.changes) == len(rows) == n
            for letter, changes, turns in zip(word, diagram.changes, rows):
                columns = [j for j, _ in changes]
                assert columns[0] == letter.value - 1 and columns == sorted(set(columns))
                assert all(left != label for (_, left), (_, label) in zip(changes, changes[1:]))
                assert len(changes) == 1 + turns


def _toggled(diagram, i):
    """The diagram with the bar of letter i toggled, the sign of its entry."""
    word = diagram.word
    return diagram._replace(word=word[:i] + (word[i].with_bar(not word[i].barred),) + word[i + 1:])


def test_spin_ledger_derives_no_label_from_shapes(monkeypatch):
    """The ledger reads the labels of the changed squares and derives each
    horizontal label from them: it makes no ``skew_domino`` call.  Toggling
    the bar of one letter breaks the ledger."""
    calls = Counter()

    def counted(outer, inner, _original=insertion.skew_domino):
        calls["skew_domino"] += 1
        return _original(outer, inner)

    monkeypatch.setattr(insertion, "skew_domino", counted)
    rng = random.Random(30)
    for n in (1, 4, 30):
        for core in range(3):
            diagram = growth(_random_word(rng, n), core)
            assert diagram.spin_ledger_holds()
            assert not _toggled(diagram, rng.randrange(n)).spin_ledger_holds()
    assert calls["skew_domino"] == 0


@settings(max_examples=60)
@given(signed_permutations(max_n=40), st.integers(min_value=0, max_value=3), st.randoms(use_true_random=False))
def test_spin_ledger_agrees_with_the_grid_ledger(word, core, rng):
    diagram = growth(word, core)
    assert diagram.spin_ledger_holds() is spin_ledger_by_grid(diagram) is True
    if word:
        toggled = _toggled(diagram, rng.randrange(len(word)))
        assert toggled.spin_ledger_holds() is spin_ledger_by_grid(toggled) is False


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=500), st.randoms(use_true_random=False), cores)
def test_spin_ledger_holds_at_large_n(n, rng, core):
    diagram = growth(_random_word(rng, n), core)
    assert diagram.spin_ledger_holds()
    if n:
        assert not _toggled(diagram, rng.randrange(n)).spin_ledger_holds()


def test_the_walk_inserts_as_insert_word_does():
    for n in range(6):
        for core in range(4):
            walked = [(word, result.p, result.q) for word, result in insert_all(n, core)]
            results = [(word, insert_word(word, core)) for word in enumerate_signed_permutations(n)]
            assert walked == [(word, result.p, result.q) for word, result in results]


def test_the_walk_rejects_a_negative_n():
    with pytest.raises(ValueError, match="nonnegative"):
        next(insert_all(-1))


def _peak(function, *args):
    tracemalloc.start()
    try:
        result = function(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_growth_holds_the_word_not_the_matrix():
    # n = 1000: a dense matrix costs about 8 MB, and so does an n x (n + 1)
    # table of vertical labels; what stays is the column per value, and per
    # row the few squares where its label changes
    word = _random_word(random.Random(1000), 1000)
    diagram, peak = _peak(growth, word, 1)
    assert peak < 5_000_000
    assert diagram.word == word


def test_spin_ledger_memory_is_linear_in_n():
    # the grid ledger replays (n + 1)^2 shapes, a quadratic peak at least;
    # this one keeps one horizontal label per value
    for n in (250, 1000):
        diagram = growth(_random_word(random.Random(n), n), 1)
        holds, peak = _peak(diagram.spin_ledger_holds)
        assert holds and peak < 200 * n


def test_growth_reverse_builds_the_word_alone():
    # n = 1000: a [0] * n row per letter costs about 8 MB; the peeling keeps
    # only the present columns
    word = _random_word(random.Random(1000), 1000)
    result = insert_word(word, 1)
    back, peak = _peak(growth_reverse_word, result.p, result.q)
    assert back == word
    assert peak < 2_000_000


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=500), st.randoms(use_true_random=False), cores)
def test_round_trip_at_large_n(n, rng, core):
    word = _random_word(rng, n)
    result = insert_word(word, core)
    diagram = growth(word, core)
    assert (diagram.p, diagram.q) == (result.p, result.q)
    assert growth_reverse_word(result.p, result.q) == word


@settings(max_examples=30)
@given(signed_permutations(max_n=20), cores)
def test_the_matrix_is_a_view_of_the_word(word, core):
    diagram = growth(word, core)
    assert diagram.word == word
    assert diagram.matrix == word_matrix(word)
