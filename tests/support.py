"""Helpers shared by several test modules: reference constructions that the
library no longer carries, and Hypothesis strategies for biwords and signed
permutations."""

import itertools
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass

from hypothesis import strategies as st

from dominsert import insertion, involutions
from dominsert.partitions import (
    HORIZONTAL,
    VERTICAL,
    DominoShape,
    as_partition,
    col_height,
    conjugate,
    lift_domino,
    part,
    place_domino,
    remove_domino,
    size,
    skew_domino,
    staircase,
    two_core,
)
from dominsert.polynomials import PARAMS, MPoly
from dominsert.series import TruncatedSeries
from dominsert.tableaux import DominoTableau, enumerate_semistandard, enumerate_standard, tableau_sign
from dominsert.words import (
    COLORED,
    DUAL,
    Biletter,
    ColoredBiword,
    InvolutionProfile,
    Letter,
    biword,
    colored_word,
    invert_colored,
    invert_dual,
    is_signed_permutation,
    neg_values,
)
from dominsert.young import enumerate_syt, syt_sign


def tableau_from_chain(shapes, values=None):
    """Build a tableau from a chain of shapes differing by dominoes."""
    shapes = [as_partition(s) for s in shapes]
    values = values or range(1, len(shapes))
    entries = []
    for value, (inner, outer) in zip(values, zip(shapes, shapes[1:])):
        if inner == outer:
            raise ValueError("chain stalls")
        dom = skew_domino(outer, inner)
        if dom is None:
            raise ValueError(f"{outer}/{inner} is not a domino")
        entries.append((value, dom))
    return DominoTableau(shapes[0], tuple(entries))


def spin_ledger_by_grid(diagram):
    """The spin ledger of a growth diagram at every square, each horizontal
    label derived from the replayed grid of shapes."""

    def vert(dom):
        return 1 if dom and dom[2] == VERTICAL else 0

    below = [0] * diagram.n  # the grid's bottom row is all core
    for letter, labels, shapes in zip(diagram.word, diagram.vertical, diagram.grid[1:]):
        above = [vert(insertion._label(outer, inner)) for inner, outer in zip(shapes, shapes[1:])]
        side = [vert(dom) for dom in labels]
        minus = letter.value - 1 if letter.barred else -1  # the row's -1 column, if any
        for j in range(diagram.n):
            if above[j] + side[j + 1] != side[j] + below[j] + 2 * (j == minus):
                return False
        below = above
    return True


def enumerate_signed_permutations(n):
    """All 2^n n! signed permutations of [n], sorted by their neg-values."""
    words = [
        tuple(Letter(v, b) for v, b in zip(values, bars))
        for values in itertools.permutations(range(1, n + 1))
        for bars in itertools.product((False, True), repeat=n)
    ]
    return sorted(words, key=neg_values)


def domino_predecessors_by_rows(lam):
    """``partitions.domino_predecessors`` testing every row of the shape."""
    out = []
    for r in range(1, len(lam) + 1):
        length = lam[r - 1]
        if length >= 2 and part(lam, r + 1) <= length - 2:
            dom = DominoShape(r, length - 1, HORIZONTAL)
            out.append((remove_domino(lam, dom), dom))
        if part(lam, r + 1) == length and part(lam, r + 2) <= length - 1:
            dom = DominoShape(r, length, VERTICAL)
            out.append((remove_domino(lam, dom), dom))
    return out


# ---------------------------------------------------------------------------
# domino insertion at a large core: two Schensted insertions


def schensted_shape(values):
    """The shape of the row insertion tableau of distinct values."""
    rows = []
    for x in values:
        for row in rows:
            i = bisect_left(row, x)
            if i == len(row):
                break
            row[i], x = x, row[i]
        else:
            row = []
            rows.append(row)
        row.append(x)
    return tuple(map(len, rows))


def abacus_quotient(lam):
    """The 2-quotient of lam on a 2-abacus with an even bead count: the
    partitions the beads of even and of odd position form on their runners."""
    beads = len(lam) + len(lam) % 2
    runners = ([], [])
    for i, length in enumerate(list(lam) + [0] * (beads - len(lam))):
        position = length + beads - 1 - i
        runners[position % 2].append(position // 2)
    return tuple(tuple(p for p in (b - (len(r) - 1 - j) for j, b in enumerate(r)) if p) for r in runners)


def schensted_quotients(word, core):
    """The 2-quotients of P's and of Q's chain of shapes that domino insertion
    of a signed permutation of n reaches over a core of order at least n - 1:
    at step k of Q's chain the Schensted shapes of the unbarred and of the
    barred values among the first k letters, the second conjugated, and for
    an even core swapped; P's chain reads the letters of value at most k."""

    def pair(letters):
        plain = schensted_shape(x.value for x in letters if not x.barred)
        barred = conjugate(schensted_shape(x.value for x in letters if x.barred))
        return (plain, barred) if core % 2 else (barred, plain)

    steps = range(len(word) + 1)
    return [pair([x for x in word if x.value <= k]) for k in steps], [pair(word[:k]) for k in steps]


# ---------------------------------------------------------------------------
# Young tableaux by brute force


def syt_by_lattice_words(lam):
    """The standard Young tableaux of shape lam, value k in row w_k of a
    lattice word w of content lam, in lex order of w: every ordering of the
    rows' multiset, taken by the classic next-permutation step, is kept when
    no prefix holds more of a row than of the row above."""
    word = [r for r, length in enumerate(lam) for _ in range(length)]
    out = []
    while True:
        counts = [0] * len(lam)
        for r in word:
            counts[r] += 1
            if r and counts[r] > counts[r - 1]:
                break
        else:
            rows = [[] for _ in lam]
            for k, r in enumerate(word, start=1):
                rows[r].append(k)
            out.append(tuple(map(tuple, rows)))
        k = len(word) - 2
        while k >= 0 and word[k] >= word[k + 1]:
            k -= 1
        if k < 0:
            return out
        last = max(i for i in range(k + 1, len(word)) if word[i] > word[k])
        word[k], word[last] = word[last], word[k]
        word[k + 1:] = reversed(word[k + 1:])


def ssyt_by_filter(lam, max_value):
    """The semistandard Young tableaux of shape lam with entries at most
    max_value: every filling, kept when its rows weakly and its columns
    strictly increase."""
    out = []
    for values in itertools.product(range(1, max_value + 1), repeat=sum(lam)):
        cells = iter(values)
        rows = [tuple(next(cells) for _ in range(length)) for length in lam]
        weak = all(a <= b for row in rows for a, b in zip(row, row[1:]))
        strict = all(a < b for upper, lower in zip(rows, rows[1:]) for a, b in zip(upper, lower))
        if weak and strict:
            out.append(tuple(rows))
    return out


# ---------------------------------------------------------------------------
# spin statistics and sign imbalance by enumeration


def imbalance_by_listing(lam):
    """Signed count of the standard Young tableaux of the shape, each listed."""
    return sum(syt_sign(t) for t in enumerate_syt(lam))


def domino_sign_sum_by_listing(lam):
    """Signed count of the standard domino tableaux of the shape, each listed."""
    return sum(tableau_sign(t) for t in enumerate_standard(lam))


def spin_poly_by_listing(lam):
    """Sum of s^(vertical count) over the standard domino tableaux of the shape, each listed."""
    return MPoly(PARAMS, Counter((0, 0, 0, tab.vertical_count()) for tab in enumerate_standard(lam)))  # a, b, c, s


def enumerate_column_semistandard(lam, max_value):
    """The column-semistandard domino tableaux of the shape: the conjugates of
    the semistandard ones of its conjugate, sorted."""
    tabs = enumerate_semistandard(conjugate(as_partition(lam)), max_value)
    return sorted((t.conjugated() for t in tabs), key=lambda t: t.entries)


def domino_function_by_listing(lam, nx, bound, complement=False):
    """``series.domino_function`` from its semistandard tableaux, each listed:
    q^spin x^weight, or q^(m/2 - spin) x^weight with ``complement``."""
    lam = as_partition(lam)
    dominoes = (size(lam) - size(two_core(lam))) // 2
    counts = defaultdict(Counter)  # x exponents -> (a, b, c, s) exponents -> tableaux
    for tab in enumerate_semistandard(lam, nx):
        v = tab.vertical_count()
        exps = [0] * nx
        for value in tab.values():
            exps[value - 1] += 1
        counts[tuple(exps)][0, 0, 0, dominoes - v if complement else v] += 1
    return TruncatedSeries(nx, 0, bound, {key: MPoly(PARAMS, spins) for key, spins in counts.items()})


def max_spin(lam):
    """Largest spin over the standard tableaux of the shape."""
    tabs = enumerate_standard(lam)
    return max(tab.spin() for tab in tabs)


def cospin(tab):
    value = max_spin(tab.shape()) - tab.spin()
    if value.denominator != 1:
        raise ValueError("cospin must be an integer")
    return int(value)


def max_odd_vertical(lam):
    return max(t.odd_vertical() for t in enumerate_standard(lam))


def max_even_vertical(lam):
    return max(t.even_vertical() for t in enumerate_standard(lam))


def standardized_top_to_bottom(tab):
    """Number the value classes 1..n, each top to bottom, with no check: the
    column convention as the library once built it, by a sort on rows."""
    ordered = sorted(tab.entries, key=lambda entry: (entry[0], entry[1].row))
    return DominoTableau(tab.core, tuple((i, dom) for i, (_, dom) in enumerate(ordered, start=1)))


# ---------------------------------------------------------------------------
# the steps of the standardization chains


DOUBLY = "doubly"


def _doubly_key(bl):
    return (bl.top.key(), -bl.bottom.neg if bl.top.barred else bl.bottom.neg)


def doubly_biword(biletters):
    """A doubly colored biword: bars allowed on both rows; ties on equal
    unbarred tops break by ascending bottom neg-value, on equal barred tops
    by descending."""
    return ColoredBiword(tuple(sorted(biletters, key=_doubly_key)), DOUBLY)


def with_kind(word, kind):
    return biword(word.letters, kind)


def standardize_top(word):
    """Replace the top row by 1..n in display order, keeping its bars."""
    new = tuple(
        Biletter(Letter(i, bl.top.barred), bl.bottom)
        for i, bl in enumerate(word.letters, start=1)
    )
    return doubly_biword(new) if word.kind == DOUBLY else biword(new, word.kind)


def invert(word):
    """Swap the rows of each biletter; the result is doubly colored."""
    return doubly_biword(Biletter(bl.bottom, bl.top) for bl in word.letters)


# ---------------------------------------------------------------------------
# the local rules with the overlap tests on slices and shifted copies


def _shift(dom, step):
    """Move a domino down (horizontal) or right (vertical); a 2x2 block is a
    domino and its shift by 1."""
    row, col, orient = dom
    return (row + step, col, orient) if orient == HORIZONTAL else (row, col + step, orient)


def grow_by_slices(nu, a, b, entry):
    """Forward rule on edge labels: a = mu/lam and b = nu/lam give (rho/mu,
    rho/nu).  Only a +-1 seed or a bump reads a shape, and then one row
    length or column height of nu, which agrees with lam there."""
    if entry:
        if a or b:
            raise ValueError("a +-1 square needs three equal corners")
        seed = (1, part(nu, 1) + 1, HORIZONTAL) if entry == 1 else (len(nu) + 1, 1, VERTICAL)
        return seed, seed
    if a is None:
        return b, None
    if b is None:
        return None, a
    if a == b:
        # bump below (horizontal) or to the right (vertical)
        row, col, orient = a
        if orient == HORIZONTAL:
            bumped = (row + 1, part(nu, row + 1) + 1, HORIZONTAL)
        else:
            bumped = (col_height(nu, col + 1) + 1, col + 1, VERTICAL)
        return bumped, bumped
    if a[:2] == b[:2]:
        # one-cell overlap: the 2x2 block at the shared cell fills up
        return _shift(a, 1), _shift(b, 1)
    return b, a


def shrink_by_shifts(rows, c, d):
    """Reverse rule on edge labels, the inverse of ``_grow``: c = rho/mu and
    d = rho/nu give (entry, mu/lam, nu/lam), and ``rows`` goes from mu to
    lam in place."""
    if d is None:
        return 0, None, c
    a, b = d, c
    if c == d:
        row, col, orient = c
        if orient == HORIZONTAL:
            if row == 1:
                return 1, None, None
            a = b = (row - 1, part(rows, row - 1) - 1, HORIZONTAL)
        else:
            if col == 1:
                return -1, None, None
            a = b = (col_height(rows, col - 1) - 1, col - 1, VERTICAL)
    elif c is not None and c[2] != d[2] and _shift(c, -1)[:2] == _shift(d, -1)[:2]:
        a, b = _shift(c, -1), _shift(d, -1)
    lift_domino(rows, *a)
    return 0, a, b


# ---------------------------------------------------------------------------
# growth and its reverse with a local rule on every square with a top label


def growth_by_every_square(word, core=0):
    """(changes, P, Q) of ``insertion.growth``, each row running
    ``grow_by_slices`` and ``place_domino`` on every kept column at or right
    of its nonzero one, and keeping the squares where its label changes."""
    n, base = len(word), staircase(core)
    present, columns, horizontal = [], [], [None] * n
    recording, changes = [], []
    for i, letter in enumerate(word, start=1):
        start, entry = letter.value - 1, -1 if letter.barred else 1
        k = bisect_left(present, start)
        present.insert(k, start)
        columns.insert(k, list(columns[k - 1] if k else base))
        left, row = None, []
        for j, column in zip(present[k:], columns[k:]):
            horizontal[j], label = grow_by_slices(column, left, horizontal[j], entry)
            place_domino(column, *label)
            if label != left:
                row.append((j, label))
                left = label
            entry = 0
        recording.append((i, DominoShape(*left)))
        changes.append(tuple(row))
    p = DominoTableau(base, tuple((j, DominoShape(*dom)) for j, dom in enumerate(horizontal, start=1)))
    return tuple(changes), p, DominoTableau(base, tuple(recording))


def value_order_chain(tab):
    """Shape chain of a standard tableau, its dominoes placed on its core in
    value order by this walk, not the tableau's replay; ValueError exactly
    when it is not standard."""
    rows, chain = list(tab.core), [tab.core]
    for i, (value, dom) in enumerate(tab.entries, start=1):
        if value != i:
            raise ValueError("not standard")
        place_domino(rows, *dom)
        chain.append(tuple(rows))
    return tuple(chain)


def growth_reverse_by_every_square(p, q):
    """``insertion.growth_reverse_word``, each row running ``shrink_by_shifts``
    on every kept column right to left, up to its seed."""
    mismatch = "growth_reverse expects standard tableaux of one shape over one core"
    if p.shape() != q.shape():
        raise ValueError(mismatch)
    n = len(p)
    try:
        p_chain, q_chain = value_order_chain(p), value_order_chain(q)
    except ValueError:
        raise ValueError(mismatch) from None
    if p_chain[-1] != q_chain[-1]:
        raise ValueError(mismatch)
    columns = [list(shape) for shape in p_chain[:-1]]
    labels = [dom for _, dom in p.entries]
    present, word = list(range(n)), [None] * n
    for i in range(n - 1, -1, -1):
        right = q.entries[i][1]
        for k in range(len(present) - 1, -1, -1):
            j = present[k]
            entry, right, labels[j] = shrink_by_shifts(columns[k], labels[j], right)
            if right is None:
                word[i] = Letter(j + 1, entry < 0)
                del present[k], columns[k]
                break
        else:
            lift_domino(list(p.core), *right)
    if not is_signed_permutation(word):
        raise ValueError("not a signed permutation")
    return tuple(word)


# ---------------------------------------------------------------------------
# the biword correspondences by two recording tableaux


def biword_insert_by_recording(word, core=0):
    """The semistandard correspondence built twice over: P and Q are each the
    recording tableau of a top-standardized inverse (of the word and of its
    colored inverse), relabelled by its top row.  Equal top labels force
    strictly increasing neg-values below, so consecutive recording dominoes
    lie strictly left to right and the relabelled tableau is semistandard."""
    pair = []
    for side in (word, invert_colored(word)):
        source = invert_colored(standardize_top(side))
        recording = insertion.insert_word(source.bottom, core).q
        pair.append(insertion._relabel(recording, [letter.value for letter in source.top]))
    p_tab, q_tab = pair
    if p_tab.shape() != q_tab.shape():
        raise ValueError("insertion produced unequal shapes")
    return p_tab, q_tab


def dual_alpha_by_recording(word, core=0):
    """First dual correspondence through ``biword_insert_by_recording`` of
    the top-standardized word, Q's labels merged back into the top weight."""
    p_tab, q_std = biword_insert_by_recording(with_kind(standardize_top(word), COLORED), core)
    return p_tab, insertion._relabel(q_std, [letter.value for letter in word.top], column_side=True)


def dual_beta_by_recording(word, core=0):
    """Second dual correspondence through ``biword_insert_by_recording`` of
    word^(inv_d ost inv_d), P's labels merged into the bottom weight."""
    p_std, q_tab = biword_insert_by_recording(invert_dual(standardize_top(invert_dual(word))), core)
    labels = sorted(letter.value for letter in word.bottom)
    return insertion._relabel(p_std, labels, column_side=True), q_tab


def count_insertions(monkeypatch):
    """Record every ``insertion.insert_word`` call for the rest of a test,
    also those made through the name ``involutions`` imports."""
    calls = []
    inner = insertion.insert_word

    def counted(letters, core=0):
        calls.append(letters)
        return inner(letters, core)

    for module in (insertion, involutions):
        monkeypatch.setattr(module, "insert_word", counted)
    return calls


# ---------------------------------------------------------------------------
# signed involutions through the colored biword with top row 1..n


@dataclass(frozen=True)
class CycleProfile:
    """Cycle data of a colored involution biword, by letter value.

    ``standardized`` predicts the profile of the standardization: within each
    value, the barred fixed points pair up into barred two-cycles, leaving at
    most one barred fixed point.
    """

    fixed: dict
    barred_fixed: dict
    two_cycles: dict
    barred_two_cycles: dict
    standardized: InvolutionProfile


def cycle_profile(word):
    if word != invert_colored(word):
        raise ValueError("cycle_profile expects a colored involution")
    fixed = {}
    barred_fixed = {}
    two_cycles = {}
    barred_two_cycles = {}
    for bl in word.letters:
        i, j = bl.top.value, bl.bottom.value
        if i == j and not bl.bottom.barred:
            fixed[i] = fixed.get(i, 0) + 1
        elif i == j:
            barred_fixed[i] = barred_fixed.get(i, 0) + 1
        elif i < j and not bl.bottom.barred:
            two_cycles[(i, j)] = two_cycles.get((i, j), 0) + 1
        elif i < j:
            barred_two_cycles[(i, j)] = barred_two_cycles.get((i, j), 0) + 1
    std = InvolutionProfile(
        fixed=sum(fixed.values()),
        barred_fixed=sum(b % 2 for b in barred_fixed.values()),
        two_cycles=sum(two_cycles.values()),
        barred_two_cycles=sum(barred_two_cycles.values())
        + sum(b // 2 for b in barred_fixed.values()),
    )
    return CycleProfile(fixed, barred_fixed, two_cycles, barred_two_cycles, std)


def group_inverse_by_biword(letters):
    """The inverse read off the colored inverse of the biword 1..n over the word."""
    return invert_colored(colored_word(letters)).bottom


def is_involution_by_biword(letters):
    word = colored_word(letters)
    return word == invert_colored(word)


def involution_profile_by_biword(letters):
    """Cycle counts summed from ``cycle_profile`` of the biword 1..n over the word."""
    if not is_involution_by_biword(letters):
        raise ValueError("not an involution")
    profile = cycle_profile(colored_word(letters))
    return InvolutionProfile(
        fixed=sum(profile.fixed.values()),
        barred_fixed=sum(profile.barred_fixed.values()),
        two_cycles=sum(profile.two_cycles.values()),
        barred_two_cycles=sum(profile.barred_two_cycles.values()),
    )


# ---------------------------------------------------------------------------
# Hypothesis strategies


def biletters(max_value=6):
    """A biletter with an unbarred top and a bottom, barred or not, both at
    most ``max_value``."""
    values = st.integers(min_value=1, max_value=max_value)
    return st.builds(lambda t, b, bar: Biletter(Letter(t), Letter(b, bar)), values, values, st.booleans())


@st.composite
def biwords(draw, kind=COLORED, max_length=40, max_value=6, multiplicity_free=False):
    """Biwords of the given kind, their length drawn uniformly so that long
    ones come up; ``multiplicity_free`` repeats no biletter."""
    n = draw(st.integers(min_value=0, max_value=max_length))
    letters = draw(st.lists(biletters(max_value), min_size=n, max_size=n, unique=multiplicity_free))
    return biword(letters, kind)


@st.composite
def signed_permutations(draw, max_n=60, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    values = draw(st.permutations(range(1, n + 1)))
    bars = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return tuple(Letter(value, barred) for value, barred in zip(values, bars))


colored_biwords = biwords()
dual_biwords = biwords(DUAL, multiplicity_free=True)
cores = st.integers(min_value=0, max_value=2)


# the sizes each verify suite reads, written out here and not read from
# verify.SUITE_SIZES, so that the tests against them check that table
SUITE_READS = {
    "insertion": {"n", "cores"},
    "semistandard": {"length", "cores"},
    "dual": {"length", "cores"},
    "sym": {"n", "cores"},
    "sign": {"max_size", "n"},
    "counting": {"n", "cores", "poly_n", "max_size"},
    "series": {"vars", "degree", "cores"},
}
# a small value of each size at which every suite still has something to check
TINY_SIZES = {"n": 1, "cores": (0,), "length": 0, "max_size": 1, "poly_n": 0, "vars": 1, "degree": 0}
