"""Helpers shared by several test modules: reference constructions that the
library no longer carries, and Hypothesis strategies for biwords."""

from hypothesis import strategies as st

from dominsert import insertion, involutions
from dominsert.partitions import as_partition, skew_domino
from dominsert.tableaux import DominoTableau
from dominsert.words import (
    COLORED,
    DUAL,
    Biletter,
    InvolutionProfile,
    Letter,
    biword,
    colored_word,
    cycle_profile,
    invert_colored,
    invert_dual,
    standardize_top,
    with_kind,
)


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


colored_biwords = biwords()
dual_biwords = biwords(DUAL, multiplicity_free=True)
cores = st.integers(min_value=0, max_value=2)
