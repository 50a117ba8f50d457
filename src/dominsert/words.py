"""Colored letters, biwords, and their standardization operators.

A letter is a positive integer with an optional bar, written ``3'`` (or
``-3`` on input).  Letters compare by value with the barred copy first, so
``1' < 1 < 2' < 2 < ...``; ``neg`` maps a barred k to -k and an unbarred k
to k.

Two biword kinds share one representation:

* ``colored``  - bars on the bottom row only; ties on equal tops break by
  ascending bottom neg-value.
* ``dual``     - bars on the bottom row only; ties break by descending
  bottom neg-value.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter, namedtuple

COLORED = "colored"
DUAL = "dual"


class Letter(namedtuple("Letter", "value barred")):
    """The ``(value, barred)`` pair itself, like ``DominoShape``, but unordered."""

    __slots__ = ()

    def __new__(cls, value, barred=False):
        if value < 1:
            raise ValueError("letter values are positive")
        return tuple.__new__(cls, (value, barred))

    def __lt__(self, other):  # also against a plain tuple, whose order would put 1 before 1'
        raise TypeError("letters have no order; sort them by key()")
    __le__ = __gt__ = __ge__ = __lt__

    @property
    def neg(self):
        return -self.value if self.barred else self.value

    def unbarred(self):
        return Letter(self.value, False)

    def with_bar(self, barred):
        return Letter(self.value, barred)

    def key(self):
        # barred copy sorts before the unbarred copy of the same value
        return (self.value, 0 if self.barred else 1)

    def __str__(self):
        return f"{self.value}'" if self.barred else str(self.value)


class Biletter(namedtuple("Biletter", "top bottom")):
    __slots__ = ()

    def __str__(self):
        return f"{self.top}/{self.bottom}"


def parse_int(text, name):
    """int(text), its error naming the flag, argument or input the token came
    from, where int()'s own message names none.  A signed run of digits fails
    only past the digit limit, so only its error names the limit."""
    try:
        return int(text)
    except ValueError:
        got = repr(text) if len(text) <= 30 else f"one of {len(text)} characters"
        token = text.strip()
        digits = (token[1:] if token[:1] in ("+", "-") else token).isdecimal()
        what = f"integers of at most {sys.get_int_max_str_digits()} digits" if digits else "integers"
        raise ValueError(f"{name} takes {what}, got {got}") from None


def parse_letter(token):
    token = token.strip()
    digits = token[:-1] if token.endswith("'") else token[1:] if token.startswith("-") else token
    if not digits.isdecimal():
        raise ValueError(f"cannot parse letter {token!r}")
    return Letter(parse_int(digits, "a letter"), digits != token)


def parse_word(text):
    """Whitespace- or comma-separated letters."""
    tokens = text.replace(",", " ").split()
    letters = []
    for pos, token in enumerate(tokens, start=1):
        try:
            letters.append(parse_letter(token))
        except ValueError as exc:
            raise ValueError(f"token {pos}: {exc}") from None
    return tuple(letters)


def word_str(letters):
    return " ".join(str(letter) for letter in letters)


def _sort_key(kind):
    if kind == COLORED:
        return lambda bl: (bl.top.key(), bl.bottom.neg)
    if kind == DUAL:
        return lambda bl: (bl.top.key(), -bl.bottom.neg)
    raise ValueError(f"unknown biword kind {kind!r}")


def read_only(self, name, *value):  # __setattr__ and __delattr__ of an immutable value
    raise AttributeError(f"cannot assign to field {name!r}")


class ColoredBiword:
    def __init__(self, letters, kind):
        self.__dict__.update(letters=letters, kind=kind)

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.letters, self.kind) == (other.letters, other.kind)

    def __hash__(self):
        return hash((self.letters, self.kind))

    def __repr__(self):
        return f"ColoredBiword(letters={self.letters!r}, kind={self.kind!r})"

    def __len__(self):
        return len(self.letters)

    @property
    def top(self):
        return tuple(bl.top for bl in self.letters)

    @property
    def bottom(self):
        return tuple(bl.bottom for bl in self.letters)

    def top_weight(self):
        return value_weight(letter.value for letter in self.top)

    def bottom_weight(self):
        return value_weight(letter.value for letter in self.bottom)

    def is_multiplicity_free(self):
        return len(set(self.letters)) == len(self.letters)

    def __str__(self):
        return " ".join(str(bl) for bl in self.letters)


def value_weight(values):
    """How often each of 1, 2, ..., max(values) occurs among the values."""
    values = tuple(values)
    counts = [0] * max(values, default=0)
    for value in values:
        counts[value - 1] += 1
    return tuple(counts)


def biword(biletters, kind):
    """Canonically ordered biword of the given kind."""
    biletters, key = tuple(biletters), _sort_key(kind)
    if any(bl.top.barred for bl in biletters):
        raise ValueError(f"{kind} biwords cannot carry bars on the top row")
    return ColoredBiword(tuple(sorted(biletters, key=key)), kind)


def colored_word(letters):
    """Identify a colored word with the biword whose top row is 1..n."""
    letters = tuple(letters)
    return biword(
        (Biletter(Letter(i), letter) for i, letter in enumerate(letters, start=1)),
        COLORED,
    )


def parse_biword(text, kind=COLORED):
    """Parse 'top/bottom' pairs, two rows split by ';' or a newline, or a
    bare word (top row implied 1..n)."""
    if ";" in text or "\n" in text:
        top_text, _, bottom_text = text.replace("\n", ";").partition(";")
        top = parse_word(top_text)
        bottom = parse_word(bottom_text)
        if len(top) != len(bottom):
            raise ValueError("rows have different lengths")
        return biword((Biletter(t, b) for t, b in zip(top, bottom)), kind)
    if "/" not in text:
        return colored_word(parse_word(text))
    pairs = []
    for pos, token in enumerate(text.replace(",", " ").split(), start=1):
        try:
            top_text, bottom_text = token.split("/")
            pairs.append(Biletter(parse_letter(top_text), parse_letter(bottom_text)))
        except ValueError as exc:
            raise ValueError(f"pair {pos}: {exc}") from None
    return biword(pairs, kind)


def is_signed_permutation(letters):
    return sorted([x.value for x in letters if type(x) is Letter]) == list(range(1, len(letters) + 1))


def total_color(word):
    """Number of barred letters (both rows for a biword)."""
    if isinstance(word, ColoredBiword):
        return sum(bl.top.barred + bl.bottom.barred for bl in word.letters)
    return sum(letter.barred for letter in word)


def neg_values(letters):
    return tuple(letter.neg for letter in letters)


def _swap_rows(word, kind):
    """Swap the rows of each biletter, the bottom's bar staying on the bottom."""
    swapped = (Biletter(bl.bottom.unbarred(), bl.top.with_bar(bl.bottom.barred)) for bl in word.letters)
    return biword(swapped, kind)


def invert_colored(word):
    """Inverse for colored biwords: move bars to the top row, then swap."""
    if word.kind != COLORED:
        raise ValueError("invert_colored expects a colored biword")
    return _swap_rows(word, COLORED)


def invert_dual(word):
    """Swap rows moving any bar down; exchanges colored and dual biwords."""
    if word.kind not in (COLORED, DUAL):
        raise ValueError("invert_dual expects a colored or dual biword")
    return _swap_rows(word, DUAL if word.kind == COLORED else COLORED)


def _rank_bottom(word, key, kind):
    """The biword of the given kind with top row 1..n, in display order as
    it is: letter i is the bottom letter b at display position i, valued by
    the rank of ``key(i, b)`` and keeping b's bar."""
    bottom = word.bottom
    order = sorted(enumerate(bottom, start=1), key=lambda item: key(*item))
    rank = {i: r for r, (i, _) in enumerate(order, start=1)}
    letters = (Biletter(Letter(i), Letter(rank[i], b.barred)) for i, b in enumerate(bottom, start=1))
    return ColoredBiword(tuple(letters), kind)


def standardize(word):
    """Full standardization of a colored biword to a signed permutation.

    It is the chain: top row to 1..n in display order, keeping its bars;
    swap the rows, keeping each bar on its letter (a doubly colored
    biword); top row to 1..n again; swap back.  After the first step the
    bottom letter b at display position i sits under i.  The swap sorts
    the biletters b / i by b, barred copy first, then by descending i under
    a barred b and ascending i under an unbarred one; the second step
    numbers them in that order, and swapping back puts each rank under its
    i with b's bar.  So letter i gets its rank under the key (value, s, s i),
    with s = -1 for a barred b and 1 otherwise.
    """
    if word.kind != COLORED:
        raise ValueError("standardize expects a colored biword")
    return _rank_bottom(word, lambda i, b: (b.value, -1, -i) if b.barred else (b.value, 1, i), COLORED)


def dual_standardize(word):
    """Standardization through the dual inverse; multiplicity-free inputs only.

    It is the chain: top row to 1..n, ``invert_dual``, top row to 1..n
    again, ``invert_dual``.  After the first step the bottom letter b at
    display position i sits under i.  ``invert_dual`` gives b unbarred over
    i with b's bar, in the other kind, sorted by b's value and then by the
    neg value s i (s = -1 for a barred b): descending for a colored word,
    whose swap is dual, and ascending for a dual one.  The second step
    numbers them in that order, and swapping back puts each rank under its
    i with b's bar, in the word's kind.  So letter i gets its rank under
    the key (value, -s i) for a colored word and (value, s i) for a dual one.
    """
    if word.kind not in (COLORED, DUAL):
        raise ValueError("dual_standardize expects a colored or dual biword")
    if not word.is_multiplicity_free():
        raise ValueError("dual_standardize requires a multiplicity-free biword")
    sign = -1 if word.kind == COLORED else 1
    return _rank_bottom(word, lambda i, b: (b.value, -sign * i if b.barred else sign * i), word.kind)


def group_inverse(letters):
    """Inverse of a signed permutation, as a word: letter i with value j puts
    i, barred as that letter is, at position j."""
    inverse = [None] * len(letters)
    for i, letter in enumerate(letters, start=1):
        if letter.value > len(letters) or inverse[letter.value - 1] is not None:
            raise ValueError(f"{word_str(letters)} is not a signed permutation")
        inverse[letter.value - 1] = Letter(i, letter.barred)
    return tuple(inverse)


def is_involution(word):
    if isinstance(word, ColoredBiword):
        return word == invert_colored(word)
    return is_signed_permutation(word) and group_inverse(word) == tuple(word)


class InvolutionProfile(namedtuple("InvolutionProfile", "fixed barred_fixed two_cycles barred_two_cycles")):
    """Cycle counts of a signed involution."""

    __slots__ = ()

    @property
    def length(self):
        return self.fixed + self.barred_fixed + 2 * (self.two_cycles + self.barred_two_cycles)


def involution_profile(letters):
    """Cycle counts of a signed permutation with pi * pi = 1.  Letter i with
    value j >= i is a fixed point when j = i and the two-cycle (i j)
    otherwise, barred when the letter is."""
    letters = tuple(letters)
    if not is_involution(letters):
        raise ValueError("not an involution")
    counts = Counter(
        (letter.value == i, letter.barred) for i, letter in enumerate(letters, start=1) if letter.value >= i
    )
    return InvolutionProfile(counts[True, False], counts[True, True], counts[False, False], counts[False, True])


def enumerate_involutions(n):
    """All signed involutions in B_n, built from fixed points and two-cycles."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    partial = [[None] * n]  # each position's letter, None while free
    for i in range(n):
        grown = [word for word in partial if word[i] is not None]  # a two-cycle placed i
        for word in partial:
            for j in range(i, n):  # a free i is a fixed point or pairs with a free j > i
                if word[i] is None and word[j] is None:
                    for barred in (False, True):
                        paired = list(word)
                        paired[i], paired[j] = Letter(j + 1, barred), Letter(i + 1, barred)
                        grown.append(paired)
        partial = grown
    return sorted(map(tuple, partial), key=neg_values)


def enumerate_biwords(values, length, kind=COLORED, multiplicity_free=False):
    """Every biword of the given kind and length whose letters, the bottom
    ones barred or not, are at most ``values``; with ``multiplicity_free``
    no biletter repeats."""
    types = [
        Biletter(Letter(t), Letter(b, bar))
        for t in range(1, values + 1)
        for b in range(1, values + 1)
        for bar in (False, True)
    ]
    pick = itertools.combinations if multiplicity_free else itertools.combinations_with_replacement
    return [biword(combo, kind) for combo in pick(types, length)]
