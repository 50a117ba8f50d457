"""Domino insertion: bumping, growth rules, and the derived correspondences.

Bumping and growth are two independent implementations, compared square for
square in the test suite; growth is the authoritative semantics.  Bumping
works on a cell index of the tableau, by rows and by columns, and visits
only the dominoes on its path; see ``_RowIndex``.  ``insert_all`` bumps
every signed permutation of n by one walk over their prefixes, so each
prefix is inserted once.

Each edge of a growth diagram is labelled by the domino it adds, or None:
the ``(row, col, orient)`` triple of ``DominoShape``, left bare by a local
rule and checked by ``place_domino`` or ``lift_domino``.  A square's local
rule reads its two near labels and at most one row or column length of a
corner.  Growth reads the standard pair (P, Q) off its last labels, and its
reverse takes that pair; both run row by row, on one list of row lengths per
column of the values inserted so far, visit only the squares whose top label
is set and, like the spin ledger, call a local rule and check a label only
where it changes.  A signed permutation is held as its word: letter i puts
its sign (-1 when barred) in column value - 1 of row i of the dense matrix.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import namedtuple
from functools import cached_property

from .partitions import (
    HORIZONTAL,
    VERTICAL,
    DominoShape,
    add_domino,
    col_height,
    domino_of_cells,
    lift_domino,
    part,
    partition_str,
    place_domino,
    skew_domino,
    staircase,
)
from .tableaux import DominoTableau
from .words import (
    COLORED,
    DUAL,
    Biletter,
    Letter,
    biword,
    dual_standardize,
    is_signed_permutation,
    standardize,
)


# ---------------------------------------------------------------------------
# bumping


class _RowIndex:
    """A standard tableau indexed by cell for bumping: its non-core values by
    rows and by columns, sorted lists empty past the shape.  Cell (r, c) is
    ``rows[r - 1][c - 1 - off[r]]`` and ``cols[c - 1][r - 1 - off[c]]``, with
    ``off[i] = max(k + 1 - i, 0)`` core cells in row i, and column i, of
    staircase(k); the table reaches two past the lists, is shared by copies
    and only gains zeros.  Also kept: each value's domino, the sorted values,
    which a move never changes, and the row lengths."""

    __slots__ = ("off", "rows", "cols", "lengths", "dominoes", "values")

    def __init__(self, core, entries, shape):
        width = shape[0] if shape else 0
        self.off = list(range(len(core) + 1, 0, -1)) + [0] * (max(len(shape), width) + 2 - len(core))
        self.lengths, self.rows, self.cols = list(shape), [[] for _ in shape], [[] for _ in range(width)]
        for value, dom in entries:
            for r, c in dom.cells():
                self.rows[r - 1].append(value)
                self.cols[c - 1].append(value)
        self.dominoes, self.values = dict(entries), [value for value, _ in entries]

    def copy(self):
        twin = _RowIndex.__new__(_RowIndex)
        twin.off, twin.lengths, twin.values = self.off, self.lengths[:], self.values[:]
        twin.dominoes, twin.rows, twin.cols = dict(self.dominoes), [r[:] for r in self.rows], [c[:] for c in self.cols]
        return twin

    @property
    def entries(self):
        """The (value, domino) pairs in value order, built on each read."""
        return tuple((value, self.dominoes[value]) for value in self.values)

    def insert(self, letter):
        """Insert one letter and return the domino the step adds.

        The seed ends row 1 (unbarred letter) or column 1 (barred) among the
        values below the letter's.  Up to each value the new tableau exceeds
        the old one, T, by one domino D, at first the seed.  The next domino
        to move has the least value w under D, in D's first cell.  Equal to
        D, it bumps past the values below w in the next row (horizontal) or
        column (vertical).  Else it must start at that cell with the other
        orientation, or the step raises; its free cell slides to the cell
        diagonally below the shared one and D's second cell follows: the
        moved domino is D, the next D the old one, each shifted down
        (horizontal) or right (vertical).  Each move is checked against
        T_{<w} + D with ``place_domino``'s row conditions, on row lengths
        read inline from ``rows`` (a term ``k <= n and ...`` is 0 off them).
        A domino d that D never meets stays unvisited: d is addable to
        T_{<w}, and T_{<w} + D + d is the union of the partitions T_{<w} + D
        and T_{<w} + d.  Once no cell of T lies under D, ``place_domino``
        adds D to T's row lengths, which proves that the step adds exactly
        D.  Then D's cells are opened at the ends of their rows and columns
        and each moved value, and the new one, fills its cells in both
        views: the new dominoes tile the new shape and the others keep their
        cells, so each changed cell is written exactly once.  Dominoes are
        built unchecked (``DominoShape._make``): each coordinate is a count
        plus 1 or a cell's plus 0 or 1, and the last one is placed first."""
        rows, cols, off, lengths, dominoes = self.rows, self.cols, self.off, self.lengths, self.dominoes
        make = DominoShape._make
        value, n = letter.value, len(lengths)
        if value in dominoes:
            raise ValueError(f"value {value} already present")
        at = off[1] + (n and bisect_left(cols[0] if letter.barred else rows[0], value)) + 1
        dom = seed = make((at, 1, VERTICAL) if letter.barred else (1, at, HORIZONTAL))
        moves = []
        while True:
            row, col, orient = dom
            if row > n or col > lengths[row - 1]:
                break  # then D's second cell is off T too, as T is a shape
            # the least value of T under D is in D's first cell, as values
            # increase along rows and down columns; D covers no core cell
            w = rows[row - 1][col - 1 - off[row]]
            old = dominoes[w]
            if old == dom and orient == HORIZONTAL:
                below = row < n and off[row + 1] + bisect_left(rows[row], w)
                new = grown = make((row + 1, below + 1, HORIZONTAL))
            elif old == dom:
                below = off[col + 1] + (col < len(cols) and bisect_left(cols[col], w))
                new = grown = make((below + 1, col + 1, VERTICAL))
            elif old[0] != row or old[1] != col:
                raise ValueError(f"{old} does not start at {(row, col)} in the insertion of {value}")
            elif orient == HORIZONTAL:
                new, grown = make((row + 1, col, HORIZONTAL)), (row, col + 1, VERTICAL)
            else:
                new, grown = make((row, col + 1, VERTICAL)), (row + 1, col, HORIZONTAL)
            # rows r - 1, r and last of T_{<w} + D: core cells, cells below w, D's cells
            r, c, o = new
            last, end, lower = r + (o == VERTICAL), c + (o == HORIZONTAL), row + (orient == VERTICAL)
            above = r > 1 and off[r - 1] + bisect_left(rows[r - 2], w) + (r - 1 == row) + (r - 1 == lower)
            top = (r <= n and off[r] + bisect_left(rows[r - 1], w)) + (r == row) + (r == lower)
            bottom = top if last == r else (
                (last <= n and off[last] + bisect_left(rows[r], w)) + (last == row) + (last == lower))
            if not (top == bottom == c - 1 and (r == 1 or above >= end)):
                raise ValueError(f"cannot move {old} to {new} in the insertion of {value}")
            moves.append((w, new))
            dom = grown
        place_domino(lengths, *dom)
        dom = make(dom)
        if len(lengths) > len(rows):  # a step adds at most two rows or columns
            rows += [], []
            off += [0] * (len(rows) + 2 - len(off))
        if lengths[0] > len(cols):
            cols += [], []
            off += [0] * (len(cols) + 2 - len(off))
        r, c, o = dom
        rows[r - 1].append(None)
        rows[r - (o == HORIZONTAL)].append(None)
        cols[c - 1].append(None)
        cols[c - (o == VERTICAL)].append(None)
        insort(self.values, value)
        for w, new in (*moves, (value, seed)):
            r, c, o = new
            rows[r - 1][c - 1 - off[r]] = cols[c - 1][r - 1 - off[c]] = w
            if o == HORIZONTAL:
                rows[r - 1][c - off[r]] = cols[c][r - 1 - off[c + 1]] = w
            else:
                rows[r][c - 1 - off[r + 1]] = cols[c - 1][r - off[c]] = w
            dominoes[w] = new
        return dom


def insert_letter(tab, letter):
    """Insert one letter into a tableau of distinct values whose prefixes are
    shapes; see ``_RowIndex.insert``."""
    index = _RowIndex(tab.core, tab.entries, tab.shape())
    if len(index.dominoes) < len(tab.entries) or not tab.is_semistandard():
        raise ValueError("insert_letter expects distinct values whose prefixes are shapes")
    index.insert(letter)
    return DominoTableau(tab.core, index.entries)


def insert_frames(letters, core=0):
    """The insertion tableau after each letter of a signed permutation: one
    index takes every step, and each frame is a snapshot of it, proven as in
    ``insert_word``."""
    letters = tuple(letters)
    if not is_signed_permutation(letters):
        raise ValueError("insert_frames expects a signed permutation")
    base = staircase(core)
    index, frames = _RowIndex(base, (), base), []
    for letter in letters:
        index.insert(letter)
        frames.append(DominoTableau._placed(base, index.entries, tuple(index.lengths)))
    return frames


InsertionResult = namedtuple("InsertionResult", "p q")


def _result(base, index, recording):
    shape = tuple(index.lengths)
    return InsertionResult(
        DominoTableau._placed(base, index.entries, shape), DominoTableau._placed(base, recording, shape)
    )


def insert_word(letters, core=0):
    """Insert a signed permutation through one index; the recording tableau
    holds the domino each step adds.  Each step's closing ``place_domino``
    proves the index's row lengths the shape of both; the index keeps its
    entries sorted, and the recording is in value order."""
    letters = tuple(letters)
    if not is_signed_permutation(letters):
        raise ValueError("insert_word expects a signed permutation")
    base = staircase(core)
    index = _RowIndex(base, (), base)
    return _result(base, index, tuple((value, index.insert(letter)) for value, letter in enumerate(letters, start=1)))


def insert_all(n, core=0):
    """(word, ``insert_word(word, core)``) for each signed permutation of [n],
    lexicographically by neg-values.  Depth first on a stack, each node
    tries its unused letters by increasing ``neg``, which is one to one on
    letters: two words first differ below a common prefix, and the one with
    the smaller neg-value there lies under the earlier child, so it comes
    out first.  Each prefix is inserted once, into its parent's index,
    copied for every child but the first, which is made last, and a leaf's
    P and Q are proven as in ``insert_word``.  Below a step that raised
    ValueError a word comes with None."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    base = staircase(core)
    letters = [Letter(v, True) for v in range(n, 0, -1)] + [Letter(v) for v in range(1, n + 1)]
    stack = [((), letters, _RowIndex(base, (), base), ())]
    while stack:
        prefix, letters, index, recording = stack.pop()
        if not letters:
            yield prefix, index and _result(base, index, recording)
        for i in reversed(range(len(letters))):  # pushed last, the first child is walked first
            letter, child = letters[i], index and (index.copy() if i else index)
            try:
                added = child and child.insert(letter)
            except ValueError:
                child = added = None
            rest = [other for other in letters if other.value != letter.value]
            stack.append((prefix + (letter,), rest, child, recording + ((len(recording) + 1, added),)))


# ---------------------------------------------------------------------------
# growth rules


def word_matrix(letters):
    """Signed permutation matrix: row = position, column = letter value."""
    letters = tuple(letters)
    if not is_signed_permutation(letters):
        raise ValueError("not a signed permutation")
    n = len(letters)
    rows = []
    for letter in letters:
        row = [0] * n
        row[letter.value - 1] = -1 if letter.barred else 1
        rows.append(tuple(row))
    return tuple(rows)


def _label(outer, inner):
    """The domino outer/inner as an edge label, None when the shapes agree."""
    if outer == inner:
        return None
    dom = skew_domino(outer, inner)
    if dom is None:
        raise ValueError(f"{partition_str(outer)}/{partition_str(inner)} is not a domino")
    return dom


def _shift(dom, step):
    """Move a domino down (horizontal) or right (vertical); a 2x2 block is a
    domino and its shift by 1."""
    row, col, orient = dom
    return (row + step, col, orient) if orient == HORIZONTAL else (row, col + step, orient)


def _grow(nu, a, b, entry):
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
    if a[0] == b[0] and a[1] == b[1]:
        # one-cell overlap: the 2x2 block at the shared cell fills up
        return _shift(a, 1), _shift(b, 1)
    return b, a


def _partner(dom):
    """The one label of the other orientation that ``_grow``'s 2x2 block pairs with dom."""
    row, col, orient = dom
    return (row + 1, col - 1, HORIZONTAL) if orient == VERTICAL else (row - 1, col + 1, VERTICAL)


def _shrink(rows, c, d):
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
    elif c == _partner(d):
        # c and d share a cell: shifted back, they start at one cell
        a, b = _shift(c, -1), _shift(d, -1)
    lift_domino(rows, *a)
    return 0, a, b


def local_rule(lam, mu, nu, entry):
    """Forward local rule: the fourth corner of a square from the other three."""
    if entry not in (-1, 0, 1):
        raise ValueError(f"square entry must be 0 or +-1, got {entry}")
    _, d = _grow(nu, _label(mu, lam), _label(nu, lam), entry)
    return add_domino(nu, d) if d else nu


def local_rule_reverse(rho, mu, nu):
    """Recover (lam, entry) from the other three corners of a square."""
    lam = list(mu)
    entry, _, _ = _shrink(lam, _label(rho, mu), _label(rho, nu))
    if local_rule(tuple(lam), mu, nu, entry) != rho:
        raise ValueError("square does not match any local rule")
    return tuple(lam), entry


class GrowthDiagram(namedtuple("GrowthDiagram", "word core_order p q changes")):
    """Growth diagram of a signed permutation: its word, (P, Q) and in
    ``changes[i]`` the (j, label) where row i's square j changes its vertical
    label; letter i puts its sign in square (i, value - 1).  P's domino j labels
    grid[n][j] / grid[n][j - 1], Q's domino i grid[i][n] / grid[i - 1][n]."""

    @property
    def n(self):
        return len(self.word)

    @property
    def matrix(self):
        return word_matrix(self.word)

    @cached_property
    def vertical(self):
        """vertical[i][j] labels grid[i + 1][j] / grid[i][j]: None up to the
        row's first change, and each changed label from column j + 1 up to
        the next change, or n."""
        rows = []
        for changes in self.changes:
            labels = [None] * (self.n + 1)
            for j, label in changes:
                labels[j + 1:] = [label] * (self.n - j)
            rows.append(tuple(labels))
        return tuple(rows)

    @cached_property
    def grid(self):
        """(n+1) x (n+1) grid of shapes replayed from the labels; grid[i][j]
        holds the shape after the first i insertions restricted to values at
        most j."""
        grid = [(staircase(self.core_order),) * (self.n + 1)]
        for labels in self.vertical:
            grid.append(tuple(add_domino(s, dom) if dom else s for s, dom in zip(grid[-1], labels)))
        return tuple(grid)

    def p_tableau(self):
        return self.p

    def q_tableau(self):
        return self.q

    def spin_ledger_holds(self):
        """Per-square bookkeeping: vertical-domino growth on the two far edges
        matches the two near edges plus 2 exactly on a -1 square.  Square
        (i, j) has left and right labels v and w, and horizontal labels h
        and h' before and after row i; as cell sets grid[i + 1][j + 1] =
        grid[i][j] + h + w and grid[i + 1][j] = grid[i][j] + v, so h' =
        (h | w) - v.  Only the squares in ``changes`` are visited, deriving
        h' so and checking it with ``domino_of_cells``.  The others hold:
        there v = w, so h' = h and the ledger reads [h] + [v] = [v] + [h];
        and a -1 square, at the value of a barred letter, is its row's seed."""
        def cells(dom):
            return set(DominoShape.cells(dom)) if dom else set()

        def vert(dom):
            return dom is not None and dom[2] == VERTICAL

        horizontal = [None] * self.n  # grid row 0 is all core
        for letter, changes in zip(self.word, self.changes):
            minus, left = letter.value - 1 if letter.barred else -1, None  # the row's -1 column, if any
            for j, right in changes:
                outer, gone = cells(horizontal[j]) | cells(right), cells(left)
                rest = sorted(outer - gone)
                if not gone <= outer or len(rest) not in (0, 2):
                    raise ValueError(f"the labels around square {j} of {letter} leave no domino")
                after = domino_of_cells(*rest) if rest else None
                if vert(after) + vert(right) != vert(left) + vert(horizontal[j]) + 2 * (j == minus):
                    return False
                horizontal[j], left = after, right
        return True

    def to_json(self):
        return {
            "core": self.core_order,
            "matrix": [list(row) for row in self.matrix],
            "grid": [[list(shape) for shape in row] for row in self.grid],
            "p_chain": [list(shape) for shape in self.p.chain()],
            "q_chain": [list(shape) for shape in self.q.chain()],
        }


def growth(word, core=0):
    """Fill the growth diagram of a signed permutation row by row, keeping
    by position each value j + 1 inserted so far: j in ``present``, the row
    lengths of grid[i][j + 1] in ``columns``, which take its vertical label
    in place, and its top label in ``tops``.  Row i reads column
    j = value - 1 and its sign off letter i, bisects ``present`` for j's
    position, copies the kept column to its left, or the core, and visits it
    and each kept column to its right: n + inv(|w|) squares in all.  On a
    skipped square the top label is None, and ``_grow`` would pass the left
    label (None left of the seed) on to an equal column.  Right of the
    seed both labels are set (value j + 1 seeded the top one); ``_grow``
    bumps equal ones and fills a 2x2 block for two that start at one cell,
    each a new row label, and else passes the left one, (r, c, o), on.  So a
    row calls ``_grow`` and ``place_domino`` only where the top label starts
    at (r, c), keeping the square, named by ``present``; elsewhere it writes
    the row lengths of (r, c, o) into the column, as new rows at c = 1.
    (A) Two different dominoes addable to a partition lam start at one cell
    or are disjoint (one starting in row r + 1 meets a vertical one of row r
    only if lam_r = lam_(r+1), when row r + 1 has none), and disjoint ones
    have lam + a + b = (lam + a) | (lam + b).  Here lam is the left column
    before the row, and a (checked at the seed or a change square, or by
    (A)) and the top label b are addable to it, so a is addable to the
    column lam + b, which has r - 1 rows if c = 1.  Q's domino i is row i's
    last vertical label, and P's domino j + 1 is ``tops[j]`` once every
    value is kept.  Both tableaux have the shape of grid[n][n], the last
    column (the core if n = 0).  Their dominoes are built unchecked
    (``DominoShape._make``): each label passed ``place_domino`` (row,
    col >= 1), oriented by ``_grow``."""
    word = tuple(word)
    if not is_signed_permutation(word):
        raise ValueError("not a signed permutation")
    n, base = len(word), staircase(core)
    present, columns, tops = [], [], []  # per kept column: value - 1, grid[i][value] and its top label
    recording, changes = [], []
    grow, place, make = _grow, place_domino, DominoShape._make  # bound per call, so that a patched name is seen
    for i, letter in enumerate(word, start=1):
        j = letter.value - 1
        k = bisect_left(present, j)
        present.insert(k, j)
        columns.insert(k, list(columns[k - 1] if k else base))
        top, left = grow(columns[k], None, None, -1 if letter.barred else 1)
        tops.insert(k, top)
        place(columns[k], *left)
        row, (r, c, o) = [(j, left)], left
        for t in range(k + 1, len(tops)):
            top = tops[t]
            if top[0] == r and top[1] == c:
                tops[t], left = grow(columns[t], left, top, 0)
                row.append((present[t], left))
                r, c, o = left
                place(columns[t], r, c, o)
            elif c > 1:
                rows = columns[t]
                rows[r - 1] = rows[r - (o == HORIZONTAL)] = c + (o == HORIZONTAL)
            else:
                columns[t] += (1, 1) if o == VERTICAL else (2,)
        recording.append((i, make(left)))
        changes.append(tuple(row))
    shape = tuple(columns[-1]) if n else base
    p = DominoTableau._placed(base, tuple((j, make(dom)) for j, dom in enumerate(tops, start=1)), shape)
    return GrowthDiagram(word, core, p, DominoTableau._placed(base, tuple(recording), shape), tuple(changes))


def growth_reverse_word(p, q):
    """The signed permutation whose growth diagram has the standard pair
    (P, Q), of one shape over one core.

    Rows are peeled off from the top, keeping by position each column j
    whose top label is set: j in ``present``, its row lengths in ``columns``
    and its top label in ``tops``, starting at j = 0..n - 1, P's shape after
    j dominoes and P's domino j + 1.  Row i's right label starts at Q's
    domino i + 1.  Right to left, ``_shrink`` turns a kept square's top and
    right labels c and d into its entry and its left and bottom labels a and
    b, and lifts a off the column; the seed, which alone reads ``present``,
    sets letter i to value j + 1, barred when its entry is -1, drops column
    j from all three lists and ends the row.  As d turns None only at a
    seed, ``_shrink`` seeds or bumps if c = d, shifts both back if c is
    ``_partner(d)``, and else lifts d and keeps both labels, which a square
    whose c is neither writes into the column itself, dropping the rows it
    empties.  A skipped square has c None and would lift d off mu = rho:
    the last lift again, on an equal column, or right of the kept ones Q's
    domino off Q's shape (below).  Left of them every column is the core: a
    row out of kept columns lifts its right label off it, which raises.
    Past the precondition, which compares P's and Q's stated and replayed
    shapes and asks both to be standard, reading their cached replays, only
    ``lift_domino`` and the closing ``is_signed_permutation`` check reject;
    checks 1-3 below are implied, and 4 shows that the closing check asks
    that the dense matrix have one nonzero entry in each row and column.

    Write mu for column j before the square, rho = mu + c, nu = rho - d
    and lam = mu - a.  From the top row down, rho is a shape and d is
    removable from it: d is Q's domino and rho Q's replayed shape (in the
    top row P's, by the precondition), or d was just lifted off rho.  (B)
    Dually to growth's (A), two different dominoes removable from rho end
    at one cell, one the other's ``_partner``, or are disjoint, and then
    rho - c - d = (rho - c) & (rho - d).  So where c is neither, d is
    removable from mu = rho - c, as the write takes it off.

    1. Each square grows back to (c, d), and lam + b = nu, so each new row
       is a chain again.  By ``_shrink``'s branches, once the lift succeeded:
       - c = d, so mu = nu.  A seed (c horizontal in row 1 or vertical in
         column 1) keeps lam = mu, and ``_grow`` seeds the domino ending
         row 1 or column 1 of nu: c.  Otherwise a = b is c moved up a row
         (left a column) to the end of that row (column) of mu, and
         ``_grow`` bumps it back to the end of c's row (column) of nu = mu,
         which is c, as c is addable to mu.
       - c and d differ in orientation and share a cell: a and b are them
         shifted back, a + c = b + d is a 2x2 block, lam + b = rho - block
         + b = nu, and ``_grow``'s overlap rule shifts a and b back.
       - Otherwise a = d and b = c.  The lift puts d inside mu, so d shares
         no cell with c, lam + c = rho - d = nu, and ``_grow`` swaps the
         two back, or passes d on when c is None.
    2. No row ends with its left label set: column 0 is the staircase core,
       which has no removable domino, so there a kept square seeds or the
       lift raises.
    3. At the end no horizontal label is set and every column is the core:
       each square keeps [c] + [d] = [a] + [b] + 2 [entry != 0], and a row
       has its right label set, its left label unset (2) and one seed (the
       right label turns None only there), so it sets one horizontal label
       fewer, from n down to 0.  The bottom chain (1) is then column 0.
    4. Row i of the dense matrix holds 0 but at its seed, where ``_shrink``
       returns +-1 (elsewhere it returns 0, or is not called), so its
       entries are 0 or +-1 in a square grid.  Each row ends at
       exactly one seed, as the right label turns None only there and a
       row without one raises (2); the seed sets letter i, the one nonzero
       entry of row i.  A column is dropped only at its seed, so no two
       rows seed in one column, and n rows fill n columns: one nonzero
       entry per column.  The word holds that matrix row by row, so its
       values are 1..n once each, which ``is_signed_permutation`` checks.

    So ``growth`` of the word, from the core, rebuilds this grid: its top
    row is P's chain and its right column Q's.

    The shape test covers the core too: each domino covers one cell of each
    content parity, so a tableau's core is the 2-core of its shape, and
    equal shapes have equal cores.
    """
    mismatch = "growth_reverse expects standard tableaux of one shape over one core"
    same = p.shape() == q.shape() and p.semistandard_shape() == q.semistandard_shape()
    if not (same and p.is_standard() and q.is_standard()):
        raise ValueError(mismatch)
    n, columns, tops = len(p), [list(shape) for shape in p.chain()[:-1]], [dom for _, dom in p.entries]
    present, word, shrink, partner = list(range(n)), [None] * n, _shrink, _partner
    for i in range(n - 1, -1, -1):
        right = q.entries[i][1]
        (r, c, o), changing = right, (right, partner(right))
        for k in range(len(tops) - 1, -1, -1):
            top = tops[k]
            if top not in changing:
                if c > 1:
                    rows = columns[k]
                    rows[r - 1] = rows[r - (o == HORIZONTAL)] = c - 1
                else:
                    del columns[k][r - 1:]
                continue
            entry, right, tops[k] = shrink(columns[k], top, right)
            if right is None:
                word[i] = Letter(present[k] + 1, entry < 0)
                del present[k], columns[k], tops[k]
                break
            (r, c, o), changing = right, (right, partner(right))
        else:
            lift_domino(list(p.core), *right)
    if not is_signed_permutation(word):
        raise ValueError("not a signed permutation")
    return tuple(word)


def growth_reverse(p, q):
    """The signed permutation matrix of ``growth_reverse_word``."""
    return word_matrix(growth_reverse_word(p, q))


# ---------------------------------------------------------------------------
# semistandard correspondence


def _relabel(tab, labels, column_side=False):
    """Replace standard values through the sorted label list, letter values
    from 1; the cells, so the shape, stay."""
    entries = sorted((labels[value - 1], dom) for value, dom in tab.entries)
    out = DominoTableau._placed(tab.core, tuple(entries), tab.shape())
    ok = out.is_column_semistandard() if column_side else out.is_semistandard()
    if not ok:
        raise ValueError("relabelled tableau is invalid")
    return out


def _insert_standardized(word, std, core, p_columns=False, q_columns=False):
    """One insertion of ``std``, the standardized ``word``; P's values go
    back through the sorted bottom values and Q's through the top row, each
    tableau column-semistandard if its ``*_columns`` flag is set."""
    result = insert_word(std.bottom, core)
    bottom = sorted(letter.value for letter in word.bottom)
    return _relabel(result.p, bottom, p_columns), _relabel(result.q, [t.value for t in word.top], q_columns)


def biword_insert(word, core=0):
    """Semistandard correspondence: a colored biword to an equal-shape pair,
    carrying the bottom and top weights, whose spins sum to twice the total
    color.  P and Q are the insertion and recording tableaux of the
    standardized word, relabelled (Shimozono-White, by Lam's standardization)."""
    if word.kind != COLORED:
        raise ValueError("biword_insert expects a colored biword")
    return _insert_standardized(word, standardize(word), core)


def biword_reverse(p_tab, q_tab):
    """Inverse of the semistandard correspondence: the signed permutation of
    the standardized pair, its standard labels merged back into the weights.

    The pair names its own core, P's: ``standardized`` rejects a P or Q that
    is not semistandard, and ``growth_reverse_word`` two different shapes,
    which covers the cores too, as equal shapes have equal cores.  Nothing
    else can be rejected: the correspondence is a bijection onto semistandard
    pairs of one shape over one core (Shimozono-White), so some colored
    biword v inserts to (P, Q).  Standardization commutes with insertion, so
    by the standard bijection v's standardized bottom row is the permutation
    rebuilt here.  It keeps v's bars and ranks v's bottom letters by value
    first, and v's top row is Q's values in order: v is the biword built
    here.
    """
    p_values, q_values = sorted(p_tab.values()), sorted(q_tab.values())
    perm = growth_reverse_word(p_tab.standardized(), q_tab.standardized())
    letters = [
        Biletter(Letter(q_values[position]), Letter(p_values[letter.value - 1], letter.barred))
        for position, letter in enumerate(perm)
    ]
    return biword(letters, COLORED)


# ---------------------------------------------------------------------------
# dual correspondences


def dual_insert_alpha(word, core=0):
    """First dual correspondence, on multiplicity-free dual colored biwords:
    one insertion of the dual standardization, relabelled as in
    ``biword_insert`` but with Q column-semistandard."""
    if word.kind != DUAL:
        raise ValueError("dual_insert_alpha expects a dual colored biword")
    return _insert_standardized(word, dual_standardize(word), core, q_columns=True)


def dual_insert_beta(word, core=0):
    """Second dual correspondence, on multiplicity-free colored biwords:
    one insertion of the dual standardization, relabelled as in
    ``biword_insert`` but with P column-semistandard."""
    if word.kind != COLORED:
        raise ValueError("dual_insert_beta expects a colored biword")
    return _insert_standardized(word, dual_standardize(word), core, p_columns=True)


# ---------------------------------------------------------------------------
# rendering helpers


def growth_str(diagram, cells=False):
    """Figure layout: value index upward, insertion index rightward; figure
    column i shows grid[i]."""
    if cells:
        return _growth_cells_str(diagram)
    texts = [[partition_str(shape) for shape in column] for column in diagram.grid]
    widths = [max(map(len, column)) for column in texts]
    return "\n".join(
        "  ".join(column[j].ljust(width) for column, width in zip(texts, widths)).rstrip()
        for j in range(diagram.n, -1, -1)
    )


def _growth_cells_str(diagram):
    blocks = [[["#" * p for p in shape] or ["."] for shape in column] for column in diagram.grid]
    widths = [max(len(line) for block in column for line in block) for column in blocks]
    lines = []
    for j in range(diagram.n, -1, -1):
        for h in range(max(len(column[j]) for column in blocks)):
            texts = (column[j][h] if h < len(column[j]) else "" for column in blocks)
            lines.append("  ".join(text.ljust(width) for text, width in zip(texts, widths)).rstrip())
        lines.append("")
    return "\n".join(lines).rstrip()
