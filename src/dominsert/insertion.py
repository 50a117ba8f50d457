"""Domino insertion: bumping, growth rules, and the derived correspondences.

The growth-rule formulation is taken as the authoritative semantics; the
bumping procedure is implemented independently and the two are compared
square-for-square in the test suite.

Each edge of a growth diagram is labelled by the domino it adds, or None.
A label is the same ``(row, col, orient)`` triple as ``DominoShape``; the
labels a local rule builds stay bare triples, and ``place_domino`` or
``lift_domino`` checks each one.  A square's local rule reads its two near
labels and at most one row or column length of a corner.  Growth and its
reverse run row by row on one list of row lengths per column; the reverse
checks each square it peels off.  Both skip a row's squares that set no label.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .partitions import (
    HORIZONTAL,
    VERTICAL,
    DominoShape,
    add_domino,
    as_partition,
    col_height,
    domino_of_cells,
    lift_domino,
    part,
    partition_str,
    place_domino,
    skew_domino,
    staircase,
    staircase_order,
)
from .tableaux import DominoTableau, tableau_from_chain, tiled_shape
from .words import (
    COLORED,
    DUAL,
    Biletter,
    Letter,
    biword,
    invert_colored,
    invert_dual,
    is_signed_permutation,
    signed_permutation,
    standardize_top,
    with_kind,
)


# ---------------------------------------------------------------------------
# bumping


def _bump(core, entries, letter):
    """Insert one letter: a horizontal seed in row 1 for an unbarred letter,
    a vertical seed in column 1 for a barred one, then replay the bumps.

    Each displaced domino is compared against the current shape: disjoint
    dominoes stay put, a one-cell overlap slides the free cell to the
    diagonal neighbour, and a fully covered domino bumps to the next row
    (horizontal) or column (vertical).  Returns the new sorted entries and
    row lengths; ``place_domino`` checks every placement.
    """
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
            target_row = dom.row + 1
            new = DominoShape(target_row, part(rows, target_row) + 1, "h")
        else:
            target_col = dom.col + 1
            new = DominoShape(col_height(rows, target_col) + 1, target_col, "v")
        place_domino(rows, *new)
        placed.append((other_value, new))

    return tuple(placed), rows


def insert_letter(tab, letter):
    """Insert one letter into a standard tableau; see ``_bump``."""
    return DominoTableau(tab.core, _bump(tab.core, tab.entries, letter)[0])


@dataclass(frozen=True)
class InsertionResult:
    p: DominoTableau
    q: DominoTableau
    steps: tuple  # entries of the insertion tableau after each step

    @property
    def shape(self):
        return self.p.shape()

    @property
    def frames(self):
        return tuple(DominoTableau(self.p.core, entries) for entries in self.steps)


def insert_word(letters, core=0):
    """Insert a signed permutation; the recording tableau holds the domino
    each step adds."""
    letters = tuple(letters)
    if not is_signed_permutation(letters):
        raise ValueError("insert_word expects a signed permutation")
    base = staircase(core)
    entries, shape = (), base
    steps, recording = [], []
    for value, letter in enumerate(letters, start=1):
        entries, rows = _bump(base, entries, letter)
        dom = skew_domino(rows, shape)
        if dom is None:
            raise ValueError(f"step {value} of the insertion does not add a domino")
        recording.append((value, dom))
        steps.append(entries)
        shape = rows
    return InsertionResult(DominoTableau(base, entries), DominoTableau(base, tuple(recording)), tuple(steps))


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


def matrix_word(matrix):
    validate_matrix(matrix)
    return _letters(matrix)


def _letters(matrix):
    """The word of a validated signed permutation matrix."""
    return tuple(Letter(j, entry < 0) for row in matrix for j, entry in enumerate(row, start=1) if entry)


def validate_matrix(matrix):
    n = len(matrix)
    for row in matrix:
        zeros = row.count(0)
        if len(row) != n or zeros + row.count(1) + row.count(-1) != n:
            raise ValueError("matrix entries must be 0 or +-1, in a square grid")
        if n - zeros != 1:
            raise ValueError("each row needs exactly one nonzero entry")
    for column in zip(*matrix):
        if n - column.count(0) != 1:
            raise ValueError("each column needs exactly one nonzero entry")


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
    if a[:2] == b[:2]:
        # one-cell overlap: the 2x2 block at the shared cell fills up
        return _shift(a, 1), _shift(b, 1)
    return b, a


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
    elif c is not None and c[2] != d[2] and _shift(c, -1)[:2] == _shift(d, -1)[:2]:
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


@dataclass(frozen=True)
class GrowthDiagram:
    """Growth diagram of a signed permutation matrix, kept as its boundary
    chains and the labels of its vertical edges."""

    matrix: tuple
    core_order: int
    p_shapes: tuple
    q_shapes: tuple
    vertical: tuple  # vertical[i][j] labels grid[i + 1][j] / grid[i][j]

    @property
    def n(self):
        return len(self.matrix)

    @cached_property
    def grid(self):
        """(n+1) x (n+1) grid of shapes replayed from the labels; grid[i][j]
        holds the shape after the first i insertions restricted to values at
        most j."""
        grid = [(staircase(self.core_order),) * (self.n + 1)]
        for labels in self.vertical:
            grid.append(tuple(add_domino(s, dom) if dom else s for s, dom in zip(grid[-1], labels)))
        return tuple(grid)

    def p_chain(self):
        return self.p_shapes

    def q_chain(self):
        return self.q_shapes

    def p_tableau(self):
        return tableau_from_chain(self.p_chain())

    def q_tableau(self):
        return tableau_from_chain(self.q_chain())

    def spin_ledger_holds(self):
        """Per-square bookkeeping: vertical-domino growth on the two far edges
        matches the two near edges plus 2 exactly on a -1 square."""
        for i in range(self.n):
            for j in range(self.n):
                lam = self.grid[i][j]
                mu = self.grid[i + 1][j]
                nu = self.grid[i][j + 1]
                rho = self.grid[i + 1][j + 1]
                left = _vertical_growth(mu, rho) + _vertical_growth(nu, rho)
                right = (
                    _vertical_growth(lam, mu)
                    + _vertical_growth(lam, nu)
                    + (2 if self.matrix[i][j] == -1 else 0)
                )
                if left != right:
                    return False
        return True

    def to_json(self):
        return {
            "core": self.core_order,
            "matrix": [list(row) for row in self.matrix],
            "grid": [[list(shape) for shape in row] for row in self.grid],
            "p_chain": [list(shape) for shape in self.p_chain()],
            "q_chain": [list(shape) for shape in self.q_chain()],
        }


def _vertical_growth(inner, outer):
    dom = _label(outer, inner)
    return 1 if dom and dom[2] == VERTICAL else 0


def growth(matrix_or_word, core=0):
    """Fill the growth diagram of a signed permutation row by row, on one list
    of row lengths per column: column j holds grid[i][j] and takes its
    vertical label in place, so a square reads the column to its right.  A
    row starts at its nonzero column: left of it the entries are 0 and the
    left label stays None, so ``_grow`` passes the top label on unchanged."""
    if matrix_or_word and isinstance(matrix_or_word[0], Letter):
        matrix = word_matrix(matrix_or_word)
    else:
        matrix = tuple(tuple(row) for row in matrix_or_word)
    validate_matrix(matrix)
    n, base = len(matrix), staircase(core)
    columns = [list(base) for _ in range(n + 1)]
    horizontal = [None] * n
    q_chain, vertical = [base], []
    for entries in matrix:
        start = entries.index(1) if 1 in entries else entries.index(-1)
        left, labels = None, [None] * (start + 1)
        for j in range(start, n):
            horizontal[j], left = _grow(columns[j + 1], left, horizontal[j], entries[j])
            if left:
                place_domino(columns[j + 1], *left)
            labels.append(left)
        q_chain.append(tuple(columns[n]))
        vertical.append(tuple(labels))
    return GrowthDiagram(matrix, core, tuple(map(tuple, columns)), tuple(q_chain), tuple(vertical))


def growth_reverse(p_chain, q_chain):
    """Rebuild the matrix whose growth diagram has the given boundary chains.

    Rows are peeled off from the P chain down, on one list of row lengths
    per column.  Each square whose right label is set must grow back to its
    outer labels, each row must end at the core, and so must every column
    and the P labels; by induction the matrix then grows to both chains.  A
    row stops once its right label is None: further left ``_shrink`` returns
    (0, None, c) for each square, which lifts and checks nothing.
    """
    p_chain = tuple(as_partition(s) for s in p_chain)
    q_chain = tuple(as_partition(s) for s in q_chain)
    if not p_chain or len(p_chain) != len(q_chain):
        raise ValueError("chains must be nonempty and of equal length")
    if p_chain[0] != q_chain[0] or staircase_order(p_chain[0]) is None:
        raise ValueError("chains must start at the same staircase core")
    n = len(p_chain) - 1
    columns = [list(shape) for shape in p_chain]
    labels = [_label(outer, inner) for inner, outer in zip(p_chain, p_chain[1:])]
    matrix = [None] * n
    for i in range(n - 1, -1, -1):
        entries = [0] * n
        right = _label(q_chain[i + 1], q_chain[i])
        columns[n] = list(q_chain[i])
        for j in range(n - 1, -1, -1):
            if right is None:
                break
            c, d = labels[j], right
            entries[j], right, labels[j] = _shrink(columns[j], c, d)
            if _grow(columns[j + 1], right, labels[j], entries[j]) != (c, d):
                raise ValueError(f"square ({i + 1}, {j + 1}) matches no local rule")
        if right:
            raise ValueError(f"row {i + 1} does not start at the core")
        matrix[i] = tuple(entries)
    if any(labels) or any(column != columns[n] for column in columns):
        raise ValueError("chains do not come from an insertion")
    validate_matrix(matrix)
    return tuple(matrix)


def growth_reverse_word(p_tab, q_tab):
    """The signed permutation inserting to the given standard pair."""
    return _letters(growth_reverse(p_tab.chain(), q_tab.chain()))


# ---------------------------------------------------------------------------
# semistandard correspondence


def _relabel(tab, labels, column_side=False):
    """Replace standard values through the sorted label list."""
    entries = tuple((labels[value - 1], dom) for value, dom in tab.entries)
    out = DominoTableau(tab.core, entries)
    ok = out.is_column_semistandard() if column_side else out.is_semistandard()
    if not ok:
        raise ValueError("relabelled tableau is invalid")
    return out


def biword_insert(word, core=0):
    """Semistandard correspondence: a colored biword to an equal-shape pair.

    P records the insertion of the top-standardized inverse; Q is the P of
    the inverse biword.  The pair carries the bottom and top weights and the
    total color equals the sum of the spins.

    Each tableau is the recording tableau of a top-standardized inverse,
    relabelled by its top row.  Equal top labels force strictly increasing
    neg-values below, so consecutive recording dominoes lie strictly left to
    right and the relabelled tableau is semistandard.
    """
    if word.kind != COLORED:
        raise ValueError("biword_insert expects a colored biword")
    pair = []
    for side in (word, invert_colored(word)):
        source = invert_colored(standardize_top(side))
        recording = insert_word(signed_permutation(source), core).q
        pair.append(_relabel(recording, [letter.value for letter in source.top]))
    p_tab, q_tab = pair
    if p_tab.shape() != q_tab.shape():
        raise ValueError("insertion produced unequal shapes")
    return p_tab, q_tab


def biword_reverse(p_tab, q_tab, core=0):
    """Inverse of the semistandard correspondence.

    Rebuilds the signed permutation from the standardized pair, then merges
    the standard labels back into the two weights.  A final round trip
    guards against pairs outside the image.
    """
    if p_tab.shape() != q_tab.shape():
        raise ValueError("shapes must agree")
    p_values, q_values = sorted(p_tab.values()), sorted(q_tab.values())
    perm = growth_reverse_word(p_tab.standardized(), q_tab.standardized())
    letters = [
        Biletter(Letter(q_values[position]), Letter(p_values[letter.value - 1], letter.barred))
        for position, letter in enumerate(perm)
    ]
    word = biword(letters, COLORED)
    if biword_insert(word, core) != (p_tab, q_tab):
        raise ValueError("pair is not in the image of the correspondence")
    return word


# ---------------------------------------------------------------------------
# dual correspondences


def dual_insert_alpha(word, core=0):
    """First dual correspondence, on multiplicity-free dual colored biwords.

    P is semistandard, Q column-semistandard; both come from inserting the
    top-standardized word, with Q's labels merged back into the top weight.
    """
    if word.kind != DUAL:
        raise ValueError("dual_insert_alpha expects a dual colored biword")
    if not word.is_multiplicity_free():
        raise ValueError("dual_insert_alpha needs a multiplicity-free biword")
    as_colored = with_kind(standardize_top(word), COLORED)
    p_tab, q_std = biword_insert(as_colored, core)
    labels = [letter.value for letter in word.top]
    q_tab = _relabel(q_std, labels, column_side=True)
    return p_tab, q_tab


def dual_insert_beta(word, core=0):
    """Second dual correspondence, on multiplicity-free colored biwords.

    P is column-semistandard, Q semistandard; both come from the insertion
    of word^(inv_d ost inv_d), with P's labels merged into the bottom weight.
    """
    if word.kind != COLORED:
        raise ValueError("dual_insert_beta expects a colored biword")
    if not word.is_multiplicity_free():
        raise ValueError("dual_insert_beta needs a multiplicity-free biword")
    rewritten = invert_dual(standardize_top(invert_dual(word)))
    p_std, q_tab = biword_insert(rewritten, core)
    bottom_sorted = sorted(word.bottom, key=lambda letter: letter.key())
    labels = [letter.value for letter in bottom_sorted]
    p_tab = _relabel(p_std, labels, column_side=True)
    return p_tab, q_tab


# ---------------------------------------------------------------------------
# rendering helpers


def growth_str(diagram, cells=False):
    """Figure layout: value index upward, insertion index rightward."""
    n = diagram.n
    if cells:
        return _growth_cells_str(diagram)
    widths = [
        max(len(partition_str(diagram.grid[i][j])) for j in range(n + 1))
        for i in range(n + 1)
    ]
    lines = []
    for j in range(n, -1, -1):
        row = [partition_str(diagram.grid[i][j]).ljust(widths[i]) for i in range(n + 1)]
        lines.append("  ".join(row).rstrip())
    return "\n".join(lines)


def _growth_cells_str(diagram):
    n = diagram.n
    blocks = [[None] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(n + 1):
            shape = diagram.grid[i][j]
            blocks[i][j] = ["#" * p for p in shape] or ["."]
    col_width = [
        max(max((len(line) for line in blocks[i][j]), default=1) for j in range(n + 1))
        for i in range(n + 1)
    ]
    lines = []
    for j in range(n, -1, -1):
        height = max(len(blocks[i][j]) for i in range(n + 1))
        for h in range(height):
            row = []
            for i in range(n + 1):
                block = blocks[i][j]
                text = block[h] if h < len(block) else ""
                row.append(text.ljust(col_width[i]))
            lines.append("  ".join(row).rstrip())
        lines.append("")
    return "\n".join(lines).rstrip()
