"""Domino insertion: bumping, growth rules, and the derived correspondences.

The growth-rule formulation is taken as the authoritative semantics; the
bumping procedure is implemented independently and the two are compared
square-for-square in the test suite.

Each edge of a growth diagram is labelled by the domino it adds, a plain
``(row, col, orient)`` tuple, or None.  A square's local rule reads its two
near labels and at most one row or column length of a corner.  Growth runs
row by row; the reverse keeps one row of shapes and validates once, by
regrowing the recovered matrix.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

from .partitions import (
    HORIZONTAL,
    VERTICAL,
    DominoShape,
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
from .tableaux import DominoTableau, empty_tableau, tableau_from_chain, tiled_shape
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


def insert_letter(tab, letter):
    """Insert one letter: a horizontal seed in row 1 for an unbarred letter,
    a vertical seed in column 1 for a barred one, then replay the bumps.

    Each displaced domino is compared against the current shape: disjoint
    dominoes stay put, a one-cell overlap slides the free cell to the
    diagonal neighbour, and a fully covered domino bumps to the next row
    (horizontal) or column (vertical).
    """
    value = letter.value
    split = bisect_left(tab.entries, value, key=itemgetter(0))
    if split < len(tab) and tab.entries[split][0] == value:
        raise ValueError(f"value {value} already present")
    lower, upper = tab.entries[:split], tab.entries[split:]

    placed = list(lower)
    rows = list(tiled_shape(tab.core, lower))

    if letter.barred:
        seed = DominoShape(len(rows) + 1, 1, "v")
    else:
        seed = DominoShape(1, (rows[0] if rows else 0) + 1, "h")
    place_domino(rows, seed.row, seed.col, seed.orient)
    placed.append((value, seed))

    for other_value, dom in upper:
        inside = [(r, c) for r, c in dom.cells() if c <= part(rows, r)]
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
        place_domino(rows, new.row, new.col, new.orient)
        placed.append((other_value, new))

    return DominoTableau(tab.core, tuple(placed))


@dataclass(frozen=True)
class InsertionResult:
    p: DominoTableau
    q: DominoTableau
    frames: tuple  # insertion tableau after each step

    @property
    def shape(self):
        return self.p.shape()


def insert_word(letters, core=0):
    """Insert a signed permutation; the recording tableau tracks the shapes."""
    letters = tuple(letters)
    if not is_signed_permutation(letters):
        raise ValueError("insert_word expects a signed permutation")
    tab = empty_tableau(core)
    frames = []
    shapes = [tab.shape()]
    for letter in letters:
        tab = insert_letter(tab, letter)
        frames.append(tab)
        shapes.append(tab.shape())
    q = tableau_from_chain(shapes)
    return InsertionResult(tab, q, tuple(frames))


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
    letters = []
    for row in matrix:
        for j, entry in enumerate(row, start=1):
            if entry:
                letters.append(Letter(j, entry < 0))
    return tuple(letters)


def validate_matrix(matrix):
    n = len(matrix)
    for row in matrix:
        if len(row) != n or any(entry not in (-1, 0, 1) for entry in row):
            raise ValueError("matrix entries must be 0 or +-1, in a square grid")
        if n - row.count(0) != 1:
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
    return (dom.row, dom.col, dom.orient)


def _shift(dom, step):
    """Move a domino down (horizontal) or right (vertical); a 2x2 block is a
    domino and its shift by 1."""
    row, col, orient = dom
    return (row + step, col, orient) if orient == HORIZONTAL else (row, col + step, orient)


def _with(lam, *doms):
    rows = list(lam)
    for dom in doms:
        place_domino(rows, *dom)
    return tuple(rows)


def _grow(lam, mu, nu, a, b, entry):
    """Forward rule on edge labels: a = mu/lam and b = nu/lam give (rho,
    rho/mu, rho/nu).  Only a +-1 seed or a bump reads lam, and then one row
    or column length."""
    if entry:
        if a or b:
            raise ValueError("a +-1 square needs three equal corners")
        seed = (1, part(lam, 1) + 1, HORIZONTAL) if entry == 1 else (len(lam) + 1, 1, VERTICAL)
        return _with(lam, seed), seed, seed
    if a is None:
        return nu, b, None
    if b is None:
        return mu, None, a
    if a == b:
        # bump below (horizontal) or to the right (vertical)
        row, col, orient = a
        if orient == HORIZONTAL:
            bumped = (row + 1, part(lam, row + 1) + 1, HORIZONTAL)
        else:
            bumped = (col_height(lam, col + 1) + 1, col + 1, VERTICAL)
        return _with(lam, a, bumped), bumped, bumped
    if a[:2] == b[:2]:
        # one-cell overlap: the 2x2 block at the shared cell fills up
        return _with(lam, a, _shift(a, 1)), _shift(a, 1), _shift(b, 1)
    return _with(lam, a, b), b, a


def _shrink(mu, c, d):
    """Reverse rule on edge labels, the inverse of ``_grow``: c = rho/mu and
    d = rho/nu give (lam, entry, mu/lam, nu/lam)."""
    if d is None:
        return mu, 0, None, c
    a, b = d, c
    if c == d:
        row, col, orient = c
        if orient == HORIZONTAL:
            if row == 1:
                return mu, 1, None, None
            a = b = (row - 1, part(mu, row - 1) - 1, HORIZONTAL)
        else:
            if col == 1:
                return mu, -1, None, None
            a = b = (col_height(mu, col - 1) - 1, col - 1, VERTICAL)
    elif c is not None and c[2] != d[2] and _shift(c, -1)[:2] == _shift(d, -1)[:2]:
        a, b = _shift(c, -1), _shift(d, -1)
    rows = list(mu)
    lift_domino(rows, *a)
    return tuple(rows), 0, a, b


def local_rule(lam, mu, nu, entry):
    """Forward local rule: the fourth corner of a square from the other three."""
    if entry not in (-1, 0, 1):
        raise ValueError(f"square entry must be 0 or +-1, got {entry}")
    return _grow(lam, mu, nu, _label(mu, lam), _label(nu, lam), entry)[0]


def local_rule_reverse(rho, mu, nu):
    """Recover (lam, entry) from the other three corners of a square."""
    lam, entry, _, _ = _shrink(mu, _label(rho, mu), _label(rho, nu))
    if local_rule(lam, mu, nu, entry) != rho:
        raise ValueError("square does not match any local rule")
    return lam, entry


@dataclass(frozen=True)
class GrowthDiagram:
    """(n+1) x (n+1) grid of shapes; grid[i][j] holds the shape after the
    first i insertions restricted to values at most j."""

    grid: tuple
    matrix: tuple
    core_order: int

    @property
    def n(self):
        return len(self.matrix)

    def p_chain(self):
        return self.grid[self.n]

    def q_chain(self):
        return tuple(self.grid[i][self.n] for i in range(self.n + 1))

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


def _grow_rows(matrix, base):
    """Yield the rows grid[0], ..., grid[n] of the growth diagram, keeping
    only the previous row's shapes and horizontal labels and the label of
    the vertical edge left of the current square."""
    n = len(matrix)
    shapes = (base,) * (n + 1)
    labels = [None] * n
    yield shapes
    for entries in matrix:
        row = [base]
        left = None
        for j in range(n):
            rho, labels[j], left = _grow(
                shapes[j], row[j], shapes[j + 1], left, labels[j], entries[j]
            )
            row.append(rho)
        shapes = tuple(row)
        yield shapes


def growth(matrix_or_word, core=0):
    """Fill the growth diagram of a signed permutation row by row."""
    if matrix_or_word and isinstance(matrix_or_word[0], Letter):
        matrix = word_matrix(matrix_or_word)
    else:
        matrix = tuple(tuple(row) for row in matrix_or_word)
    validate_matrix(matrix)
    return GrowthDiagram(tuple(_grow_rows(matrix, staircase(core))), matrix, core)


def growth_reverse(p_chain, q_chain):
    """Rebuild the matrix whose growth diagram has the given boundary chains.

    Rows are peeled off from the P chain down, keeping one row of shapes and
    its horizontal labels; the recovered matrix must regrow to both chains.
    """
    p_chain = tuple(as_partition(s) for s in p_chain)
    q_chain = tuple(as_partition(s) for s in q_chain)
    if not p_chain or len(p_chain) != len(q_chain):
        raise ValueError("chains must be nonempty and of equal length")
    if p_chain[0] != q_chain[0] or staircase_order(p_chain[0]) is None:
        raise ValueError("chains must start at the same staircase core")
    n = len(p_chain) - 1
    shapes = list(p_chain)
    labels = [_label(outer, inner) for inner, outer in zip(p_chain, p_chain[1:])]
    matrix = [None] * n
    for i in range(n - 1, -1, -1):
        entries = [0] * n
        right = _label(q_chain[i + 1], q_chain[i])
        for j in range(n - 1, -1, -1):
            shapes[j], entries[j], right, labels[j] = _shrink(shapes[j], labels[j], right)
        matrix[i] = tuple(entries)
    matrix = tuple(matrix)
    validate_matrix(matrix)
    regrown_q = []
    for row in _grow_rows(matrix, p_chain[0]):
        regrown_q.append(row[n])
    if row != p_chain or tuple(regrown_q) != q_chain:
        raise ValueError("chains do not come from an insertion")
    return matrix


def growth_reverse_word(p_tab, q_tab):
    """The signed permutation inserting to the given standard pair."""
    matrix = growth_reverse(p_tab.chain(), q_tab.chain())
    return matrix_word(matrix)


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


def _destandardize_value(weight, standard_value):
    total = 0
    for value, count in enumerate(weight, start=1):
        total += count
        if standard_value <= total:
            return value
    raise ValueError("standard value outside the weight")


def biword_reverse(p_tab, q_tab, core=0):
    """Inverse of the semistandard correspondence.

    Rebuilds the signed permutation from the standardized pair, then merges
    the standard labels back into the two weights.  A final round trip
    guards against pairs outside the image.
    """
    if p_tab.shape() != q_tab.shape():
        raise ValueError("shapes must agree")
    lam_weight = p_tab.weight()
    mu_weight = q_tab.weight()
    perm = growth_reverse_word(p_tab.standardized(), q_tab.standardized())
    letters = [
        Biletter(
            Letter(_destandardize_value(mu_weight, position)),
            Letter(_destandardize_value(lam_weight, letter.value), letter.barred),
        )
        for position, letter in enumerate(perm, start=1)
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
