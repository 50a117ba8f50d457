"""ASCII rendering of domino tableaux.

Each cell is a box with shared borders; the wall between the two cells of
a domino is omitted, which reproduces the usual picture of a tiling.  Core
cells are hatched.  Each text line is joined once from its row's boxes (a
left wall and an inside) or from the walls under a row, with a corner at
every grid point.
"""

from __future__ import annotations

from itertools import zip_longest

from .partitions import HORIZONTAL

CELL_W = 4  # a box: its left wall and three characters inside


def render_tableau(tab):
    lam = tab.shape()
    if not lam:
        return "(empty shape)"
    boxes = [["|:::"] * k + ["|   "] * (length - k) for k, length in zip_longest(tab.core, lam, fillvalue=0)]
    borders = [["---+"] * length for length in lam[:1] + lam]  # the line above row 1, then under each row
    wide = [[] for _ in lam]  # values too long for their box
    for value, (row, col, orient) in tab.entries:
        if orient == HORIZONTAL:
            boxes[row - 1][col] = "    "
        else:
            borders[row][col - 1] = "   +"
        text = str(value).rjust(2)
        if len(text) < CELL_W:
            boxes[row - 1][col - 1] = "|" + text.ljust(CELL_W - 1)
        else:
            wide[row - 1].append(((col - 1) * CELL_W + 1, text))
    lines = ["+" + "".join(borders[0])]
    for row, border, texts in zip(boxes, borders[1:], wide):
        line = "".join(row) + "|"
        # in value order, over the walls and boxes to its right; the values
        # in their boxes are smaller, so they were written first anyway
        for x, text in texts:
            line = line[:x] + text + line[x + len(text):]
        lines += [line, "+" + "".join(border)]
    return "\n".join(lines)
