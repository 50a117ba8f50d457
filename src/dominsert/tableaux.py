"""Standard and semistandard domino tableaux and their statistics.

A tableau is a staircase core plus value-labelled domino placements tiling
the skew shape.  Its shape is stored: validated by placing the dominoes on
the core one at a time in diagonal order (``tiled_shape``) where a tableau
enters from outside, and handed over by the producer that proved it where
the library builds one (``DominoTableau._placed``).  Spin is half the number
of vertical dominoes; to keep the arithmetic exact it is usually handled
through the integer vertical count (the exponent of ``s``).
"""

from __future__ import annotations

from functools import cached_property

from .partitions import (
    HORIZONTAL,
    VERTICAL,
    DominoShape,
    as_partition,
    conjugate,
    contains,
    domino_predecessors,
    domino_successors,
    fold_down,
    json_value,
    partition_str,
    place_domino,
    size,
    staircase,
    staircase_order,
    two_core,
)
from .polynomials import MPoly, PARAMS
from .words import read_only, value_weight
from .young import syt_sign


def _diagonal_order(entry):
    row, col, orient = entry[1]
    return row + col, orient == VERTICAL, row if orient == HORIZONTAL else -row


def tiled_shape(core, entries):
    """Row lengths of a core plus (value, domino) entries, the dominoes
    placed on the core with ``place_domino`` by the diagonal r + c of their
    first cell, horizontal ones first, horizontal ones by row and vertical
    ones by row descending.  ValueError unless the cells tile a partition.

    The order works.  Let the cells tile a partition, and x be a cell above
    or left of a cell y of domino d, in another domino e.  x lies on the
    diagonal before y's, so e's first cell comes no later than d's.  They tie
    only when x is e's first cell and y is d's second: d horizontal at (r, c)
    and e horizontal at (r-1, c+1), placed first by row; or d vertical at
    (r, c) and e vertical at (r+1, c-1), placed first by row descending.  So
    every prefix of the order is a partition, each placement succeeds, and a
    failed placement means the cells tile no partition.
    """
    rows = list(core)
    for _, dom in sorted(entries, key=_diagonal_order):
        try:
            place_domino(rows, *dom)
        except ValueError:
            overlap = any(r <= len(rows) and c <= rows[r - 1] for r, c in dom.cells())
            raise ValueError(f"overlapping cell in {dom}" if overlap else "cells do not tile a partition shape") from None
    return tuple(rows)


class DominoTableau:
    """A staircase core and sorted (value, DominoShape) entries, values from 1."""

    def __init__(self, core, entries):
        if staircase_order(core) is None:
            raise ValueError(f"core {core} is not a staircase")
        ordered = tuple(sorted(entries))
        if ordered and ordered[0][0] < 1:
            raise ValueError(f"tableau values start at 1, got {ordered[0][0]}")
        self.__dict__.update(core=core, entries=ordered, _shape=tiled_shape(core, ordered))

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.core, self.entries, self._shape) == (other.core, other.entries, other._shape)

    def __hash__(self):
        return hash((self.core, self.entries, self._shape))

    def __repr__(self):
        return f"DominoTableau(core={self.core!r}, entries={self.entries!r})"

    @classmethod
    def _placed(cls, core, entries, shape):
        """A tableau from a staircase core, sorted entries with values from 1
        and the shape they tile, unchecked: each caller proves all three.  As
        the shape takes part in equality, a wrong one equals no valid tableau."""
        tab = object.__new__(cls)
        tab.__dict__.update(core=core, entries=entries, _shape=shape)
        return tab

    def shape(self):
        return self._shape

    def values(self):
        return tuple(value for value, _ in self.entries)

    def weight(self):
        return value_weight(self.values())

    def __len__(self):
        return len(self.entries)

    def vertical_count(self):
        return sum(1 for _, dom in self.entries if dom.orient == VERTICAL)

    def spin(self):
        from fractions import Fraction  # its one use; the import loads decimal and re
        return Fraction(self.vertical_count(), 2)

    def odd_vertical(self):
        return sum(1 for _, dom in self.entries if dom.orient == VERTICAL and dom.col % 2 == 1)

    def even_vertical(self):
        return sum(1 for _, dom in self.entries if dom.orient == VERTICAL and dom.col % 2 == 0)

    def is_standard(self):
        return self.values() == tuple(range(1, len(self.entries) + 1)) and self.is_semistandard()

    def is_semistandard(self):
        return self._replay is not None

    def semistandard_shape(self):
        """The shape that the ``_replay`` reaches, None unless semistandard."""
        return self._replay and self._replay[1][-1]

    @cached_property
    def _replay(self):
        """Place each value class left to right with ``place_domino`` on the
        core: the entries numbered 1..n in that order and the chain of row
        lengths from the core up, or None unless prefix shapes are partitions
        and each value class is a horizontal strip of dominoes (pairwise
        disjoint, increasing column ranges); it never reads the stored shape,
        and runs once per tableau."""
        rows, entries, chain, last_value, last_col = list(self.core), [], [self.core], 0, 0
        for value, dom in sorted(self.entries, key=lambda entry: (entry[0], entry[1][1])):
            row, col, orient = dom
            if value == last_value and col <= last_col:  # a domino of the class meets or precedes the last one
                return None
            last_value, last_col = value, col + (orient == HORIZONTAL)
            try:
                place_domino(rows, row, col, orient)
            except ValueError:
                return None
            entries.append((len(entries) + 1, dom))
            chain.append(tuple(rows))
        return tuple(entries), tuple(chain)

    def is_column_semistandard(self):
        return self.conjugated().is_semistandard()

    def chain(self):
        """Shape chain of a standard tableau, from the core up, as the
        ``_replay`` places it; ValueError exactly when ``is_standard`` fails."""
        if not self.is_standard():
            raise ValueError("chain is defined for standard tableaux")
        return self._replay[1]

    def standardized(self, columns=False):
        """Relabel value classes 1..n, left to right within each class, as
        the ``_replay`` numbers them; ValueError unless semistandard.

        ``columns=True`` numbers them top to bottom instead, through the
        conjugate; that is the matching convention for column-semistandard
        tableaux, and it rejects any other.  The cells, so the shape, stay;
        the new values come out in order.  The copy keeps this replay: its
        values 1..n are distinct, so its own would place the same dominoes in
        the same order from the same core.
        """
        if columns:
            return self.conjugated().standardized().conjugated()
        if self._replay is None:
            raise ValueError("tableau is not semistandard")
        entries, chain = self._replay
        out = DominoTableau._placed(self.core, entries, chain[-1])
        out.__dict__["_replay"] = self._replay
        return out

    def conjugated(self):
        """Transposed cells tile the conjugate over the same staircase core."""
        entries = sorted((value, dom.transposed()) for value, dom in self.entries)
        return DominoTableau._placed(self.core, tuple(entries), conjugate(self._shape))

    def to_json(self):
        return {
            "core": list(self.core),
            "dominoes": [
                {"value": value, **dom._asdict()} for value, dom in self.entries
            ],
        }

    @classmethod
    def from_json(cls, data):
        json_value(data, "a tableau", dict)
        try:
            core = as_partition(json_value(p, "core part") for p in json_value(data["core"], "core", list))
            dominoes = (json_value(d, "a domino", dict) for d in json_value(data["dominoes"], "dominoes", list))
            entries = tuple((json_value(d["value"], "value"), DominoShape.from_json(d)) for d in dominoes)
        except KeyError as exc:  # a domino's other fields are named by DominoShape.from_json
            where = "a domino" if exc.args[0] == "value" else "a tableau"
            raise ValueError(f"{where} has no {exc} field") from None
        return cls(core, entries)

    def __str__(self):
        body = ", ".join(f"{value}:{dom.row},{dom.col},{dom.orient}" for value, dom in self.entries)
        return f"[core {partition_str(self.core)} | {body}]"


def _append_largest(pairs):
    return [entries + ((len(entries) + 1, dom),) for dom, below in pairs for entries in below]


def enumerate_standard(lam):
    """All standard domino tableaux of the shape, sorted by entries: the ``fold_down``
    walk of ``spin_polys`` labelled by lists, the removed domino numbered last."""
    lam = as_partition(lam)
    core = two_core(lam)
    listed = fold_down(lam, domino_predecessors, _append_largest, {core: [()]})
    return [DominoTableau._placed(core, entries, lam) for entries in sorted(listed)]


def _strip_walk(core, steps, max_dominoes, limit, start, extend):
    """Each shape reached by ``steps`` horizontal domino strips up from core,
    at most max_dominoes dominoes, inside ``limit`` unless None, mapped to its
    row: chains counted by label from ``start``.  ``extend(row, k, strip)``
    labels a row's chains after a nonempty strip of step k, dominoes left to
    right, each strictly right of the last.  Its strip memo dies with the call."""

    def strips(shape, room):  # (strip, shape, last column) of each; read while it grows, so it never recurses
        out = [((), shape, 0)]
        for before, base, min_col in out:
            for mu, dom in domino_successors(base) if len(before) < room else ():
                if dom.col > min_col and (limit is None or contains(limit, mu)):
                    out.append((before + (dom,), mu, dom.max_col))
        return out[1:]

    rows, found = {core: {start: 1}}, {}
    for k in range(steps):
        step = {shape: dict(row) for shape, row in rows.items()}
        for shape, row in rows.items():
            if shape not in found:
                found[shape] = strips(shape, max_dominoes - (size(shape) - size(core)) // 2)
            for strip, nu, _ in found[shape]:
                target = step.setdefault(nu, {})
                for label, count in extend(row, k, strip):
                    target[label] = target.get(label, 0) + count
        rows = step
    return rows


def enumerate_semistandard(lam, max_value):
    """All semistandard domino tableaux with entries at most max_value: the
    chains of strips from the core to lam, labelled by their entries."""
    if max_value < 0:
        raise ValueError(f"max_value must be nonnegative, got {max_value}")
    lam = as_partition(lam)
    core = two_core(lam)
    chains = _strip_walk(core, max_value, (size(lam) - size(core)) // 2, lam, (), _with_entries).get(lam, ())
    return sorted((DominoTableau._placed(core, tuple(sorted(e)), lam) for e in chains), key=lambda t: t.entries)


def _with_entries(row, k, strip):
    placed = tuple((k + 1, dom) for dom in strip)
    return ((entries + placed, count) for entries, count in row.items())


def _with_weight(row, k, strip):
    d, v = len(strip), sum(dom.orient == VERTICAL for dom in strip)
    return (((*key[:k], d, *key[k + 1:-1], key[-1] + v), count) for key, count in row.items())


def strip_transfer(core, nvars, max_dominoes, _limit=None):
    """Semistandard domino tableaux over core, values at most nvars, at most
    max_dominoes dominoes, counted by ``enumerate_semistandard``'s walk over all
    shapes at once, a strip of value k weighing x_k^(dominoes) s^(vertical ones):
    shape -> row, x-exponents then vertical count -> tableaux.  ``_limit`` keeps
    the walk inside one shape, at no more cost than listing its tableaux."""
    return _strip_walk(core, nvars, max_dominoes, _limit, (0,) * (nvars + 1), _with_weight)


def _by_vertical(pairs):
    """Tableau counts of a shape by vertical dominoes, index k for s^k, from
    (removable domino, counts of the shape without it) pairs."""
    out = [0] * max(len(counts) + (dom.orient == VERTICAL) for dom, counts in pairs)
    for dom, counts in pairs:
        for k, count in enumerate(counts, dom.orient == VERTICAL):
            out[k] += count
    return out


def spin_polys(shapes):
    """The spin polynomial of each shape, without listing tableaux.

    The largest domino of a standard tableau is a removable domino D of its
    shape, so spin_poly(lam) is the sum over D of s^[D vertical] times
    spin_poly(lam - D), and 1 at the 2-core: the ``fold_down`` walk of
    ``enumerate_standard`` labelled by counts, with one memo for all the shapes.
    """
    memo, polys = {}, []
    for lam in shapes:
        lam = as_partition(lam)
        memo.setdefault(two_core(lam), (1,))
        counts = fold_down(lam, domino_predecessors, _by_vertical, memo)
        polys.append(MPoly(PARAMS, {(0, 0, 0, k): count for k, count in enumerate(counts)}))  # a, b, c, s
    return polys


def spin_poly(lam):
    """Sum of q^spin over the standard tableaux of the shape, in s = q^(1/2),
    as a ``PARAMS`` polynomial."""
    return spin_polys([lam])[0]


def associated_young_tableau(tab):
    """Young tableau obtained by splitting each domino into consecutive values.

    With an empty core, domino i receives 2i-1 and 2i.  With core (1), the
    core cell receives 1 and domino i receives 2i and 2i+1.  The earlier cell
    of a domino (row, then column order; ``cells()`` lists it first) gets the
    smaller value.  The split of a standard tableau is standard, so it is not
    checked again: a cell left of or above a cell of domino i is a core cell,
    a cell of a domino j < i, or the earlier cell of domino i itself.
    """
    core_order = staircase_order(tab.core)
    if core_order not in (0, 1):
        raise ValueError("associated Young tableau needs a core of at most one box")
    if not tab.is_standard():
        raise ValueError("associated Young tableau is defined for standard tableaux")
    rows = [[None] * length for length in tab.shape()]
    if core_order == 1:
        rows[0][0] = 1
    for value, dom in tab.entries:
        low = 2 * value - 1 + core_order
        (r1, c1), (r2, c2) = dom.cells()
        rows[r1 - 1][c1 - 1], rows[r2 - 1][c2 - 1] = low, low + 1
    return tuple(map(tuple, rows))


def tableau_sign(tab):
    """Sign of the reading word of the associated Young tableau."""
    return syt_sign(associated_young_tableau(tab))
