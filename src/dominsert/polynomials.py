"""Sparse exact polynomials in a fixed tuple of named variables.

The one sparse type of the package: a map from exponent vectors to nonzero
coefficients, with an optional bound on the total degree past which no term
is kept.  Coefficients are ints, or ``MPoly``s themselves: a truncated
series (``series.TruncatedSeries``) is an ``MPoly`` in x and y whose
coefficients are polynomials in ``PARAMS``.  All arithmetic is exact, so
every identity check is a literal coefficient-by-coefficient comparison.
The variable ``s`` stands for the square root of ``q`` throughout: a spin of
``k/2`` is recorded as ``s**k`` and ``q**m`` as ``s**(2*m)``.
"""

from __future__ import annotations

from operator import add

PARAMS = ("a", "b", "c", "s")
IMBALANCE = ("x", "y", "q", "t")


class MPoly:
    """Multivariate polynomial, truncated past total degree ``bound`` unless
    that is None.

    Terms are stored sparsely as a map from exponent vectors to nonzero
    coefficients.  Operands of binary operations must share the same
    variable-name tuple and bound.
    """

    __slots__ = ("names", "terms", "bound")

    def __init__(self, names, terms=None, bound=None):
        self.names = tuple(names)
        self.bound = bound
        width = len(self.names)
        table = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != width:
                    raise ValueError(f"exponent vector {exps} does not fit variables {self.names}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if coeff and (bound is None or sum(exps) <= bound):
                    table[exps] = coeff
        self.terms = table

    @classmethod
    def zero(cls, names=PARAMS):
        return cls(names)

    @classmethod
    def const(cls, value, names=PARAMS):
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def var(cls, name, names=PARAMS, power=1, coeff=1):
        exps = [0] * len(names)
        exps[tuple(names).index(name)] = power
        return cls(names, {tuple(exps): coeff})

    def _new(self, terms):
        """An element of this ring with ``terms``, already nonzero and in bound."""
        out = object.__new__(type(self))
        out.names, out.terms, out.bound = self.names, terms, self.bound
        return out

    def _coerce(self, other):
        """``other`` in this ring: an int is a constant.  Another type is
        NotImplemented, so that ``MPoly * series`` reaches the series."""
        if type(other) is type(self):
            if (other.names, other.bound) != (self.names, self.bound):
                raise ValueError(f"ring mismatch: {self.names} vs {other.names}, bound {self.bound} vs {other.bound}")
            return other
        if isinstance(other, int):
            return self._new({(0,) * len(self.names): other} if other else {})
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return (self.names, self.bound, self.terms) == (other.names, other.bound, other.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            if exps in terms:
                coeff = terms[exps] + coeff
                if not coeff:
                    del terms[exps]
                    continue
            terms[exps] = coeff
        return self._new(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._new({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product, with no term formed past the degree bound."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        bound = self.bound
        terms = {}
        for e1, c1 in self.terms.items():
            room = None if bound is None else bound - sum(e1)
            for e2, c2 in other.terms.items():
                if room is not None and sum(e2) > room:
                    continue
                key = tuple(map(add, e1, e2))
                coeff = c1 * c2
                if key in terms:
                    coeff = terms[key] + coeff
                    if not coeff:
                        del terms[key]
                        continue
                terms[key] = coeff
        return self._new(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self._coerce(1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def subs(self, assignments):
        """Substitute integers for some variables, keeping the ring fixed."""
        idx = {name: self.names.index(name) for name in assignments}
        terms = {}
        for exps, coeff in self.terms.items():
            value = coeff
            new_exps = list(exps)
            for name, i in idx.items():
                value *= assignments[name] ** exps[i]
                new_exps[i] = 0
            if value:
                key = tuple(new_exps)
                total = terms.get(key, 0) + value
                if total:
                    terms[key] = total
                else:
                    del terms[key]
        return self._new(terms)

    def _monomial_str(self, exps):
        return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(self.names, exps) if e)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            coeff = self.terms[exps]
            mono = self._monomial_str(exps)
            if not mono:
                text = str(abs(coeff))
            elif abs(coeff) == 1:
                text = mono
            else:
                text = f"{abs(coeff)}*{mono}"
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, text))
        first_sign, first = pieces[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, text in pieces[1:]:
            out += f" {sign} {text}"
        return out

    def __repr__(self):
        bound = "" if self.bound is None else f", bound={self.bound}"
        return f"MPoly({self.names!r}, {self.terms!r}{bound})"


def one_plus_q():
    """The factor 1 + q written in s."""
    return MPoly.const(1) + MPoly.var("s", power=2)
