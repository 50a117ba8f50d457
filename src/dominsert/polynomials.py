"""Sparse exact polynomials in a fixed tuple of named variables.

All coefficient arithmetic in this package is plain ``int`` arithmetic, so
every identity check is a literal coefficient-by-coefficient comparison.
The variable ``s`` stands for the square root of ``q`` throughout: a spin of
``k/2`` is recorded as ``s**k`` and ``q**m`` as ``s**(2*m)``.
"""

from __future__ import annotations

PARAMS = ("a", "b", "c", "s")
SPIN = ("s",)
IMBALANCE = ("x", "y", "q", "t")


class MPoly:
    """Multivariate polynomial over the integers.

    Terms are stored sparsely as a map from exponent vectors to nonzero
    coefficients.  Operands of binary operations must share the same
    variable-name tuple; use :meth:`lift` to move into a larger ring.
    """

    __slots__ = ("names", "terms")

    def __init__(self, names, terms=None):
        self.names = tuple(names)
        width = len(self.names)
        table = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != width:
                    raise ValueError(f"exponent vector {exps} does not fit variables {self.names}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if coeff:
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

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.names != self.names:
                raise ValueError(f"variable mismatch: {self.names} vs {other.names}")
            return other
        if isinstance(other, int):
            return MPoly.const(other, self.names)
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = MPoly.const(other, self.names)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.names == other.names and self.terms == other.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            new = terms.get(exps, 0) + coeff
            if new:
                terms[exps] = new
            else:
                terms.pop(exps, None)
        out = MPoly(self.names)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MPoly(self.names)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                new = terms.get(key, 0) + c1 * c2
                if new:
                    terms[key] = new
                else:
                    del terms[key]
        out = MPoly(self.names)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MPoly.const(1, self.names)
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
        out = MPoly(self.names)
        out.terms = terms
        return out

    def lift(self, names):
        """Re-express the polynomial in a superset of variables."""
        names = tuple(names)
        positions = [names.index(n) for n in self.names]
        terms = {}
        for exps, coeff in self.terms.items():
            new = [0] * len(names)
            for pos, e in zip(positions, exps):
                new[pos] = e
            terms[tuple(new)] = coeff
        return MPoly(names, terms)

    def _monomial_str(self, exps):
        parts = []
        for name, e in zip(self.names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

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
        return f"MPoly({self.names!r}, {self.terms!r})"


def one_plus_q(names=SPIN):
    """The factor 1 + q written in s."""
    return MPoly.const(1, names) + MPoly.var("s", names, power=2)
