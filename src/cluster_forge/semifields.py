"""Tropical semifields of Laurent monomials and the tropicalization map.

An element of the tropical semifield on variables ``p1..pr`` is a single
Laurent monomial; semifield addition takes the componentwise minimum of
exponent vectors, multiplication adds them.  The tropicalization map sends a
subtraction-free rational function to the semifield by evaluating its
factored form with + replaced by the tropical sum.
``TropMonomial`` and ``PosRatFunc`` share one semifield interface (``one``,
``mul``, ``inv``, ``power``, ``add`` for the sum, ``reduced``,
``to_posrat``), and it is all that ``bracket`` and the coefficient rule read.
"""

from __future__ import annotations

from operator import add, neg

from .exact_algebra import LaurentPoly, PosRatFunc, VariableSetMismatch


class TropMonomial:
    """Laurent monomial in a tropical semifield: just an exponent vector."""

    __slots__ = ("vars", "exps")

    def __init__(self, vars, exps):
        self.vars = tuple(vars)
        self.exps = tuple(exps)
        if len(self.exps) != len(self.vars):
            raise ValueError("exponent vector length mismatch")

    @classmethod
    def _new(cls, vars, exps):
        """Trusted constructor: tuples ``vars`` and ``exps`` of one length."""
        self = object.__new__(cls)
        self.vars, self.exps = vars, exps
        return self

    @classmethod
    def one(cls, vars):
        return cls._new(tuple(vars), (0,) * len(vars))

    @classmethod
    def variable(cls, vars, name):
        vars = tuple(vars)
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return cls(vars, e)

    def mul(self, other):
        self._check(other)
        return TropMonomial._new(self.vars, tuple(map(add, self.exps, other.exps)))

    def inv(self):
        return TropMonomial._new(self.vars, tuple(map(neg, self.exps)))

    def power(self, k):
        return TropMonomial._new(self.vars, tuple(x * k for x in self.exps))

    def reduced(self):
        return self

    def add(self, other):
        """Semifield sum: componentwise minimum of exponent vectors."""
        self._check(other)
        return TropMonomial._new(self.vars, tuple(map(min, self.exps, other.exps)))

    def _check(self, other):
        if self.vars != other.vars:
            raise VariableSetMismatch("tropical variable sets differ")

    def __eq__(self, other):
        return (isinstance(other, TropMonomial)
                and self.vars == other.vars and self.exps == other.exps)

    def __hash__(self):
        return hash((self.vars, self.exps))

    def to_posrat(self, target_vars=None):
        tv = tuple(target_vars) if target_vars is not None else self.vars
        e = [0] * len(tv)
        for v, x in zip(self.vars, self.exps):
            if x:
                e[tv.index(v)] += x
        return PosRatFunc._new(tv, tuple(e), {})

    def to_text(self):
        return LaurentPoly.monomial(self.vars, self.exps).to_text()

    def __repr__(self):
        return f"TropMonomial({self.to_text()})"


def bracket(p):
    """The two parts (p / (p (+) 1), 1 / (p (+) 1)) of a semifield element,
    from one semifield sum; their quotient is p.  For a tropical monomial
    they are the coprime nonnegative parts ([p]+, [p]-)."""
    minus = p.add(p.one(p.vars)).inv()
    return p.mul(minus), minus


def tropicalize_poly(poly, trop_vars=None):
    """Tropical sum over the terms of a positive polynomial: its minimum
    exponent vector, projected to ``trop_vars``.  Evaluating a polynomial
    P at tropical monomials m_i is ``tropicalize_poly`` of P with each
    variable substituted by the exponents of its m_i."""
    if poly.is_zero() or not poly.all_coefs_positive():
        raise ValueError("tropicalization needs a positive polynomial")
    tv = tuple(trop_vars) if trop_vars is not None else poly.vars
    mins = poly.min_exponents()
    return TropMonomial(tv, [mins[poly.vars.index(v)] for v in tv])


def tropicalize(f, trop_vars=None):
    """Image of a subtraction-free rational function in the tropical
    semifield, evaluated on the factored form (a semifield morphism, so the
    result is representation independent)."""
    tv = tuple(trop_vars) if trop_vars is not None else f.vars
    idx = [f.vars.index(v) for v in tv]
    exps = [f.unit[i] for i in idx]
    for p, k in f.factors.items():
        m = tropicalize_poly(p, tv)
        for j, x in enumerate(m.exps):
            exps[j] += x * k
    return TropMonomial(tv, exps)
