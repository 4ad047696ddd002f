"""Exact multivariate Laurent-polynomial and factored rational-function arithmetic.

Everything is exact: coefficients are arbitrary-precision integers, exponents
are machine integers, and all comparisons are symbolic.  Values are immutable
after construction and safe to share between threads.

Two layers:

* ``LaurentPoly`` — a Laurent polynomial as a map from exponent vectors to
  nonzero integer coefficients, over an explicit ordered variable set.
* ``PosRatFunc`` — a subtraction-free rational function kept in factored
  positive form: a unit monomial (coefficient +1) times a product of integer
  powers of canonical positive polynomials.  Mutation dynamics only ever
  multiply/divide by known factors, so cancellation is exponent arithmetic on
  the factor dictionary plus trial exact division, skipped when the keys'
  integer values at (1, ..., 1) do not divide; no general multivariate GCD
  is needed.  Equality cancels shared factors first, then compares the
  expanded numerator and denominator of the residual quotient.

A product with a one-term side is a shift and a scaling of the other
side's terms, and a sum of monomials (``prf_sum`` over parts with no
factors) adds their coefficients without a common denominator.

Exact division (``poly_exact_div``) keys terms by the negated ``(total
degree,) + exponents``: plain tuple order on such keys is reversed
graded-lex, and since degree is linear in the exponents the keys still add
componentwise.

Rationals enter only at base points (``substitute_values``), as integer
(num, den) pairs, and leave as an integer polynomial over a positive int.

The t -> 0 limit (``limit_t_zero``), the degree (``degree_of``) and the
exponent bounds (``PosRatFunc.exponent_bounds``) of a rational function are
read factor by factor, never from the expansion: each is the unit's part
plus, for every factor p with exponent e, e times p's own value.  This is
exact, because by Ostrowski's theorem the Newton polytope of a product of
nonzero Laurent polynomials over Z is the Minkowski sum of the factors'
polytopes (with positive coefficients, simply because no two terms of a
product cancel).  So componentwise minimum and maximum exponents add; the
terms of a product at its minimal exponents in some variables are the
products of the factors' terms at theirs; a product is a single term, or
homogeneous for a grading, exactly when every factor is.  The factored
reads therefore return what the expanded ones would, and fail exactly when
they would, for every factor a nonzero polynomial with positive
coefficients, canonical or not; they skip the products ``expand`` spends.

The public constructors ``LaurentPoly(vars, terms)`` and
``PosRatFunc(vars, unit, factors)`` validate what callers hand them: zero
coefficients and exponents are dropped, exponent vectors must match the
variable set, factors must share it, and factors equal to one are dropped.
``LaurentPoly._new`` and ``PosRatFunc._new`` are trusted: they set the slots
without checks, on values their caller has built clean.  Three modules call
them (``tests/test_hygiene.py`` holds the list): this one, on the results of
its own arithmetic and the ones and monomials it starts from, dropping zero
sums and exponents and factors equal to one as they arise; ``semifields``,
whose ``TropMonomial.to_posrat`` is a monomial; and ``degeneration``, whose
``_restrict`` drops only slots that are zero in every term.  Here,
``from_poly`` and the end of ``prf_sum`` take their key from
``_canonical_factor``, which refuses a zero, nonpositive or contentful
polynomial, and returns one whose minimal exponent is already 0 as its own
key; they leave out a key equal to one and a zeroth power, and ``prf_sum``
merges the sum's key into the denominator's factors, none equal to one,
dropping an exponent that sums to zero.  The sum of monomials in
``prf_sum`` is its own key when its content is 1: its coefficients are
sums of positive multiplicities and its minimal exponent is 0.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd
from operator import add, sub


class ExactAlgebraError(Exception):
    """Base class for arithmetic failures in this module."""


class VariableSetMismatch(ExactAlgebraError):
    pass


class InexactDivision(ExactAlgebraError):
    pass


class InhomogeneousError(ExactAlgebraError):
    pass


class LimitError(ExactAlgebraError):
    pass


class PositivityError(ExactAlgebraError):
    pass


#: Most term products one ``LaurentPoly`` product may take: the product of
#: the two factors' term counts.  The largest product any check, gate or
#: benchmark case needs is about a quarter of this.
TERM_BUDGET = 10 ** 6


class TermBudgetExceeded(Exception):
    """A product would take more than ``TERM_BUDGET`` term products.

    Not an ``ExactAlgebraError``: the arithmetic is not wrong, the work is
    too large to finish, and a caller that reports an arithmetic failure
    as a failed check must not take it for one."""


def graded_lex_key(exps):
    """Sort key realizing the global graded-lexicographic term order."""
    return (sum(exps), exps)


def _check_same_vars(a, b):
    if a.vars != b.vars:
        raise VariableSetMismatch(f"variable sets differ: {a.vars} vs {b.vars}")


class LaurentPoly:
    """Immutable Laurent polynomial with integer coefficients.

    ``terms`` maps exponent tuples (one slot per variable in ``vars``) to
    nonzero integers.  The zero polynomial has an empty term map.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars, terms):
        self.vars = tuple(vars)
        nv = len(self.vars)
        clean = {}
        for e, c in terms.items():
            if c:
                e = tuple(e)
                if len(e) != nv:
                    raise ExactAlgebraError(
                        f"exponent vector {e} has wrong length for {self.vars}")
                clean[e] = c
        self.terms = clean
        self._hash = None

    @classmethod
    def _new(cls, vars, terms):
        """Trusted constructor: ``vars`` is a tuple and ``terms`` already
        has nonzero coefficients and exponent tuples of the right length."""
        self = object.__new__(cls)
        self.vars = vars
        self.terms = terms
        self._hash = None
        return self

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def one(cls, vars):
        return cls._new(tuple(vars), {(0,) * len(vars): 1})

    @classmethod
    def monomial(cls, vars, exps):
        return cls._new(tuple(vars), {tuple(exps): 1})

    # -- basic queries -------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_one(self):
        if len(self.terms) != 1:
            return False
        ((e, c),) = self.terms.items()
        return c == 1 and not any(e)

    def is_monomial(self):
        return len(self.terms) == 1

    def monomial_parts(self):
        """Return (exps, coef) for a single-term polynomial."""
        if len(self.terms) != 1:
            raise ExactAlgebraError("not a monomial")
        ((e, c),) = self.terms.items()
        return e, c

    def num_terms(self):
        return len(self.terms)

    def constant_coef(self):
        return self.terms.get(tuple([0] * len(self.vars)), 0)

    def all_coefs_positive(self):
        return not self.terms or min(self.terms.values()) > 0

    def integer_content(self):
        return gcd(*self.terms.values())

    def min_exponents(self):
        """Componentwise minimum exponent vector (the monomial content)."""
        if not self.terms:
            raise ExactAlgebraError("zero polynomial has no monomial content")
        return tuple(map(min, zip(*self.terms)))

    def max_exponents(self):
        """Componentwise maximum exponent vector."""
        if not self.terms:
            raise ExactAlgebraError("zero polynomial has no exponents")
        return tuple(map(max, zip(*self.terms)))

    def sorted_terms(self):
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda t: graded_lex_key(t[0]),
                      reverse=True)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        _check_same_vars(self, other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return LaurentPoly._new(self.vars, terms)

    def __mul__(self, other):
        """Product, under ``TERM_BUDGET``.  When one side has one term the
        product shifts and scales the other side's terms, and a side equal
        to one returns the other operand itself."""
        _check_same_vars(self, other)
        na, nb = len(self.terms), len(other.terms)
        if na * nb > TERM_BUDGET:
            raise TermBudgetExceeded(
                f"a product of {na} by {nb} terms "
                f"is over the budget of {TERM_BUDGET} term products")
        if na == 1 or nb == 1:
            one, rest = (self, other) if na == 1 else (other, self)
            ((m, c),) = one.terms.items()
            if c == 1 and not any(m):
                return rest
            # a shift is injective, so no two terms merge
            return LaurentPoly._new(self.vars, {tuple(map(add, e, m)): c * v
                                                for e, v in rest.terms.items()})
        terms = {}
        get = terms.get
        items2 = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in items2:
                e = tuple(map(add, e1, e2))
                s = get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return LaurentPoly._new(self.vars, terms)

    def scale(self, c):
        if not c:
            return LaurentPoly.zero(self.vars)
        return LaurentPoly._new(self.vars,
                                {e: c * v for e, v in self.terms.items()})

    def power(self, k):
        """``self ** k`` for k >= 0 by repeated squaring, starting from the
        lowest set bit of k, so no product is by one."""
        if k < 0:
            raise ExactAlgebraError("negative power of a polynomial")
        if not k:
            return LaurentPoly._new(self.vars, {(0,) * len(self.vars): 1})
        b = self
        while not k & 1:
            b = b * b
            k >>= 1
        r = b
        k >>= 1
        while k:
            b = b * b
            if k & 1:
                r = r * b
            k >>= 1
        return r

    # -- substitution ----------------------------------------------------
    def substitute_monomials(self, images, target_vars=None):
        """Replace each variable by a monomial.

        ``images`` maps a variable name to an exponent vector over
        ``target_vars`` (default: same variable set); an image of another
        length raises ``VariableSetMismatch``.  Variables absent from
        ``images`` must exist in the target set and map to themselves.
        """
        tv = tuple(target_vars) if target_vars is not None else self.vars
        cols = []
        for i, v in enumerate(self.vars):
            if v in images:
                col = tuple(images[v])
                if len(col) != len(tv):
                    raise VariableSetMismatch(
                        f"image of {v} has {len(col)} slots for {tv}")
                cols.append(col)
            else:
                e = [0] * len(tv)
                e[tv.index(v)] = 1
                cols.append(tuple(e))
        terms = {}
        for e, c in self.terms.items():
            out = [0] * len(tv)
            for i, x in enumerate(e):
                if x:
                    col = cols[i]
                    for j, y in enumerate(col):
                        out[j] += x * y
            key = tuple(out)
            s = terms.get(key, 0) + c
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return LaurentPoly._new(tv, terms)

    # -- equality / hashing ----------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, LaurentPoly)
                and self.vars == other.vars and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, frozenset(self.terms.items())))
        return self._hash

    # -- text form ---------------------------------------------------------
    def to_text(self):
        """Canonical text serialization: descending graded-lex term order,
        ``coef*var^exp`` with ``*`` separators."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for v, x in zip(self.vars, e):
                if x == 1:
                    factors.append(v)
                elif x:
                    factors.append(f"{v}^{x}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"LaurentPoly({self.to_text()})"


def poly_exact_div(a, b):
    """Exact division in the integer Laurent ring; fails loudly otherwise.

    Both operands are shifted into the ordinary polynomial ring and divided by
    leading terms (graded-lex) over the integers.  The leading monomial of the
    remainder strictly decreases, so each step fixes one quotient coefficient
    for good: the division fails as soon as a leading monomial is not divisible
    or a quotient coefficient is not an integer.

    Terms of the remainder and the divisor are keyed by the negated
    ``(total degree,) + exponents``.  Tuples compare lexicographically, so
    the smallest such key is the graded-lex leading term, and a heap of the
    remainder's keys hands the leading terms out in turn, skipping a key
    popped after its term cancelled: about n log n comparisons for n terms,
    where a scan for the least key would take n^2.  Degree is linear in the
    exponents, so keys still add and subtract componentwise, and a leading
    term divides another exactly when no slot of their difference is
    positive.  The order only steers the steps: when b divides a, the
    quotient is the one q with a = q * b, and the division by any monomial
    order finds it, because the leading term of q * b is the product of the
    leading terms of q and b.
    """
    _check_same_vars(a, b)
    if b.is_zero():
        raise InexactDivision("division by zero polynomial")
    if a.is_zero():
        return LaurentPoly.zero(a.vars)
    ma = a.min_exponents()
    mb = b.min_exponents()
    rem = {}
    for e, c in a.terms.items():
        e = tuple(map(sub, ma, e))
        rem[(sum(e),) + e] = c
    bp = {}
    for e, c in b.terms.items():
        e = tuple(map(sub, mb, e))
        bp[(sum(e),) + e] = c
    lead_b = min(bp)
    cb = bp[lead_b]
    shift = tuple(map(sub, ma, mb))
    quot = {}
    get = rem.get
    heap = list(rem)
    heapify(heap)
    while rem:
        lead_r = heappop(heap)
        if lead_r not in rem:
            continue
        diff = tuple(map(sub, lead_r, lead_b))
        if max(diff) > 0:
            raise InexactDivision("leading term not divisible")
        q, r = divmod(rem[lead_r], cb)
        if r:
            raise InexactDivision("quotient has non-integer coefficient")
        quot[tuple(map(sub, shift, diff[1:]))] = q
        for e, c in bp.items():
            key = tuple(map(add, e, diff))
            old = get(key)
            s = (old or 0) - q * c
            if s:
                rem[key] = s
                if old is None:
                    heappush(heap, key)
            elif old is not None:
                del rem[key]
    return LaurentPoly._new(a.vars, quot)


def _canonical_factor(poly):
    """Split a positive polynomial into (unit exponent shift, canonical key).

    The key has componentwise-minimal exponent 0 and integer content 1; fails
    loudly when the integer content is not 1 (the factored representation has
    nowhere to put a constant).  A polynomial whose minimal exponent is
    already 0 is its own key, so its terms are rebuilt only for a nonzero
    shift.
    """
    if poly.is_zero():
        raise PositivityError("zero cannot be a factor")
    if not poly.all_coefs_positive():
        raise PositivityError(f"factor has nonpositive coefficient: {poly.to_text()}")
    shift = poly.min_exponents()
    if poly.integer_content() != 1:
        raise PositivityError(
            f"factor has integer content != 1: {poly.to_text()}")
    if not any(shift):
        return shift, poly
    key = LaurentPoly._new(
        poly.vars, {tuple(map(sub, e, shift)): c for e, c in poly.terms.items()})
    return shift, key


class PosRatFunc:
    """Subtraction-free rational function in factored positive form.

    ``unit`` is the exponent vector of a monomial with coefficient +1;
    ``factors`` maps canonical positive polynomials (content 1, minimal
    exponent 0, coefficients > 0) to nonzero integer exponents.
    """

    __slots__ = ("vars", "unit", "factors", "_hash")

    def __init__(self, vars, unit, factors):
        self.vars = tuple(vars)
        self.unit = tuple(unit)
        self._hash = None
        clean = {}
        for p, e in factors.items():
            if e:
                if p.vars != self.vars:
                    raise VariableSetMismatch("factor over a different variable set")
                if p.is_one():
                    continue
                clean[p] = e
        self.factors = clean

    @classmethod
    def _new(cls, vars, unit, factors):
        """Trusted constructor: ``vars`` and ``unit`` are tuples, and
        ``factors`` maps polynomials over ``vars``, none equal to one, to
        nonzero exponents."""
        self = object.__new__(cls)
        self.vars = vars
        self.unit = unit
        self.factors = factors
        self._hash = None
        return self

    # -- constructors ---------------------------------------------------
    @classmethod
    def one(cls, vars):
        return cls._new(tuple(vars), (0,) * len(vars), {})

    @classmethod
    def monomial(cls, vars, exps):
        return cls._new(tuple(vars), tuple(exps), {})

    @classmethod
    def variable(cls, vars, name):
        vars = tuple(vars)
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return cls(vars, e, {})

    @classmethod
    def from_poly(cls, poly, power=1):
        """Positive polynomial, canonicalized, raised to an integer power."""
        shift, key = _canonical_factor(poly)
        unit = tuple(x * power for x in shift)
        if not power or key.is_one():
            return cls._new(poly.vars, unit, {})
        return cls._new(poly.vars, unit, {key: power})

    # -- multiplicative structure ----------------------------------------
    def mul(self, other):
        _check_same_vars(self, other)
        unit = tuple(map(add, self.unit, other.unit))
        factors = dict(self.factors)
        for p, e in other.factors.items():
            s = factors.get(p, 0) + e
            if s:
                factors[p] = s
            else:
                factors.pop(p, None)
        return PosRatFunc._new(self.vars, unit, factors)

    def inv(self):
        return self.power(-1)

    def power(self, k):
        if k == 1:
            return self
        if not k:
            return PosRatFunc.one(self.vars)
        return PosRatFunc._new(self.vars, tuple(x * k for x in self.unit),
                               {p: e * k for p, e in self.factors.items()})

    def add(self, other):
        """Semifield sum: the ordinary sum, through ``prf_sum``."""
        return prf_sum([(1, self), (1, other)])

    # -- expansion --------------------------------------------------------
    def num_den_split(self):
        """Split into ([unit]+ exps, positive factor dict, [unit]- exps,
        negative factor dict with positive exponents).  One pass over the
        unit and one over the factors, whose exponents are never zero."""
        up = []
        un = []
        for x in self.unit:
            if x >= 0:
                up.append(x)
                un.append(0)
            else:
                up.append(0)
                un.append(-x)
        nf = {}
        df = {}
        for p, e in self.factors.items():
            if e > 0:
                nf[p] = e
            else:
                df[p] = -e
        return tuple(up), nf, tuple(un), df

    def expand(self):
        """Return (num, den) positive-coefficient Laurent polynomials with
        num/den == self and nonnegative exponents."""
        up, nf, un, df = self.num_den_split()
        num = LaurentPoly._new(self.vars, {up: 1})
        for p, e in nf.items():
            num = num * p.power(e)
        den = LaurentPoly._new(self.vars, {un: 1})
        for p, e in df.items():
            den = den * p.power(e)
        if not (num.all_coefs_positive() and den.all_coefs_positive()):
            raise PositivityError("expansion lost positivity")
        return num, den

    def exponent_bounds(self):
        """Componentwise minimum and maximum exponents of the numerator and
        the denominator that ``expand`` returns, as ``(num_min, num_max,
        den_min, den_max)``, read from the unit and the factors without
        expanding.  Exponent bounds add under products (see the module
        docstring), so each bound is the unit's part plus, for every factor
        p on that side, |e| times p's own bound; factors need not be
        canonical."""
        up, nf, un, df = self.num_den_split()
        out = []
        for unit, side in ((up, nf), (un, df)):
            lo, hi = list(unit), list(unit)
            for p, e in side.items():
                for i, (a, b) in enumerate(zip(p.min_exponents(),
                                               p.max_exponents())):
                    lo[i] += e * a
                    hi[i] += e * b
            out += [tuple(lo), tuple(hi)]
        return tuple(out)

    # -- reduction ----------------------------------------------------------
    def reduced(self):
        """Cancel opposite-signed factor keys by trial exact division,
        keeping only subtraction-free quotients.  Either key of a pair may
        be the composite one: a^k / (a*q)^k and (b*q)^k / b^k both rewrite
        to the quotient power.  A pair is skipped when the smaller key's
        value at (1, ..., 1) does not divide the larger one's: keys are
        positive, and a = b*q gives a(1) = b(1)*q(1) with b(1) > 0.  A no-op
        when nothing divides; correctness never depends on this."""
        if not any(e > 0 for e in self.factors.values()) or \
                not any(e < 0 for e in self.factors.values()):
            return self
        unit = list(self.unit)
        fac = dict(self.factors)

        def bump(key, k):
            s = fac.get(key, 0) + k
            if s:
                fac[key] = s
            else:
                fac.pop(key, None)

        changed = True
        while changed:
            changed = False
            for a in [p for p, e in fac.items() if e > 0]:
                for b in [p for p, e in fac.items() if e < 0]:
                    ea, eb = fac.get(a, 0), fac.get(b, 0)
                    if ea <= 0 or eb >= 0:
                        continue
                    big, small = (a, b) if a.num_terms() >= b.num_terms() \
                        else (b, a)
                    if sum(big.terms.values()) % sum(small.terms.values()):
                        continue
                    try:
                        q = poly_exact_div(big, small)
                    except InexactDivision:
                        continue
                    if not q.all_coefs_positive():
                        continue
                    k = min(ea, -eb)
                    # a^k * b^-k is q^k when a is composite, q^-k when b is
                    bump(a, -k)
                    bump(b, k)
                    kq = k if big is a else -k
                    shift, key = _canonical_factor(q)
                    for i, x in enumerate(shift):
                        unit[i] += x * kq
                    if not key.is_one():
                        bump(key, kq)
                    changed = True
        return PosRatFunc._new(self.vars, tuple(unit), fac)

    # -- substitution ---------------------------------------------------------
    def to_posrat(self, target_vars):
        """The same function on ``target_vars``, a superset of its own."""
        return self.substitute_monomials({}, target_vars)

    def substitute_monomials(self, images, target_vars=None):
        """Replace variables by monomials (exponent vectors), exactly."""
        tv = tuple(target_vars) if target_vars is not None else self.vars
        unit_poly = LaurentPoly.monomial(self.vars, self.unit).substitute_monomials(
            images, tv)
        e, _ = unit_poly.monomial_parts()
        out = PosRatFunc.monomial(tv, e)
        for p, k in self.factors.items():
            out = out.mul(PosRatFunc.from_poly(p.substitute_monomials(images, tv), k))
        return out

    def evaluate(self, subst, memo=None):
        """Compose with a map sending each variable to a PosRatFunc.

        Variables absent from ``subst`` map to themselves over the target
        variable set (taken from any image).

        ``memo``, when given, is a dict from factor polynomial to its value
        under ``subst``; it is read and filled here, so callers composing a
        tuple of functions with one ``subst`` pass one dict for the whole
        tuple and compute each shared factor once.  It is keyed on the
        factor alone, so it must live no longer than that one ``subst``.
        """
        if not subst:
            return self
        any_img = next(iter(subst.values()))
        tv = any_img.vars
        zero = (0,) * len(tv)
        images = {}
        for v in self.vars:
            img = subst.get(v)
            if img is None:
                e = list(zero)
                e[tv.index(v)] = 1
                img = PosRatFunc._new(tv, tuple(e), {})
            images[v] = img
        out = PosRatFunc._new(tv, zero, {})
        for v, x in zip(self.vars, self.unit):
            if x:
                out = out.mul(images[v].power(x))
        memo = {} if memo is None else memo
        for p, k in self.factors.items():
            if p not in memo:
                memo[p] = _evaluate_positive_poly(p, images, tv)
            out = out.mul(memo[p].power(k))
        return out.reduced()

    # -- misc -------------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, PosRatFunc) and self.vars == other.vars
                and self.unit == other.unit and self.factors == other.factors)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, self.unit,
                               frozenset(self.factors.items())))
        return self._hash

    def to_text(self):
        return ratio_text(*self.expand())

    def __repr__(self):
        return f"PosRatFunc({self.to_text()})"


def ratio_text(num, den):
    """``num / den`` as text: the numerator alone over a denominator of one;
    otherwise a numerator of several terms is parenthesized, and so is a
    denominator of several terms or with a ``*``."""
    nt = num.to_text()
    if den.is_one():
        return nt
    dt = den.to_text()
    if num.num_terms() > 1:
        nt = f"({nt})"
    if den.num_terms() > 1 or "*" in dt:
        dt = f"({dt})"
    return f"{nt} / {dt}"


def _evaluate_positive_poly(poly, images, target_vars):
    """Evaluate a positive polynomial at PosRatFunc arguments, exactly."""
    parts = []
    one = PosRatFunc._new(target_vars, (0,) * len(target_vars), {})
    for e, c in poly.sorted_terms():
        m = one
        for v, x in zip(poly.vars, e):
            if x:
                m = m.mul(images[v].power(x))
        parts.append((c, m))
    return prf_sum(parts)


def prf_sum(parts):
    """Sum of positive-integer multiples of PosRatFuncs, as a PosRatFunc.

    Expands each part over the least common factored denominator, adds the
    positive numerator polynomials, and divides the denominator back out.
    When no part has factors the parts are monomials: their units, shifted
    by the componentwise minimum, key the coefficients of one polynomial,
    with no common denominator and nothing for ``reduced`` to cancel; its
    coefficients are positive and its minimal exponent 0 by construction,
    so only its content is checked.  Parts over different variable sets
    raise ``VariableSetMismatch``.
    """
    parts = [(c, f) for c, f in parts if c]
    if not parts:
        raise PositivityError("empty sum is zero, not representable")
    if any(c < 0 for c, _ in parts):
        raise PositivityError("negative multiplicity in subtraction-free sum")
    first = parts[0][1]
    for _, f in parts:
        _check_same_vars(first, f)
    vars = first.vars
    if not any(f.factors for _, f in parts):
        low = tuple(map(min, zip(*(f.unit for _, f in parts))))
        terms = {}
        for c, f in parts:
            e = tuple(map(sub, f.unit, low))
            terms[e] = terms.get(e, 0) + c
        key = LaurentPoly._new(vars, terms)
        if key.integer_content() != 1:
            # name the numerator the factored route names: the sum over
            # the least common denominator, the monomial x^[-low]+
            up = tuple(max(x, 0) for x in low)
            num = LaurentPoly._new(vars, {tuple(map(add, e, up)): c
                                          for e, c in terms.items()})
            raise PositivityError(
                f"factor has integer content != 1: {num.to_text()}")
        return PosRatFunc._new(vars, low, {} if key.is_one() else {key: 1})
    splits = [f.num_den_split() for _, f in parts]
    # least common denominator over factored forms
    den_unit = [0] * len(vars)
    den_factors = {}
    for up, nf, un, df in splits:
        for i, x in enumerate(un):
            den_unit[i] = max(den_unit[i], x)
        for p, e in df.items():
            den_factors[p] = max(den_factors.get(p, 0), e)
    total = LaurentPoly._new(vars, {})
    for (c, f), (up, nf, un, df) in zip(parts, splits):
        piece = LaurentPoly._new(
            vars, {tuple(a + b - x for a, b, x in zip(up, den_unit, un)): c})
        for p, e in nf.items():
            piece = piece * p.power(e)
        for p, e in den_factors.items():
            extra = e - df.get(p, 0)
            if extra:
                piece = piece * p.power(extra)
        total = total + piece
    # total / den, the sum's key first: reduced() tries pairs in key order
    shift, key = _canonical_factor(total)
    factors = {} if key.is_one() else {key: 1}
    for p, e in den_factors.items():
        s = factors.get(p, 0) - e
        if s:
            factors[p] = s
        else:
            del factors[p]
    return PosRatFunc._new(vars, tuple(map(sub, shift, den_unit)),
                           factors).reduced()


def rat_equal(f, g):
    """Exact equality of rational functions, decided from the quotient.

    Equal factored forms, the same unit and the same factor dict, are equal
    at once: their quotient is the unit with no factors, which the route
    below would expand to 1 over 1.  Otherwise factor keys shared by ``f``
    and ``g`` cancel in ``f * g^-1`` as exponent arithmetic (a key cancels
    only against a literally equal canonical polynomial); only the residual
    is expanded, and it is 1 exactly when its expanded numerator equals its
    expanded denominator.
    """
    _check_same_vars(f, g)
    if f.unit == g.unit and f.factors == g.factors:
        return True
    num, den = f.mul(g.inv()).expand()
    return num == den


class Grading:
    """Integer multi-degree assignment on variables.

    ``degrees`` maps each variable name to a vector in Z^n; the degree of a
    term is the exponent-weighted sum.
    """

    def __init__(self, degrees):
        self.degrees = {v: tuple(d) for v, d in degrees.items()}
        ranks = {len(d) for d in self.degrees.values()}
        if len(ranks) > 1:
            raise ExactAlgebraError("inconsistent grading ranks")
        self.rank = ranks.pop() if ranks else 0

    def term_degree(self, vars, exps):
        out = [0] * self.rank
        for v, x in zip(vars, exps):
            if x:
                d = self.degrees.get(v)
                if d is None:
                    raise ExactAlgebraError(f"variable {v} has no degree assigned")
                for i, y in enumerate(d):
                    out[i] += x * y
        return tuple(out)

    def poly_degree(self, poly):
        """Degree of a homogeneous polynomial; error when inhomogeneous."""
        if poly.is_zero():
            raise InhomogeneousError("zero polynomial has no degree")
        degs = {self.term_degree(poly.vars, e) for e in poly.terms}
        if len(degs) != 1:
            raise InhomogeneousError(
                f"inhomogeneous polynomial: degrees {sorted(degs)}")
        return degs.pop()


def degree_of(f, grading):
    """Degree of a homogeneous rational function, deg(num) - deg(den) of
    its expansion, read per factor: the unit's degree plus, for every
    factor p with exponent e, e times ``poly_degree(p)``.

    A product of nonzero polynomials is homogeneous exactly when every
    factor is, and its degree is then the sum (the module docstring's
    Newton-polytope argument, with the grading as the linear map).  So
    this returns the expansion's degree, and raises ``InhomogeneousError``
    exactly when the expanded numerator or denominator is inhomogeneous,
    for a grading that gives every variable a degree.
    """
    out = list(grading.term_degree(f.vars, f.unit))
    for p, e in f.factors.items():
        for i, y in enumerate(grading.poly_degree(p)):
            out[i] += e * y
    return tuple(out)


def _t_initial_term(p, t_idx):
    """The one term (exps, coef) of p at its componentwise minimal
    exponents in the slots ``t_idx``; ``LimitError`` when no term or more
    than one term sits there."""
    if not p.terms:
        raise LimitError("zero factor")
    mins = [min(e[i] for e in p.terms) for i in t_idx]
    hits = [(e, c) for e, c in p.terms.items()
            if all(e[i] == m for i, m in zip(t_idx, mins))]
    if not hits:
        raise LimitError(f"factor {p.to_text()} vanishes at t=0 after "
                         f"content removal")
    if len(hits) > 1:
        raise LimitError(f"limit not a monomial: factor {p.to_text()} keeps "
                         f"{len(hits)} terms at t=0")
    return hits[0]


def limit_t_zero(f, t_vars):
    """Limit of f as the listed variables go to zero, by content factoring.

    Of the expanded numerator and denominator, take the terms at the
    componentwise minimal exponents in the t-variables: each must be a
    single term, and the limit is their ratio (possibly with residual
    t-exponents from the content ratio, which callers may reject).  Fails
    loudly when either side has no such term (it vanishes at t = 0 after
    content removal), more than one (the limit is not a monomial), or the
    ratio has a non-integer coefficient.

    Read per factor, without expanding: the result's exponent vector is
    the unit plus, for every factor p with exponent e, e times the
    exponent vector of p's one term at its minimal t-exponents, whose
    coefficient goes into the numerator (e > 0) or the denominator
    (e < 0).  This is exact: for nonzero polynomials the minimal
    t-exponents of a product are the sums of the factors' minima, a term
    of the product sits at them exactly when each factor's term does, and
    a product is a single term exactly when every factor is (the module
    docstring's Newton-polytope argument).  So this returns the expanded
    read's monomial, and raises ``LimitError`` exactly when it does.
    """
    t_idx = [f.vars.index(v) for v in t_vars]
    exps = list(f.unit)
    an = ad = 1
    for p, e in f.factors.items():
        x, c = _t_initial_term(p, t_idx)
        for i, y in enumerate(x):
            exps[i] += e * y
        if e > 0:
            an *= c ** e
        else:
            ad *= c ** -e
    if an % ad:
        raise LimitError("limit has non-integer coefficient")
    return LaurentPoly._new(f.vars, {tuple(exps): an // ad})


def substitute_values(poly, assignment, scales=None):
    """Evaluate some variables of an integer polynomial at rational values,
    optionally also scaling other variables by rational constants (the
    variable stays, its coefficient picks up scale**exponent); a value is
    an integer pair (numerator, positive denominator), not always reduced.

    Returns ``(numerator, denominator)``: an integer polynomial over the
    same variable set (substituted slots pinned to exponent zero) and a
    positive int, in lowest terms: the numerator's coefficients share no
    factor with the denominator, which ``degenerate`` prints.

    The arithmetic is in integers.  Each slot's exponents are read once,
    and an assigned or scaled slot whose exponents are all zero is skipped:
    its value enters every term as (a/b)^0 = 1, and the slot is already at
    exponent zero.  When every slot is skipped, the polynomial itself comes
    back over 1.  For every other value a/b, with hi and lo the largest
    positive and negative exponents of its variable, d = b^hi * |a|^lo
    makes every (a/b)^x * d an integer.  Terms are summed as integers over
    the product of these d, and the sums and that product are divided by
    their gcd at the end.
    """
    scales = scales or {}
    terms = poly.terms
    columns = list(zip(*terms)) or [()] * len(poly.vars)  # exponents by slot
    values = ([(i, assignment[v], True) for i, v in enumerate(poly.vars)
               if v in assignment]
              + [(i, scales[v], False) for i, v in enumerate(poly.vars)
                 if v in scales])
    pinned = []
    powers = []   # (slot i, {exponent x: (a/b)^x * d})
    denom = 1
    for i, q, pin in values:
        xs = set(columns[i])
        if not any(xs):
            continue
        if pin:
            pinned.append(i)
        hi, lo = max(max(xs), 0), max(-min(xs), 0)
        a, b = q
        d = b ** hi * abs(a) ** lo
        denom *= d
        # exact floor divisions: b^x and a^-x divide d
        powers.append((i, {x: a ** x * d // b ** x if x >= 0
                           else b ** -x * d // a ** -x for x in xs}))
    if not powers:
        return poly, 1
    sums = {}
    for e, c in terms.items():
        for i, mult in powers:
            c *= mult[e[i]]
        if pinned:
            key = list(e)
            for i in pinned:
                key[i] = 0
            e = tuple(key)
        sums[e] = sums.get(e, 0) + c
    g = gcd(denom, *sums.values())
    # terms at a signed point can cancel
    return (LaurentPoly._new(poly.vars, {e: c // g for e, c in sums.items()
                                         if c}), denom // g)
