"""Tropical semifield of monomials and the tropicalization morphism."""

from hypothesis import assume, given, settings, strategies as st

from cluster_forge.exact_algebra import LaurentPoly, PosRatFunc, prf_add
from cluster_forge.semifields import (
    TropMonomial,
    bracket,
    trop_add,
    tropicalize,
    tropicalize_poly,
)

P = ("p1", "p2")


def test_trop_add_componentwise_min():
    a = TropMonomial(P, (1, -2))
    b = TropMonomial(P, (0, 3))
    assert trop_add(a, b) == TropMonomial(P, (0, -2))
    one = TropMonomial.one(P)
    # p1 (+) 1 == 1 and p1^-1 (+) 1 == p1^-1
    assert trop_add(TropMonomial(P, (1, 0)), one) == one
    assert trop_add(TropMonomial(P, (-1, 0)), one) == TropMonomial(P, (-1, 0))


def test_plus_minus_split():
    p = TropMonomial(P, (2, -3))
    plus, minus = bracket(p, 1), bracket(p, -1)
    assert plus == TropMonomial(P, (2, 0))
    assert minus == TropMonomial(P, (0, 3))
    assert plus.mul(minus.inv()) == p


def test_bracket_selects_by_sign():
    p = TropMonomial(P, (2, -3))
    assert bracket(p, 5) == TropMonomial(P, (2, 0))
    assert bracket(p, -1) == TropMonomial(P, (0, 3))


def test_tropicalize_poly_takes_min_exponents():
    poly = LaurentPoly(P, {(0, 0): 1, (1, 0): 1, (1, 1): 1})
    assert tropicalize_poly(poly) == TropMonomial.one(P)
    poly2 = LaurentPoly(P, {(1, -1): 1, (2, 0): 3})
    assert tropicalize_poly(poly2) == TropMonomial(P, (1, -1))


def test_tropicalize_rational_function():
    # (p1*p2 + p1 + 1)/p2 tropicalizes to p2^-1
    num = LaurentPoly(P, {(1, 1): 1, (1, 0): 1, (0, 0): 1})
    f = PosRatFunc.from_poly(num).mul(PosRatFunc.variable(P, "p2").inv())
    assert tropicalize(f) == TropMonomial(P, (0, -1))


def test_tropicalize_onto_subset_of_variables():
    YP = ("y1", "p1")
    f = PosRatFunc.from_poly(LaurentPoly(YP, {(1, 1): 1, (0, 0): 1}))
    assert tropicalize(f, ("p1",)) == TropMonomial(("p1",), (0,))


def trop_monomials():
    return st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda e: TropMonomial(P, e))


@settings(max_examples=50, deadline=None)
@given(trop_monomials(), trop_monomials(), trop_monomials())
def test_semifield_axioms(a, b, c):
    assert trop_add(a, b) == trop_add(b, a)
    assert trop_add(trop_add(a, b), c) == trop_add(a, trop_add(b, c))
    # multiplication distributes over semifield addition
    assert a.mul(trop_add(b, c)) == trop_add(a.mul(b), a.mul(c))


def positive_polys():
    exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))

    def build(d):
        p = LaurentPoly(P, d)
        g = p.integer_content()
        if g > 1:
            p = LaurentPoly(P, {e: c // g for e, c in p.terms.items()})
        return p

    return st.dictionaries(exps, st.integers(1, 3), min_size=1, max_size=4).map(
        build)


@settings(max_examples=50, deadline=None)
@given(positive_polys(), positive_polys())
def test_tropicalize_is_a_morphism(a, b):
    fa = PosRatFunc.from_poly(a)
    fb = PosRatFunc.from_poly(b)
    # multiplicative on products and quotients
    assert tropicalize(fa.mul(fb)) == tropicalize(fa).mul(tropicalize(fb))
    assert tropicalize(fa.inv()) == tropicalize(fa).inv()
    # additive: trop(f + g) == trop(f) (+) trop(g)
    assume((a + b).integer_content() == 1)
    assert tropicalize(prf_add(fa, fb)) == trop_add(tropicalize(fa),
                                                    tropicalize(fb))
    # representation independence: factored vs expanded
    num, den = fa.mul(fb.inv()).expand()
    expanded = tropicalize_poly(num).mul(tropicalize_poly(den).inv())
    assert tropicalize(fa.mul(fb.inv())) == expanded


def trop_evaluate(poly, args):
    """Tropical evaluation as ``separation_check`` computes it: P at the
    tropical monomials ``args``, one per variable of P."""
    images = {v: a.exps for v, a in zip(poly.vars, args)}
    return tropicalize_poly(poly.substitute_monomials(images, args[0].vars))


Q = ("q1", "q2", "q3")


def test_tropical_evaluation_of_fixed_polynomials():
    a = TropMonomial(Q, (1, 0, -2))
    b = TropMonomial(Q, (0, 2, 1))
    # p1^2 + 3*p1*p2^-1 at (a, b): min of (2, 0, -4) and (1, -2, -3)
    poly = LaurentPoly(P, {(2, 0): 1, (1, -1): 3})
    assert trop_evaluate(poly, (a, b)) == TropMonomial(Q, (1, -2, -4))
    assert trop_evaluate(LaurentPoly.one(P), (a, b)) == TropMonomial.one(Q)


@settings(max_examples=50, deadline=None)
@given(positive_polys(), positive_polys(),
       st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=2,
                max_size=2))
def test_tropical_evaluation_sends_sums_to_trop_add_and_products_to_mul(
        a, b, args):
    args = [TropMonomial(Q, e) for e in args]
    ea, eb = trop_evaluate(a, args), trop_evaluate(b, args)
    assert trop_evaluate(a + b, args) == trop_add(ea, eb)
    assert trop_evaluate(a * b, args) == ea.mul(eb)
