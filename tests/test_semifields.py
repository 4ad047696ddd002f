"""Tropical semifield of monomials and the tropicalization morphism."""

from hypothesis import assume, given, settings, strategies as st

from cluster_forge.exact_algebra import LaurentPoly, PosRatFunc, rat_equal
from cluster_forge.semifields import (
    TropMonomial,
    bracket,
    tropicalize,
    tropicalize_poly,
)

P = ("p1", "p2")


def test_trop_add_componentwise_min():
    a = TropMonomial(P, (1, -2))
    b = TropMonomial(P, (0, 3))
    assert a.add(b) == TropMonomial(P, (0, -2))
    one = TropMonomial.one(P)
    # p1 (+) 1 == 1 and p1^-1 (+) 1 == p1^-1
    assert TropMonomial(P, (1, 0)).add(one) == one
    assert TropMonomial(P, (-1, 0)).add(one) == TropMonomial(P, (-1, 0))


def test_plus_minus_split():
    p = TropMonomial(P, (2, -3))
    plus, minus = bracket(p)
    assert plus == TropMonomial(P, (2, 0))
    assert minus == TropMonomial(P, (0, 3))
    assert plus.mul(minus.inv()) == p


def test_bracket_selects_by_sign():
    p = TropMonomial(P, (2, -3))
    assert bracket(p)[0] == TropMonomial(P, (2, 0))
    assert bracket(p)[1] == TropMonomial(P, (0, 3))


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
    assert a.add(b) == b.add(a)
    assert a.add(b).add(c) == a.add(b.add(c))
    # multiplication distributes over semifield addition
    assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))


@settings(max_examples=50, deadline=None)
@given(trop_monomials(), trop_monomials(), st.integers(-3, 3),
       st.permutations(("y1", "y2") + P))
def test_trusted_results_equal_their_validated_copies(a, b, k, target):
    """Tropical arithmetic builds its results without checks: each is what
    the validating constructor makes of it, with tuple exponents of the
    variables' length, and ``to_posrat`` onto a superset of the variables is
    the validated monomial with each exponent in its variable's slot."""
    for m in (a.mul(b), a.inv(), a.power(k), a.add(b), TropMonomial.one(P)):
        assert m == TropMonomial(m.vars, m.exps)
        assert type(m.vars) is tuple and type(m.exps) is tuple
        assert len(m.exps) == len(P)
    f = a.to_posrat(target)
    e = dict(zip(P, a.exps))
    assert f == PosRatFunc(target, [e.get(v, 0) for v in target], {})
    assert type(f.unit) is tuple and f.factors == {}
    assert a.to_posrat() == PosRatFunc(P, a.exps, {})


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
    assert tropicalize(fa.add(fb)) == tropicalize(fa).add(tropicalize(fb))
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
    assert trop_evaluate(a + b, args) == ea.add(eb)
    assert trop_evaluate(a * b, args) == ea.mul(eb)


@settings(max_examples=50, deadline=None)
@given(trop_monomials())
def test_bracket_of_a_tropical_monomial_is_its_sign_split(p):
    plus, minus = bracket(p)
    assert plus.exps == tuple(max(x, 0) for x in p.exps)
    assert minus.exps == tuple(max(-x, 0) for x in p.exps)


@settings(max_examples=40, deadline=None)
@given(positive_polys(), positive_polys())
def test_bracket_of_a_rational_function_is_p_over_p_plus_one(a, b):
    """With p = a / b, the parts are a / (a + b) and b / (a + b), built here
    from the polynomial sum a + b rather than the semifield sum."""
    assume((a + b).integer_content() == 1)
    p = PosRatFunc.from_poly(a).mul(PosRatFunc.from_poly(b).inv())
    plus, minus = bracket(p)
    total = PosRatFunc.from_poly(a + b).inv()
    assert rat_equal(plus, PosRatFunc.from_poly(a).mul(total))
    assert rat_equal(minus, PosRatFunc.from_poly(b).mul(total))
    assert rat_equal(plus.mul(minus.inv()), p)
