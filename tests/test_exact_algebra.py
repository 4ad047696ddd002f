"""Exact arithmetic layer: frozen oracles plus algebraic property tests."""

import math
import pytest
from fractions import Fraction
from hypothesis import assume, example, given, settings, strategies as st

from cluster_forge import exact_algebra
from cluster_forge.exact_algebra import (
    ExactAlgebraError,
    Grading,
    InexactDivision,
    InhomogeneousError,
    LaurentPoly,
    LimitError,
    PosRatFunc,
    PositivityError,
    TermBudgetExceeded,
    VariableSetMismatch,
    degree_of,
    limit_t_zero,
    poly_exact_div,
    prf_sum,
    rat_equal,
    substitute_values,
)

XY = ("x", "y")
XT = ("X1", "X2", "t1", "t2")


def lp(vars, terms):
    return LaurentPoly(vars, terms)


def test_term_budget_is_checked_before_each_product(monkeypatch):
    """A product of 3 by 4 terms takes 12 term products: it runs under a
    budget of 13 (one above it) and of 12, and under a budget of 11 (one
    below it) raises before multiplying.  ``power`` goes through the same
    check."""
    a = lp(XY, {(0, 0): 1, (1, 0): 1, (2, 0): 1})
    b = lp(XY, {(0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1})
    for budget in (13, 12):
        monkeypatch.setattr(exact_algebra, "TERM_BUDGET", budget)
        assert (a * b).num_terms() == 12
    monkeypatch.setattr(exact_algebra, "TERM_BUDGET", 11)
    with pytest.raises(TermBudgetExceeded, match="a product of 3 by 4 terms "
                       "is over the budget of 11 term products"):
        a * b
    assert a.power(2).num_terms() == 5
    with pytest.raises(TermBudgetExceeded, match="3 by 5 terms"):
        a.power(3)
    # a check that reports arithmetic failures must not take it for one
    assert not issubclass(TermBudgetExceeded, ExactAlgebraError)


def test_poly_product_binomials():
    # (t2*X2 + 1) * (t1*X1 + 1)
    a = lp(XT, {(0, 1, 0, 1): 1, (0, 0, 0, 0): 1})
    b = lp(XT, {(1, 0, 1, 0): 1, (0, 0, 0, 0): 1})
    expect = lp(XT, {(1, 1, 1, 1): 1, (1, 0, 1, 0): 1, (0, 1, 0, 1): 1,
                     (0, 0, 0, 0): 1})
    assert a * b == expect


def test_poly_addition_cancels():
    a = lp(XY, {(1, 0): 2, (0, 1): 1})
    b = lp(XY, {(1, 0): -2, (0, 0): 5})
    assert a + b == lp(XY, {(0, 1): 1, (0, 0): 5})


def test_exact_div_square_by_factor():
    one_plus_y = lp(XY, {(0, 0): 1, (0, 1): 1})
    sq = one_plus_y * one_plus_y
    assert poly_exact_div(sq, one_plus_y) == one_plus_y


def test_exact_div_detects_inexact():
    a = lp(XY, {(0, 0): 1, (0, 1): 1, (0, 2): 1})
    b = lp(XY, {(0, 0): 1, (0, 1): 1})
    with pytest.raises(InexactDivision):
        poly_exact_div(a, b)


def test_exact_div_with_laurent_shifts():
    # (x^-1 + y) * (x + y^-1) divided back out, with negative exponents
    a = lp(XY, {(-1, 0): 1, (0, 1): 1})
    b = lp(XY, {(1, 0): 1, (0, -1): 1})
    prod = a * b
    assert poly_exact_div(prod, a) == b
    assert poly_exact_div(prod, b) == a


def test_exact_div_integrality_enforced():
    a = lp(XY, {(1, 0): 1})
    b = lp(XY, {(1, 0): 2})
    with pytest.raises(InexactDivision):
        poly_exact_div(a, b)


@pytest.mark.parametrize("a, b, c", [
    # a*b / (2*b) == a/2: the leading quotient coefficient is an integer, a
    # later one is not
    (lp(XY, {(1, 0): 2, (0, 0): 1}), lp(XY, {(0, 1): 1, (0, 0): 1}), 2),
    (lp(XY, {(2, 0): 4, (1, 1): 2, (0, 0): 3}),
     lp(XY, {(1, 0): 1, (0, 1): 1, (0, 0): 1}), 2),
    (lp(XY, {(0, 2): 6, (1, 0): -3, (-1, 0): 2}),
     lp(XY, {(1, 1): 1, (0, -1): -1}), -3),
    # a monomial divisor divides every leading monomial, so only the
    # integrality of the coefficients can reject it
    (lp(XY, {(1, 0): 2, (0, 1): 4, (0, 0): 1}), lp(XY, {(-1, 1): 1}), 2),
])
def test_exact_div_non_integer_later_quotient_coefficient(a, b, c):
    assert poly_exact_div(a * b, b) == a
    with pytest.raises(InexactDivision):
        poly_exact_div(a * b, b.scale(c))


def test_to_text_deterministic_order():
    p = lp(XY, {(0, 0): 1, (1, 1): 3, (2, 0): 1, (0, 1): -1})
    assert p.to_text() == "x^2 + 3*x*y - y + 1"
    assert lp(XY, {}).to_text() == "0"
    assert lp(XY, {(-1, 2): -1}).to_text() == "-x^-1*y^2"


def test_substitute_monomials_rewrites_exponents():
    # y -> p*y over enlarged variable set
    p = lp(("y",), {(1,): 1, (2,): 3})
    img = p.substitute_monomials({"y": (1, 1)}, ("y", "p"))
    assert img == lp(("y", "p"), {(1, 1): 1, (2, 2): 3})


def test_posrat_constructors_and_canonical_form():
    f = PosRatFunc.from_poly(lp(XY, {(1, 1): 1, (1, 0): 1}))
    # content monomial x is split into the unit
    assert f.unit == (1, 0)
    ((key, e),) = f.factors.items()
    assert e == 1 and key == lp(XY, {(0, 1): 1, (0, 0): 1})


def test_posrat_rejects_nonpositive_and_content():
    with pytest.raises(PositivityError):
        PosRatFunc.from_poly(lp(XY, {(0, 0): 1, (1, 0): -1}))
    with pytest.raises(PositivityError):
        PosRatFunc.from_poly(lp(XY, {(0, 0): 2, (1, 0): 2}))


def test_posrat_mul_inverse_cancels_structurally():
    f = PosRatFunc.from_poly(lp(XY, {(0, 0): 1, (1, 0): 1}))
    g = f.mul(f.inv())
    assert g.unit == (0, 0) and not g.factors


def test_posrat_add_matches_expand():
    one_plus_x = PosRatFunc.from_poly(lp(XY, {(0, 0): 1, (1, 0): 1}))
    y = PosRatFunc.variable(XY, "y")
    s = one_plus_x.inv().add(y)
    # y + 1/(1+x) == (y + xy + 1)/(1+x)
    num, den = s.expand()
    assert num == lp(XY, {(0, 1): 1, (1, 1): 1, (0, 0): 1})
    assert den == lp(XY, {(0, 0): 1, (1, 0): 1})


def test_posrat_add_reduces_common_factor():
    # x/(1+x) + 1/(1+x) == 1
    one_plus_x = PosRatFunc.from_poly(lp(XY, {(0, 0): 1, (1, 0): 1}))
    x = PosRatFunc.variable(XY, "x")
    s = x.mul(one_plus_x.inv()).add(one_plus_x.inv())
    assert rat_equal(s, PosRatFunc.one(XY))
    assert not s.factors and s.unit == (0, 0)


def test_prf_sum_integer_multiplicities():
    x = PosRatFunc.variable(XY, "x")
    s = prf_sum([(2, x), (3, PosRatFunc.one(XY))])
    num, den = s.expand()
    assert den.is_one()
    assert num == lp(XY, {(1, 0): 2, (0, 0): 3})
    with pytest.raises(PositivityError):
        prf_sum([(-1, x)])


def test_posrat_evaluate_composes():
    XV = ("x1", "x2")
    f = PosRatFunc.from_poly(lp(XV, {(0, 0): 1, (0, 1): 1}))  # 1 + x2
    f = f.mul(PosRatFunc.variable(XV, "x1").inv())            # (1+x2)/x1
    sub = {
        "x1": PosRatFunc.variable(XV, "x2"),
        "x2": PosRatFunc.variable(XV, "x1").add(PosRatFunc.one(XV)),
    }
    g = f.evaluate(sub)  # (2 + x1)/x2 -- but 2+x1 has content 1, fine
    num, den = g.expand()
    assert num == lp(XV, {(0, 0): 2, (1, 0): 1})
    assert den == lp(XV, {(0, 1): 1})


def test_rat_equal_cross_multiplies():
    x = PosRatFunc.variable(XY, "x")
    one_plus_x = PosRatFunc.from_poly(lp(XY, {(0, 0): 1, (1, 0): 1}))
    lhs = one_plus_x.mul(x.inv())
    rhs = x.inv().add(PosRatFunc.one(XY))
    assert rat_equal(lhs, rhs)
    assert not rat_equal(lhs, x)


def test_degree_vectors_of_homogeneous_ratios():
    g = Grading({"X1": (1, 0), "X2": (0, 1), "t1": (-1, 0), "t2": (0, -1)})
    # X1*(t2*X2 + 1) is homogeneous of degree (1, 0)
    f = PosRatFunc.variable(XT, "X1").mul(
        PosRatFunc.from_poly(lp(XT, {(0, 1, 0, 1): 1, (0, 0, 0, 0): 1})))
    assert degree_of(f, g) == (1, 0)
    assert degree_of(f.inv(), g) == (-1, 0)
    assert degree_of(PosRatFunc.variable(XT, "X2").inv(), g) == (0, -1)
    bad = PosRatFunc.from_poly(lp(XT, {(1, 0, 0, 0): 1, (0, 0, 0, 0): 1}))
    with pytest.raises(InhomogeneousError):
        degree_of(bad, g)


def test_limit_at_zero_parameters():
    t_vars = ("t1", "t2")
    # (t1*X1 + 1)/(X1*X2) -> 1/(X1*X2)
    f = PosRatFunc.from_poly(lp(XT, {(1, 0, 1, 0): 1, (0, 0, 0, 0): 1}))
    f = f.mul(PosRatFunc.monomial(XT, (-1, -1, 0, 0)))
    assert limit_t_zero(f, t_vars) == LaurentPoly.monomial(XT, (-1, -1, 0, 0))
    # X1*X2/(t1*X1 + 1) -> X1*X2
    g = PosRatFunc.monomial(XT, (1, 1, 0, 0)).mul(
        PosRatFunc.from_poly(lp(XT, {(1, 0, 1, 0): 1, (0, 0, 0, 0): 1})).inv())
    assert limit_t_zero(g, t_vars) == LaurentPoly.monomial(XT, (1, 1, 0, 0))
    # non-monomial limit fails loudly
    h = PosRatFunc.from_poly(lp(XT, {(1, 0, 1, 0): 1, (0, 1, 0, 0): 1,
                                     (0, 0, 0, 0): 1}))
    with pytest.raises(LimitError):
        limit_t_zero(h, t_vars)


def test_limit_keeps_residual_parameter_content():
    t_vars = ("t1", "t2")
    # (t1*X1 + t1^2)/t1^3 -> X1 * t1^-2
    f = PosRatFunc.from_poly(lp(XT, {(1, 0, 1, 0): 1, (0, 0, 2, 0): 1}))
    f = f.mul(PosRatFunc.monomial(XT, (0, 0, -3, 0)))
    assert limit_t_zero(f, t_vars) == LaurentPoly.monomial(XT, (1, 0, -2, 0))


def test_substitute_values_rational_points():
    p = lp(XY, {(1, 1): 1, (0, 1): 1, (0, 0): 1})  # x*y + y + 1
    # (3/2) y + 1 == (3y + 2)/2
    assert substitute_values(p, {"x": (1, 2)}) == (
        lp(XY, {(0, 1): 3, (0, 0): 2}), 2)
    # -2 * (x*y + y + 1) at x = -1/2: (-y - 2) / 1
    assert substitute_values(p.scale(-2), {"x": (-1, 2)}) == (
        lp(XY, {(0, 1): -1, (0, 0): -2}), 1)


def test_public_constructors_validate():
    with pytest.raises(ExactAlgebraError):
        LaurentPoly(XY, {(1, 0, 0): 1})
    p = lp(XY, {(1, 0): 1, (0, 0): 1})
    with pytest.raises(VariableSetMismatch):
        PosRatFunc(XT, (0, 0, 0, 0), {p: 1})
    # zero coefficients, zero exponents and factors equal to one are dropped
    assert LaurentPoly(XY, {(1, 0): 0, (0, 1): 2}).terms == {(0, 1): 2}
    f = PosRatFunc(XY, (0, 0), {p: 0, LaurentPoly.one(XY): 3})
    assert f == PosRatFunc.one(XY) and f.factors == {}


def test_sums_over_different_variable_sets_raise():
    """A sum reads its variables from every part: either order of a part
    over (x, y, z) and one over (x, y) raises, as ``mul``, ``+`` and
    ``rat_equal`` do."""
    z = PosRatFunc.variable(("x", "y", "z"), "z")
    x = PosRatFunc.variable(XY, "x")
    for f, g in ((z, x), (x, z)):
        with pytest.raises(VariableSetMismatch):
            f.add(g)
        with pytest.raises(VariableSetMismatch):
            prf_sum([(1, PosRatFunc.one(f.vars)), (2, f), (1, g)])


@pytest.mark.parametrize("image", [(1,), (1, 0, 0)])
def test_substituted_images_need_one_slot_per_target_variable(image):
    """An image shorter or longer than the target variable set raises
    instead of being read as padded or cut (a + 2b is not x + 2y)."""
    p = lp(("a", "b"), {(1, 0): 1, (0, 1): 2})
    images = {"a": image, "b": (0, 1)}
    with pytest.raises(VariableSetMismatch):
        p.substitute_monomials(images, XY)
    with pytest.raises(VariableSetMismatch):
        PosRatFunc.from_poly(p).substitute_monomials(images, XY)
    assert (p.substitute_monomials({"a": (1, 0), "b": (0, 1)}, XY)
            == lp(XY, {(1, 0): 1, (0, 1): 2}))


# -- property tests ---------------------------------------------------------

def positive_polys(vars=XY, max_terms=4, max_exp=2):
    exps = st.tuples(*[st.integers(-max_exp, max_exp)] * len(vars))

    def build(d):
        p = LaurentPoly(vars, d)
        g = p.integer_content()
        if g > 1:
            p = LaurentPoly(vars, {e: c // g for e, c in p.terms.items()})
        return p

    return st.dictionaries(exps, st.integers(1, 3), min_size=1,
                           max_size=max_terms).map(build)


def signed_polys(vars=XY, max_terms=4, max_exp=2):
    exps = st.tuples(*[st.integers(-max_exp, max_exp)] * len(vars))
    return st.dictionaries(exps, st.integers(-3, 3), max_size=max_terms).map(
        lambda d: LaurentPoly(vars, d))


@settings(max_examples=60, deadline=None)
@given(positive_polys(), positive_polys())
def test_exact_div_round_trips(a, b):
    assert poly_exact_div(a * b, b) == a


def schoolbook_product(a, b):
    """Reference product: every term of a times every term of b, summed."""
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return LaurentPoly(a.vars, terms)


def one_term_polys(vars=XY, max_exp=2):
    """Single terms with Laurent exponents and coefficients of either
    sign, the constant one among them."""
    exps = st.tuples(*[st.integers(-max_exp, max_exp)] * len(vars))
    coefs = st.integers(-3, 3).filter(bool)
    return st.one_of(st.just(LaurentPoly.one(vars)),
                     st.builds(lambda e, c: LaurentPoly(vars, {e: c}),
                               exps, coefs))


def product_operands():
    return st.one_of(signed_polys(), one_term_polys(),
                     st.just(LaurentPoly.zero(XY)))


@settings(max_examples=150, deadline=None)
@given(product_operands(), product_operands())
@example(LaurentPoly.one(XY), lp(XY, {(1, -1): -2, (0, 2): 3}))
@example(lp(XY, {(1, -1): -2, (0, 2): 3}), LaurentPoly.one(XY))
@example(lp(XY, {(-1, 2): -3}), lp(XY, {(1, 0): 1, (0, -1): -1}))
@example(LaurentPoly.zero(XY), lp(XY, {(-2, 0): 2}))
@example(lp(XY, {(-2, 0): 2}), LaurentPoly.zero(XY))
def test_product_agrees_with_the_schoolbook_reference(a, b):
    """Products with a one-term side, the constant one or zero on either
    side, and general products all equal the double loop."""
    for p, q in ((a, b), (b, a)):
        prod = p * q
        assert prod == schoolbook_product(p, q)
        _assert_clean_poly(prod)


@settings(max_examples=60, deadline=None)
@given(st.one_of(signed_polys(), one_term_polys()), st.integers(0, 6))
def test_power_is_repeated_product(p, k):
    prod = LaurentPoly.one(XY)
    for _ in range(k):
        prod = schoolbook_product(prod, p)
    assert p.power(k) == prod


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@settings(max_examples=80, deadline=None)
@given(signed_polys(max_terms=3), signed_polys(max_terms=3),
       signed_polys(max_terms=2), st.sampled_from([1, -1, 2, -3]))
def test_exact_div_agrees_with_sympy(sympy, q, b, r, scale):
    """Either sympy's quotient with zero remainder and integer coefficients,
    or InexactDivision."""
    assume(not b.is_zero())
    a = q * b.scale(scale) + r
    b = b.scale(scale * scale)
    x, y = sympy.symbols("x y")

    def shifted(p):
        # p times a monomial, with componentwise-minimal exponent 0
        m = p.min_exponents() if p.terms else (0, 0)
        expr = sum((c * x ** (e[0] - m[0]) * y ** (e[1] - m[1])
                    for e, c in p.terms.items()), sympy.Integer(0))
        return expr, m

    sa, ma = shifted(a)
    sb, mb = shifted(b)
    quo, rem = sympy.div(sa, sb, x, y, domain=sympy.QQ)
    terms = sympy.Poly(quo, x, y).terms() if quo != 0 else []
    if rem != 0 or any(c.q != 1 for _, c in terms):
        with pytest.raises(InexactDivision):
            poly_exact_div(a, b)
        return
    expect = lp(XY, {(i + ma[0] - mb[0], j + ma[1] - mb[1]): int(c)
                     for (i, j), c in terms})
    assert poly_exact_div(a, b) == expect


XYZ = ("x", "y", "z")
XYZW = ("x", "y", "z", "w")


def tied_polys(vars, max_terms=3):
    """Signed Laurent polynomials whose terms come in pairs of one total
    degree: each drawn exponent vector is joined by a rearrangement of it,
    so division orders them by the lexicographic tie-break."""
    exps = st.tuples(*[st.integers(-2, 2)] * len(vars))
    pairs = st.tuples(exps, st.permutations(range(len(vars))),
                      st.integers(-3, 3), st.integers(-3, 3))

    def build(drawn):
        terms = {}
        for e, perm, c1, c2 in drawn:
            terms[e] = c1
            terms[tuple(e[i] for i in perm)] = c2
        return LaurentPoly(vars, terms)

    return st.lists(pairs, max_size=max_terms).map(build)


def _quotient_and_divisor():
    return st.sampled_from([XYZ, XYZW]).flatmap(lambda v: st.tuples(
        tied_polys(v) | signed_polys(v, max_terms=5),
        tied_polys(v, max_terms=2) | signed_polys(v, max_terms=3)))


# every term of degree 0 (q) and 1 (b): only the tie-break orders them
HOMOGENEOUS = (lp(XYZ, {(1, -1, 0): 1, (0, 0, 0): -1, (-1, 1, 0): 2,
                        (0, -1, 1): -3}),
               lp(XYZ, {(1, 0, 0): 1, (0, 1, 0): -2, (0, 0, 1): 3}))


@settings(max_examples=150, deadline=None)
@given(_quotient_and_divisor())
@example(HOMOGENEOUS)
@example(HOMOGENEOUS[::-1])
def test_exact_div_in_three_and_four_variables(qb):
    q, b = qb
    assume(not b.is_zero())
    assert poly_exact_div(q * b, b) == q


@settings(max_examples=150, deadline=None)
@given(_quotient_and_divisor(),
       st.tuples(*[st.integers(-3, 3)] * 4), st.sampled_from([2, 3, -2]))
@example(HOMOGENEOUS, (0, 0, 0, 0), 2)
def test_inexact_division_in_three_and_four_variables(qb, m, k):
    """An added monomial makes q * b inexact: b has two terms or more, so it
    is no unit of the Laurent ring and divides no monomial.  A scaled
    divisor k * b divides q * b exactly when k divides q's content."""
    q, b = qb
    assume(not q.is_zero() and b.num_terms() >= 2)
    a = q * b
    with pytest.raises(InexactDivision):
        poly_exact_div(a + LaurentPoly.monomial(a.vars, m[:len(a.vars)]), b)
    if q.integer_content() % k:
        with pytest.raises(InexactDivision):
            poly_exact_div(a, b.scale(k))
    else:
        assert poly_exact_div(a, b.scale(k)) == LaurentPoly(
            q.vars, {e: c // k for e, c in q.terms.items()})


def test_exact_division_through_the_heap():
    """The division takes its leading terms from a heap of the remainder's
    keys, skipping keys whose terms cancelled.  It finds the quotient, also
    where the remainder grows, and fails with the right message."""
    q = lp(XYZ, {(1, 0, 0): 1, (0, 1, 0): -2, (0, 0, -1): 3,
                 (0, 0, 0): 1}).power(3)
    b = lp(XYZ, {(1, 1, 0): 1, (0, 0, 1): -1, (0, 0, 0): 2})
    a = q * b
    assert poly_exact_div(a, b) == q
    for qh, bh in (HOMOGENEOUS, HOMOGENEOUS[::-1]):
        assert poly_exact_div(qh * bh, bh) == qh
    # (1 - x^8) / (1 + x + ... + x^7): the remainder grows from 2 terms to 8
    geometric = lp(XYZ, {(k, 0, 0): 1 for k in range(8)})
    assert poly_exact_div(lp(XYZ, {(0, 0, 0): 1, (8, 0, 0): -1}),
                          geometric) == lp(XYZ, {(0, 0, 0): 1, (1, 0, 0): -1})
    with pytest.raises(InexactDivision, match="leading term not divisible"):
        poly_exact_div(a + LaurentPoly.monomial(XYZ, (0, 0, 5)), b)
    with pytest.raises(InexactDivision, match="non-integer coefficient"):
        poly_exact_div(a, b.scale(2))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([XY, XYZ, XYZW]).flatmap(
    lambda v: signed_polys(v, max_terms=5, max_exp=3)))
@example(lp(XYZ, {(-2, 1, 0): 1, (1, -3, 0): -2, (0, 0, -1): 3}))
def test_exponent_bounds_are_per_coordinate(p):
    if p.is_zero():
        for bound in (p.min_exponents, p.max_exponents):
            with pytest.raises(ExactAlgebraError):
                bound()
        return
    slots = range(len(p.vars))
    assert p.min_exponents() == tuple(min(e[i] for e in p.terms)
                                      for i in slots)
    assert p.max_exponents() == tuple(max(e[i] for e in p.terms)
                                      for i in slots)


def _nonzero_rationals():
    """Integer (numerator, denominator) pairs, not always in lowest
    terms."""
    return st.tuples(st.integers(-9, 9).filter(bool), st.integers(1, 9))


def _substitute_reference(p, assignment, scales):
    """substitute_values term by term in Fractions: the collected
    coefficients over their least common denominator."""
    sums = {}
    for e, c in p.terms.items():
        v = Fraction(c)
        key = list(e)
        for i, name in enumerate(p.vars):
            if name in assignment:
                v *= Fraction(*assignment[name]) ** e[i]
                key[i] = 0
            elif name in scales:
                v *= Fraction(*scales[name]) ** e[i]
        sums[tuple(key)] = sums.get(tuple(key), 0) + v
    den = math.lcm(*(v.denominator for v in sums.values()))
    num = {e: int(v * den) for e, v in sums.items() if v}
    return num, den


@settings(max_examples=150, deadline=None)
@given(signed_polys(XT, max_terms=6, max_exp=3),
       st.fixed_dictionaries({}, optional={v: _nonzero_rationals()
                                           for v in ("t1", "t2")}),
       st.fixed_dictionaries({}, optional={v: _nonzero_rationals()
                                           for v in ("X1", "X2")}))
def test_substitute_values_normal_form(p, assignment, scales):
    """The exact numerator terms and constant denominator, which
    ``degenerate`` prints, not only the value."""
    r_num, r_den = substitute_values(p, assignment, scales)
    num, den = _substitute_reference(p, assignment, scales)
    assert r_num.terms == num
    assert type(r_den) is int and r_den == den


def test_substitute_values_reads_a_slot_with_some_zero_exponents():
    """Only a slot whose exponents are all zero is skipped: t1 appears in
    some terms and not in others, t2 in none, and X2 is scaled in one term
    of three."""
    p = lp(XT, {(0, 0, 0, 0): 1, (1, 0, 1, 0): 2, (0, 1, -1, 0): 3})
    num, den = substitute_values(p, {"t1": (2, 3), "t2": (5, 1)},
                                 {"X2": (1, 2)})
    # 1 + (4/3) X1 + (9/4) X2 over the common denominator 12
    assert num.terms == {(0, 0, 0, 0): 12, (1, 0, 0, 0): 16,
                         (0, 1, 0, 0): 27}
    assert den == 12
    # no term uses an assigned or scaled slot: the polynomial over 1
    q = lp(XT, {(1, 0, 0, 0): 2, (0, 1, 0, 0): -3})
    assert substitute_values(q, {"t1": (2, 3), "t2": (5, 1)}) == (q, 1)


@settings(max_examples=60, deadline=None)
@given(positive_polys(), positive_polys(), positive_polys())
def test_poly_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


def posrats(vars=XY, max_terms=4, max_exp=2):
    polys = positive_polys(vars, max_terms, max_exp)
    return st.tuples(polys, polys).map(
        lambda t: PosRatFunc.from_poly(t[0]).mul(
            PosRatFunc.from_poly(t[1]).inv()))


def _assert_clean_poly(p):
    assert p == LaurentPoly(p.vars, p.terms)
    assert type(p.vars) is tuple
    assert all(c != 0 for c in p.terms.values())
    assert all(type(e) is tuple and len(e) == len(p.vars) for e in p.terms)


def _assert_clean_prf(f):
    assert f == PosRatFunc(f.vars, f.unit, f.factors)
    assert type(f.vars) is tuple and type(f.unit) is tuple
    assert len(f.unit) == len(f.vars)
    for p, e in f.factors.items():
        assert e != 0 and not p.is_one() and p.vars == f.vars
        _assert_clean_poly(p)


@settings(max_examples=80, deadline=None)
@given(signed_polys(), signed_polys(), signed_polys(max_terms=2),
       st.integers(0, 3), posrats(max_terms=3), posrats(max_terms=3),
       st.integers(-3, 3))
def test_trusted_results_equal_their_validated_copies(a, b, c, k, f, g, j):
    """Every result the arithmetic builds through the trusted constructors
    is exactly what the validating constructors make of it."""
    polys = [a + b, a + b.scale(-1), a.scale(-1), a + a.scale(-1), a * b,
             (a + b.scale(-1)) * c, (a * c).power(k), c.power(k) + a]
    if not b.is_zero():
        polys.append(poly_exact_div(a * b, b))
        polys.append(poly_exact_div(b * c * c, b))
    for p in polys:
        _assert_clean_poly(p)
    assert (a + a.scale(-1)).is_zero()
    prfs = [f.mul(g), f.power(j), f.inv(), f.mul(f.inv()), g.power(0),
            f.mul(g).power(-2).mul(g.power(2)), f.inv().inv()]
    for h in prfs:
        _assert_clean_prf(h)
    assert f.mul(f.inv()) == PosRatFunc.one(XY)
    assert f.inv().inv() == f
    assert f.mul(g).power(-2).mul(g.power(2)) == f.power(-2)


@settings(max_examples=80, deadline=None)
@given(st.lists(positive_polys(max_terms=3, max_exp=1), min_size=1,
                max_size=3), signed_polys(), st.data())
def test_substitutions_sums_and_reductions_equal_their_validated_copies(
        polys, a, data):
    """``reduced``, ``prf_sum``, both ``substitute_monomials``, ``one`` and
    ``monomial`` build their results without checks: on quotients of
    products of shared polynomials, which often reduce, and on monomial
    images that make terms meet and cancel, each result is what the
    validating constructors make of it."""
    idx = st.lists(st.integers(0, len(polys) - 1), max_size=3)
    num, den = LaurentPoly.one(XY), LaurentPoly.one(XY)
    for i in data.draw(idx):
        num = num * polys[i]
    for i in data.draw(idx):
        den = den * polys[i]
    unit = data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    f = (PosRatFunc.monomial(XY, unit).mul(PosRatFunc.from_poly(num))
         .mul(PosRatFunc.from_poly(den, -1)))
    slot = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
    images = {"x": data.draw(slot), "y": data.draw(slot)}
    for p in (LaurentPoly.one(XY), LaurentPoly.monomial(XY, list(unit)),
              a.substitute_monomials(images),
              num.substitute_monomials({"x": (1, 0, 1)}, ("x", "z", "y"))):
        _assert_clean_poly(p)
    prfs = [f.reduced(), PosRatFunc.one(XY),
            PosRatFunc.monomial(list(XY), list(unit)),
            # either fails on a factor or sum of integer content != 1
            _outcome(lambda: f.substitute_monomials(images)),
            _outcome(lambda: prf_sum([(1, f), (2, PosRatFunc.from_poly(
                polys[0]))]))]
    for h in prfs:
        if h is not PositivityError:
            _assert_clean_prf(h)


def _prf_sum_over_one_denominator(parts):
    """The sum of positive multiples of PosRatFuncs, every part expanded
    over the least common factored denominator: the numerator sum as a
    PosRatFunc, times the inverse of that denominator, reduced."""
    vars = parts[0][1].vars
    splits = [f.num_den_split() for _, f in parts]
    den_unit = [max(un[i] for _, _, un, _ in splits) for i in range(len(vars))]
    den = {}
    for _, _, _, df in splits:
        for p, e in df.items():
            den[p] = max(den.get(p, 0), e)
    total = LaurentPoly.zero(vars)
    for (c, f), (up, nf, un, df) in zip(parts, splits):
        piece = LaurentPoly(vars, {tuple(a + b - x for a, b, x
                                         in zip(up, den_unit, un)): c})
        for p, e in list(nf.items()) + [(p, e - df.get(p, 0))
                                        for p, e in den.items()]:
            piece = piece * p.power(e)
        total = total + piece
    return PosRatFunc.from_poly(total).mul(
        PosRatFunc(vars, den_unit, den).inv()).reduced()


@settings(max_examples=150, deadline=None)
@given(st.lists(positive_polys(max_terms=3, max_exp=1), min_size=1,
                max_size=3), st.data())
def test_prf_sum_equals_its_sum_over_one_denominator(pool, data):
    """``prf_sum`` merges the sum's key into the denominator's factors and
    builds the result once; on parts with and without factors, drawn from
    a shared pool so that keys meet, its unit and its factor dict, in
    order, are those of the numerator sum times the inverse denominator,
    reduced, and the result is what the validating constructor makes of
    it.  A sum of integer content other than 1 fails on both routes with
    the same ``PositivityError`` message, whether or not a part has
    factors."""
    exps = st.integers(-2, 2)
    parts = []
    for _ in range(data.draw(st.integers(1, 4))):
        f = PosRatFunc.monomial(XY, data.draw(st.tuples(exps, exps)))
        if data.draw(st.booleans()):
            for p in pool:
                f = f.mul(PosRatFunc.from_poly(p, data.draw(exps)))
        parts.append((data.draw(st.integers(1, 3)), f))

    def outcome(fn):
        try:
            return fn(parts)
        except PositivityError as exc:
            return str(exc)

    got = outcome(prf_sum)
    want = outcome(_prf_sum_over_one_denominator)
    if isinstance(want, str):
        assert got == want
        return
    assert got.unit == want.unit
    assert list(got.factors.items()) == list(want.factors.items())
    _assert_clean_prf(got)


def test_from_poly_builds_its_power():
    """``from_poly`` builds its result without checks: the zeroth power is
    one, and a monomial has no factor at any power."""
    p = lp(XY, {(1, 0): 1, (2, 1): 2})
    assert PosRatFunc.from_poly(p, 0) == PosRatFunc.one(XY)
    assert PosRatFunc.from_poly(lp(XY, {(1, 2): 1}), -2) == \
        PosRatFunc.monomial(XY, (-2, -4))
    for k in (-3, -1, 0, 1, 2):
        _assert_clean_prf(PosRatFunc.from_poly(p, k))
        assert PosRatFunc.from_poly(p, k).unit == (k, 0)


def test_substitutions_drop_terms_that_cancel():
    """At a signed point terms can cancel: X1*t1 + 2*X1 is zero at t1 = -2,
    and the numerator keeps only 3*X2*t2 at t2 = 1/3, over 1.  So can
    terms that a monomial substitution sends to one exponent vector."""
    p = lp(XT, {(1, 0, 1, 0): 1, (1, 0, 0, 0): 2, (0, 1, 0, 1): 3})
    num, den = substitute_values(p, {"t1": (-2, 1), "t2": (1, 3)})
    assert num.terms == {(0, 1, 0, 0): 1} and den == 1
    _assert_clean_poly(num)
    q = lp(XY, {(1, 0): 1, (0, 1): -1, (1, 1): 2})
    r = q.substitute_monomials({"y": (1, 0)})
    assert r.terms == {(2, 0): 2}
    _assert_clean_poly(r)


@settings(max_examples=80, deadline=None)
@given(signed_polys(XT, max_terms=6, max_exp=3),
       st.fixed_dictionaries({}, optional={v: _nonzero_rationals()
                                           for v in ("t1", "t2")}),
       st.fixed_dictionaries({}, optional={v: _nonzero_rationals()
                                           for v in ("X1", "X2")}))
def test_substituted_values_equal_their_validated_copies(p, assignment,
                                                        scales):
    num, den = substitute_values(p, assignment, scales)
    _assert_clean_poly(num)


@settings(max_examples=80, deadline=None)
@given(signed_polys(max_terms=6))
def test_term_reads_equal_their_term_by_term_definitions(p):
    """Content, positivity and the hash read the terms as a whole; each
    equals its definition term by term, and the hash does not depend on
    the order the terms were inserted in."""
    g = 0
    for c in p.terms.values():
        g = math.gcd(g, abs(c))
    assert p.integer_content() == g
    assert p.all_coefs_positive() == all(c > 0 for c in p.terms.values())
    q = LaurentPoly(p.vars, dict(reversed(list(p.terms.items()))))
    assert q == p and hash(q) == hash(p)


_ONE_PLUS_X = lp(XY, {(0, 0): 1, (1, 0): 1})
_ONE_PLUS_Y = lp(XY, {(0, 0): 1, (0, 1): 1})


@settings(max_examples=60, deadline=None)
@given(st.lists(posrats(max_terms=3), min_size=1, max_size=3))
@example([PosRatFunc.from_poly(_ONE_PLUS_X),
          PosRatFunc.from_poly(_ONE_PLUS_Y, -2)])
def test_posrat_hash_ignores_the_order_of_the_factors(fs):
    """Equal values whose factor dicts were filled in opposite orders hash
    equal and share one dict entry, on the first hash of each and once
    both hashes are cached."""
    f = fs[0]
    for g in fs[1:]:
        f = f.mul(g)
    items = list(f.factors.items())

    def copies():
        return (PosRatFunc(f.vars, f.unit, dict(items)),
                PosRatFunc(f.vars, f.unit, dict(reversed(items))))

    a, b = copies()
    memo = {a: "a"}
    memo[b] = "b"
    assert memo == {a: "b"} and hash(a) == hash(b)
    c, d = copies()
    memo = {c: "c", a: "a", d: "d", b: "b"}
    assert memo == {a: "b"}


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), posrats(),
       posrats(max_terms=3), st.integers(-3, 3))
def test_num_den_split_parts(unit, f, g, k):
    """The four parts of the split: unit = up - un with both parts
    nonnegative and never both positive in one place, and the factors
    split by sign with every exponent positive and no key in both."""
    h = PosRatFunc.monomial(XY, unit).mul(f).mul(g.power(k))
    up, nf, un, df = h.num_den_split()
    assert tuple(a - b for a, b in zip(up, un)) == h.unit
    assert all(a >= 0 and b >= 0 and min(a, b) == 0 for a, b in zip(up, un))
    assert not nf.keys() & df.keys()
    assert all(e > 0 for e in nf.values())
    assert all(e > 0 for e in df.values())
    assert {**nf, **{p: -e for p, e in df.items()}} == h.factors


@settings(max_examples=80, deadline=None)
@given(st.lists(posrats(max_terms=3), min_size=1, max_size=3),
       st.lists(st.tuples(st.sampled_from(["mul", "inv", "add"]),
                          st.integers(0, 8), st.integers(0, 8)), max_size=6))
def test_expansions_have_no_negative_exponent(leaves, ops):
    """``expand`` of any function built by from_poly, mul, inv and add
    returns a numerator and a denominator with no negative exponent."""
    values = list(leaves)
    for op, i, j in ops:
        f, g = values[i % len(values)], values[j % len(values)]
        if op == "mul":
            values.append(f.mul(g))
        elif op == "inv":
            values.append(f.inv())
        else:
            try:
                values.append(f.add(g))
            except PositivityError:   # a sum of integer content != 1
                pass
    for f in values:
        for side in f.expand():
            assert min(side.min_exponents()) >= 0


@settings(max_examples=40, deadline=None)
@given(posrats(), posrats())
def test_prf_add_agrees_with_expanded_arithmetic(f, g):
    nf, df = f.expand()
    ng, dg = g.expand()
    num = nf * dg + ng * df
    # a sum whose total integer content exceeds 1 has no subtraction-free
    # factored form with unit coefficient +1; such sums fail loudly instead
    assume(num.integer_content() == 1)
    s = f.add(g)
    ns, ds = s.expand()
    assert ns * (df * dg) == num * ds


@settings(max_examples=40, deadline=None)
@given(posrats())
def test_reduction_preserves_value(f):
    g = f.mul(f).reduced()
    assert rat_equal(g, f.mul(f))


def _cross_multiplied_equal(f, g):
    nf, df = f.expand()
    ng, dg = g.expand()
    return nf * dg == ng * df


def _factored(unit, polys, exps, merge):
    """unit * prod polys[i]^exps[i], as one factor per polynomial or, with
    ``merge``, with the numerator and the denominator each expanded into a
    single factor (so equal values get different factor keys)."""
    out = PosRatFunc.monomial(XY, unit)
    if not merge:
        for p, e in zip(polys, exps):
            out = out.mul(PosRatFunc.from_poly(p, e))
        return out
    num, den = LaurentPoly.one(XY), LaurentPoly.one(XY)
    for p, e in zip(polys, exps):
        if e > 0:
            num = num * p.power(e)
        elif e < 0:
            den = den * p.power(-e)
    return out.mul(PosRatFunc.from_poly(num)).mul(PosRatFunc.from_poly(den, -1))


@settings(max_examples=60, deadline=None)
@given(st.lists(positive_polys(max_terms=3, max_exp=1), min_size=1, max_size=3),
       st.data())
def test_rat_equal_agrees_with_cross_multiplication(polys, data):
    k = len(polys)
    unit = data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    exps_f = data.draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
    same = data.draw(st.booleans())
    if same:
        unit_g, exps_g = unit, exps_f
    else:
        unit_g = data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
        exps_g = data.draw(st.lists(st.integers(-2, 2), min_size=k,
                                    max_size=k))
    f = _factored(unit, polys, exps_f, data.draw(st.booleans()))
    g = _factored(unit_g, polys, exps_g, data.draw(st.booleans()))
    assert rat_equal(f, g) == _cross_multiplied_equal(f, g)
    if same:
        assert rat_equal(f, g)
    # multiplying by x always changes the value
    gx = g.mul(PosRatFunc.variable(XY, "x"))
    assert not rat_equal(g, gx)
    assert rat_equal(f, gx) == _cross_multiplied_equal(f, gx)


def test_rat_equal_square_against_expanded_square():
    one_plus_x = lp(XY, {(0, 0): 1, (1, 0): 1})
    expanded = PosRatFunc.from_poly(one_plus_x * one_plus_x)
    squared = PosRatFunc.from_poly(one_plus_x, 2)
    assert expanded.factors != squared.factors
    assert rat_equal(expanded, squared)
    assert not rat_equal(expanded, PosRatFunc.from_poly(one_plus_x, 3))
    # the key 1+x is shared with exponents 2 and 3:
    # (1+x)^2/(1+y) == (1+x)^3/((1+x)(1+y))
    y = lp(XY, {(0, 0): 1, (0, 1): 1})
    lhs = PosRatFunc.from_poly(one_plus_x, 2).mul(PosRatFunc.from_poly(y, -1))
    rhs = PosRatFunc.from_poly(one_plus_x, 3).mul(
        PosRatFunc.from_poly(one_plus_x * y, -1))
    assert rat_equal(lhs, rhs)
    assert not rat_equal(lhs, rhs.mul(PosRatFunc.from_poly(y)))


def test_rat_equal_on_equal_units_decides_by_the_factors():
    """Equal factored forms are equal before any expansion, but an equal
    unit alone decides nothing: with unit 0 on both sides, (1+x)/(1+y)
    differs from its inverse and 1+x differs from 1.  An equal factor dict
    with another unit differs too, and one value under two factor dicts is
    still equal."""
    one_plus_x = lp(XY, {(0, 0): 1, (1, 0): 1})
    one_plus_y = lp(XY, {(0, 0): 1, (0, 1): 1})
    f = PosRatFunc.from_poly(one_plus_x).mul(
        PosRatFunc.from_poly(one_plus_y, -1))
    assert f.unit == f.inv().unit
    assert not rat_equal(f, f.inv())
    assert not rat_equal(PosRatFunc.from_poly(one_plus_x), PosRatFunc.one(XY))
    assert not rat_equal(f, f.mul(PosRatFunc.variable(XY, "y")))
    twin = PosRatFunc(XY, (0, 0), {lp(XY, {(1, 0): 1, (0, 0): 1}): 1,
                                   lp(XY, {(0, 1): 1, (0, 0): 1}): -1})
    assert twin is not f and rat_equal(twin, f)
    merged = PosRatFunc.from_poly(one_plus_x * one_plus_x).mul(
        PosRatFunc.from_poly(one_plus_x * one_plus_y, -1))
    assert merged.factors != f.factors and rat_equal(merged, f)


# -- sympy route for the factored arithmetic --------------------------------------

def _sympy_monomial(sympy, vars, exps):
    return sympy.Mul(*(s ** x for s, x in zip(sympy.symbols(vars), exps)))


def _sympy_poly(sympy, p):
    """A LaurentPoly as a sympy expression in its variables' names."""
    return sum((c * _sympy_monomial(sympy, p.vars, e)
                for e, c in p.terms.items()), sympy.Integer(0))


def _sympy_value(sympy, f):
    """A PosRatFunc as an unexpanded sympy expression in its variables'
    names."""
    out = _sympy_monomial(sympy, f.vars, f.unit)
    for p, e in f.factors.items():
        out *= _sympy_poly(sympy, p) ** e
    return out


def _sympy_cancelled(sympy, expr):
    """Numerator and denominator of ``expr`` after sympy's ``cancel``."""
    return sympy.fraction(sympy.cancel(sympy.together(expr)))


def _sympy_content(sympy, expr):
    """Integer content of a rational function: content of its cancelled
    numerator over that of its cancelled denominator."""
    x, y = sympy.symbols("x y")
    num, den = _sympy_cancelled(sympy, expr)
    return (sympy.Poly(num, x, y).content()
            / sympy.Poly(den, x, y).content())


def _sympy_equal(sympy, f, expr):
    """f equals expr: sympy's cancelled form of expr, cross-multiplied with
    f's own expansion."""
    num, den = _sympy_cancelled(sympy, expr)
    nf, df = f.expand()
    return sympy.expand(num * _sympy_poly(sympy, df)
                        - den * _sympy_poly(sympy, nf)) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), posrats()), min_size=1,
                max_size=3))
def test_prf_sum_agrees_with_sympy(sympy, parts):
    """prf_sum is the cancelled sum, and fails exactly when that sum has an
    integer content other than 1 (no factored form with unit coefficient)."""
    expr = sum((c * _sympy_value(sympy, f) for c, f in parts),
               sympy.Integer(0))
    if _sympy_content(sympy, expr) != 1:
        with pytest.raises(PositivityError):
            prf_sum(parts)
        return
    assert _sympy_equal(sympy, prf_sum(parts), expr)


def _monomial_parts():
    units = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    return st.lists(st.tuples(st.integers(1, 3),
                              units.map(lambda e: PosRatFunc.monomial(XY, e))),
                    min_size=1, max_size=4)


@settings(max_examples=80, deadline=None)
@given(_monomial_parts())
@example([(1, PosRatFunc.monomial(XY, (-1, 2)))])                   # one part
@example([(2, PosRatFunc.monomial(XY, (1, -1)))])                   # content 2
@example([(1, PosRatFunc.variable(XY, "x"))] * 2)                   # x + x
@example([(3, PosRatFunc.one(XY)), (2, PosRatFunc.variable(XY, "y"))])
@example([(1, PosRatFunc.monomial(XY, (2, -1))),
          (1, PosRatFunc.monomial(XY, (-1, 1)))])
def test_prf_sum_of_monomials_agrees_with_sympy(sympy, parts):
    """A sum whose parts are all monomials is the cancelled sum, with one
    canonical factor at most, of exponent 1; it fails exactly when the sum
    has an integer content other than 1, as for two equal monomials."""
    expr = sum((c * _sympy_value(sympy, f) for c, f in parts),
               sympy.Integer(0))
    if _sympy_content(sympy, expr) != 1:
        with pytest.raises(PositivityError):
            prf_sum(parts)
        return
    s = prf_sum(parts)
    assert _sympy_equal(sympy, s, expr)
    _assert_clean_prf(s)
    assert list(s.factors.values()) in ([], [1])
    for p in s.factors:
        assert p.integer_content() == 1 and not any(p.min_exponents())


@settings(max_examples=40, deadline=None)
@given(st.lists(positive_polys(max_terms=3, max_exp=1), min_size=1,
                max_size=3), st.data())
def test_reduced_agrees_with_sympy(sympy, polys, data):
    """reduced keeps the value and stays subtraction-free, on numerators and
    denominators that are products of shared polynomials (so one often
    divides the other)."""
    idx = st.lists(st.integers(0, len(polys) - 1), max_size=3)
    num, den = LaurentPoly.one(XY), LaurentPoly.one(XY)
    for i in data.draw(idx):
        num = num * polys[i]
    for i in data.draw(idx):
        den = den * polys[i]
    unit = data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    a, b = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    f = (PosRatFunc.monomial(XY, unit).mul(PosRatFunc.from_poly(num, a))
         .mul(PosRatFunc.from_poly(den, -b)))
    r = f.reduced()
    assert all(p.all_coefs_positive() for p in r.factors)
    assert _sympy_equal(sympy, r, _sympy_value(sympy, f))


@settings(max_examples=60, deadline=None)
@given(positive_polys(max_terms=3), positive_polys(max_terms=3))
@example(lp(XY, {(1, 0): 1, (0, 0): 2}), lp(XY, {(1, 0): 1, (0, 0): 1}))
def test_reduced_cancels_a_factor_of_either_side(a, q):
    """(a*q) / a reduces to q and a / (a*q) to 1/q: the test on the keys'
    values at (1, ..., 1) never skips a pair where one key divides the
    other.  In the example the largest coefficients, 3 and 2, do not
    divide, so a test on them would skip the pair."""
    aq, a = PosRatFunc.from_poly(a * q), PosRatFunc.from_poly(a)
    assert aq.mul(a.inv()).reduced() == PosRatFunc.from_poly(q)
    assert a.mul(aq.inv()).reduced() == PosRatFunc.from_poly(q).inv()


def _outcome(fn):
    try:
        return fn()
    except PositivityError:
        return PositivityError


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                         min_size=2, max_size=2, unique=True)
                .map(lambda es: LaurentPoly(XY, dict.fromkeys(es, 1))),
                min_size=1, max_size=3),
       posrats(max_terms=2, max_exp=1),
       posrats(max_terms=2, max_exp=1), st.data())
def test_evaluate_agrees_with_sympy(sympy, polys, sx, sy, data):
    """A tuple of functions sharing binomial factor keys, composed with one
    map: with one memo for the tuple, each value equals the one computed
    without a memo, and both equal sympy's substitution."""
    k = len(polys)
    exps = st.lists(st.sampled_from([-1, 1]), min_size=k, max_size=k)
    units = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    funcs = [_factored(data.draw(units), polys, data.draw(exps), False)
             for _ in range(data.draw(st.integers(2, 3)))]
    subst = {"x": sx, "y": sy}
    memo = {}
    shared = [_outcome(lambda: f.evaluate(subst, memo)) for f in funcs]
    alone = [_outcome(lambda: f.evaluate(subst)) for f in funcs]
    assert shared == alone
    x, y = sympy.symbols("x y")
    point = {x: _sympy_value(sympy, sx), y: _sympy_value(sympy, sy)}
    for f, got in zip(funcs, shared):
        if got is PositivityError:
            continue
        expr = _sympy_value(sympy, f).subs(point, simultaneous=True)
        assert _sympy_equal(sympy, got, expr)


@settings(max_examples=60, deadline=None)
@given(st.lists(positive_polys(max_terms=3, max_exp=1), min_size=1, max_size=3),
       st.data())
def test_rat_equal_agrees_with_sympy(sympy, polys, data):
    """rat_equal(f, g) exactly when sympy cancels f - g to zero; g is drawn
    equal to f in value (with the same or merged factor keys) or not."""
    k = len(polys)
    unit = data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    exps_f = data.draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
    if data.draw(st.booleans()):
        unit_g, exps_g = unit, exps_f
    else:
        unit_g = data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
        exps_g = data.draw(st.lists(st.integers(-2, 2), min_size=k,
                                    max_size=k))
    f = _factored(unit, polys, exps_f, data.draw(st.booleans()))
    g = _factored(unit_g, polys, exps_g, data.draw(st.booleans()))
    diff = sympy.cancel(_sympy_value(sympy, f) - _sympy_value(sympy, g))
    assert rat_equal(f, g) == (diff == 0)


def _t_free_led_polys():
    """Positive polynomials over XT with one t-free leading term and up to
    two terms divisible by t1 or t2, and arbitrary positive polynomials."""
    xs = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
    ts = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any)
    led = st.tuples(xs, st.lists(st.tuples(xs, ts), min_size=1, max_size=2)
                    ).map(lambda d: LaurentPoly(XT, {
                        **{x + t: 1 for x, t in d[1]}, d[0] + (0, 0): 1}))
    return st.one_of(led, positive_polys(XT, max_terms=3, max_exp=1))


@settings(max_examples=30, deadline=None)
@given(st.tuples(*[st.integers(-2, 2)] * 4),
       st.lists(st.tuples(_t_free_led_polys(), st.sampled_from([-2, -1, 1, 2])),
                min_size=1, max_size=3))
def test_limit_t_zero_agrees_with_sympy(sympy, unit, parts):
    """Whenever limit_t_zero returns a monomial L, sympy's limit of f / L
    as t1, t2 -> 0 is 1 along the paths (s, s) and (s, s^2).  Content
    factoring is conservative (it may refuse a function whose limit becomes
    a monomial only after cancellation), so a refusal must be LimitError."""
    f = PosRatFunc.monomial(XT, unit)
    for p, e in parts:
        f = f.mul(PosRatFunc.from_poly(p, e))
    try:
        got = limit_t_zero(f, ("t1", "t2"))
    except LimitError:
        return
    assert got.is_monomial()
    t1, t2, s = sympy.symbols("t1 t2 s", positive=True)
    ratio = _sympy_value(sympy, f) / _sympy_poly(sympy, got)
    ratio = ratio.subs({sympy.Symbol("t1"): t1, sympy.Symbol("t2"): t2})
    for path in ({t1: s, t2: s}, {t1: s, t2: s ** 2}):
        assert sympy.limit(sympy.cancel(ratio.subs(path)), s, 0, "+") == 1


# -- expansion route for the factored reads -----------------------------------------
#
# limit_t_zero, degree_of and PosRatFunc.exponent_bounds read each factor on
# its own.  The oracles below read the expansion instead, as plain
# content factoring and per-term degrees on the expanded numerator and
# denominator, and the functions are built through the public constructor
# with factors that are not canonical (any exponent shift, any content).

GRADING_XT = Grading({"X1": (1, 0), "X2": (0, 1), "t1": (-1, 0),
                      "t2": (0, -1)})
T_XT = ("t1", "t2")


def _expanded_degree(f, grading):
    """deg(num) - deg(den) of f's expansion."""
    num, den = f.expand()
    dn = grading.poly_degree(num)
    dd = grading.poly_degree(den)
    return tuple(a - b for a, b in zip(dn, dd))


def _expanded_limit(f, t_vars):
    """The t -> 0 limit by content factoring on the expanded numerator and
    denominator: each keeps its terms at its componentwise minimal
    t-exponents, which must be one term, and the limit is their ratio."""
    num, den = f.expand()
    t_idx = [f.vars.index(v) for v in t_vars]

    def content_and_fiber(poly, what):
        content = [0] * len(f.vars)
        mins = {i: min(e[i] for e in poly.terms) for i in t_idx}
        for i, m in mins.items():
            content[i] = m
        fiber = {}
        for e, c in poly.terms.items():
            if all(e[i] == mins[i] for i in t_idx):
                key = list(e)
                for i, m in mins.items():
                    key[i] = 0
                fiber[tuple(key)] = c
        if not fiber:
            raise LimitError(f"{what} vanishes at t=0 after content removal")
        return tuple(content), LaurentPoly(f.vars, fiber)

    if num.is_zero():
        raise LimitError("numerator is zero")
    cn, num0 = content_and_fiber(num, "numerator")
    cd, den0 = content_and_fiber(den, "denominator")
    if not num0.is_monomial():
        raise LimitError(f"limit not a monomial: {num0.to_text()}")
    if not den0.is_monomial():
        raise LimitError(f"denominator limit not a monomial: {den0.to_text()}")
    en, an = num0.monomial_parts()
    ed, ad = den0.monomial_parts()
    if an % ad:
        raise LimitError("limit has non-integer coefficient")
    exps = tuple(x - y + a - b for x, y, a, b in zip(en, ed, cn, cd))
    return LaurentPoly(f.vars, {exps: an // ad})


def _expanded_box(poly):
    """Componentwise minimum and maximum exponents over the terms."""
    n = len(poly.vars)
    return (tuple(min(e[i] for e in poly.terms) for i in range(n)),
            tuple(max(e[i] for e in poly.terms) for i in range(n)))


def _read(fn):
    """fn's value, or the class of the arithmetic error it raises."""
    try:
        return fn()
    except ExactAlgebraError as exc:
        return type(exc)


def _noncanonical_polys():
    """Positive polynomials over XT with any exponent shift and content:
    arbitrary ones, ones homogeneous for GRADING_XT (x - t fixed), and
    ones with a t-free leading term."""
    raw = st.dictionaries(st.tuples(*[st.integers(-1, 2)] * 4),
                          st.integers(1, 3), min_size=1, max_size=3)
    shift = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
    xs = st.dictionaries(st.tuples(st.integers(-1, 2), st.integers(-1, 2)),
                         st.integers(1, 3), min_size=1, max_size=3)
    homogeneous = st.tuples(shift, xs).map(
        lambda t: {x + (x[0] - t[0][0], x[1] - t[0][1]): c
                   for x, c in t[1].items()})
    return st.one_of(st.one_of(raw, homogeneous).map(
        lambda d: LaurentPoly(XT, d)), _t_free_led_polys())


X1_PLUS_X2 = lp(XT, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1})
T1_PLUS_T2 = lp(XT, {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1})
TWO_PLUS_T1 = lp(XT, {(0, 0, 0, 0): 2, (0, 0, 1, 0): 1})
TWO_PLUS_T2 = lp(XT, {(0, 0, 0, 0): 2, (0, 0, 0, 1): 1})
X1_PLUS_ONE = lp(XT, {(1, 0, 0, 0): 1, (0, 0, 0, 0): 1})
SHIFTED = lp(XT, {(-1, 0, -1, 0): 2, (0, 1, 0, 1): 2, (1, 1, 0, 2): 4})
ZERO4 = (0, 0, 0, 0)


@settings(max_examples=150, deadline=None)
@given(st.tuples(*[st.integers(-2, 2)] * 4),
       st.lists(st.tuples(_noncanonical_polys(),
                          st.sampled_from([-2, -1, 1, 2])),
                max_size=3))
@example(ZERO4, [(X1_PLUS_X2, 1)])                     # numerator fibre
@example(ZERO4, [(X1_PLUS_X2, -2)])                    # denominator fibre
@example(ZERO4, [(T1_PLUS_T2, 1)])                     # vanishing fibre
@example(ZERO4, [(T1_PLUS_T2, -1)])
@example(ZERO4, [(TWO_PLUS_T1, -1)])                   # 1/2 at t = 0
@example(ZERO4, [(TWO_PLUS_T1, 2), (TWO_PLUS_T2, -1)])  # 4/2 at t = 0
@example(ZERO4, [(X1_PLUS_ONE, -1)])                   # inhomogeneous
@example((1, 0, 2, -1), [(SHIFTED, -2), (TWO_PLUS_T2, 1)])
def test_factored_reads_agree_with_the_expansion(unit, parts):
    """On any function with positive factors, canonical or not, each
    factored read returns what the expansion route returns, or raises the
    same class of error: the t -> 0 limit (non-monomial, vanishing and
    non-integer fibres), the degree (inhomogeneous factors) and the
    exponent bounds the strata check reads."""
    f = PosRatFunc(XT, unit, dict(parts))
    assert (_read(lambda: limit_t_zero(f, T_XT))
            == _read(lambda: _expanded_limit(f, T_XT)))
    assert (_read(lambda: degree_of(f, GRADING_XT))
            == _read(lambda: _expanded_degree(f, GRADING_XT)))
    num, den = f.expand()
    assert f.exponent_bounds() == _expanded_box(num) + _expanded_box(den)
