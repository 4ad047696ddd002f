"""Path invariants: frozen rank-2 walk oracles, dual-route cross-checks,
separation identities."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from cluster_forge.gfan import ConeRecord, enumerate_gfan, g_cone_step
from cluster_forge.invariants import (
    CheckFailed,
    c_matrix,
    check_sign_coherence,
    f_polynomials,
    g_matrix,
    g_matrix_degrees,
    invariant_report,
    mat_det,
    mat_identity,
    mat_inverse_integer,
    mat_mul,
    mat_transpose,
    principal_grading,
    separation_check,
)
from cluster_forge.corpus import GR25_XVARS, dp5_grading
from cluster_forge import exact_algebra, invariants
from cluster_forge.exact_algebra import LaurentPoly, poly_exact_div
from cluster_forge.seeds import (
    ClusterSeedCoeff,
    ExchangeData,
    YSeedCoeff,
    langlands_dual,
    mutate_cluster_seed,
    mutate_matrix,
    mutate_y_tuple,
    p_vars,
    x_vars,
    y_vars,
)
from cluster_forge.semifields import TropMonomial
from support import (A2, A3, A4, ACYCLIC_TRIANGLE, B2, B3, C3, D4, FIXTURES,
                     G2, fixture_exchange, record_calls)

WALK = [1, 0, 1, 0, 1]

# Frozen c-matrices along the alternating rank-2 walk (prefix lengths 0..5).
C_WALK = [
    ((1, 0), (0, 1)),
    ((1, 0), (0, -1)),
    ((-1, 0), (0, -1)),
    ((-1, 0), (-1, 1)),
    ((1, -1), (1, 0)),
    ((0, 1), (1, 0)),
]

# Frozen g-matrices along the same prefixes.
G_WALK = [
    ((1, 0), (0, 1)),
    ((1, 0), (0, -1)),
    ((-1, 0), (0, -1)),
    ((-1, -1), (0, 1)),
    ((0, -1), (1, 1)),
    ((0, 1), (1, 0)),
]

PV = ("p1", "p2")
PV4 = ("p1", "p2", "p3", "p4")

# Frozen F-polynomials (per direction) along the same prefixes.
F_WALK = [
    ("1", "1"),
    ("1", "p2 + 1"),
    ("p1*p2 + p1 + 1", "p2 + 1"),
    ("p1*p2 + p1 + 1", "p1 + 1"),
    ("1", "p1 + 1"),
    ("1", "1"),
]


def prefixes(path):
    return [path[:i] for i in range(len(path) + 1)]


def c_matrix_tropical(ed, path):
    """Defining route: exponent vectors of the tropical Y-dynamics started at
    the coordinate generators.  Column j is the j-th vector."""
    n = ed.n
    tv = y_vars(n)
    p = tuple(TropMonomial.variable(tv, v) for v in tv)
    one = TropMonomial.one(tv)
    B = ed.B
    for k in path:
        p = mutate_y_tuple(p, B, k, one, one)
        B = mutate_matrix(B, k)
    return tuple(tuple(p[j].exps[i] for j in range(n)) for i in range(n))


def test_c_matrix_walk_matches_frozen_values():
    for pre, expect in zip(prefixes(WALK), C_WALK):
        assert c_matrix(A2, pre) == expect


def test_c_matrix_routes_agree():
    for ed, paths in ((A2, prefixes(WALK)),
                      (B2, prefixes([0, 1, 0, 1, 0, 1])),
                      (A3, prefixes([0, 1, 2, 1, 0, 2]))):
        for pre in paths:
            assert c_matrix(ed, pre) == c_matrix_tropical(ed, pre)


def test_g_matrix_walk_matches_frozen_values():
    for pre, expect in zip(prefixes(WALK), G_WALK):
        assert g_matrix(A2, pre) == expect


def test_g_matrix_routes_agree():
    """Three routes to G: the Fraction inverse of the dual c-matrix, the
    degrees of the principal-coefficient cluster variables, and the integer
    walk step, which must also carry the c-matrix and dual c-matrix."""
    eds = [fixture_exchange(f) for f in sorted(os.listdir(FIXTURES))]
    assert len(eds) == 6
    for ed in eds + [G2, B3, C3]:
        dual = langlands_dual(ed)
        path = [0, 1, 0, 1, 0] if ed.n == 2 else [2, 1, 0, 2, 1]
        rec = ConeRecord.initial(ed)
        for i, pre in enumerate(prefixes(path)):
            if i:
                rec = g_cone_step(rec, pre[-1])
            assert rec.path == tuple(pre)
            assert g_matrix(ed, pre) == g_matrix_degrees(ed, pre) == rec.G
            assert rec.C == c_matrix(ed, pre)
            assert rec.Cd == c_matrix(dual, pre)


def test_g_matrix_degrees_with_a_shared_memo():
    """One memo across every cone of an atlas, filled in breadth-first
    order, gives the memo-free degrees and the duality route's G; each
    cone's path then costs one mutation."""
    for ed in (G2, B3, C3, A4, D4, fixture_exchange("gr25.json")):
        memo = {}
        atlas = enumerate_gfan(ed)
        for cone in atlas.cones:
            G = g_matrix_degrees(ed, cone.path, memo)
            assert G == g_matrix_degrees(ed, cone.path)
            assert G == g_matrix(ed, cone.path)
        assert set(memo) == {cone.path for cone in atlas.cones}
        # a path off the atlas extends the memo from its longest prefix
        path = (0, 1, 0, 1, 0, 1, 0)
        assert g_matrix_degrees(ed, path, memo) == g_matrix(ed, path)
        assert path in memo


def test_principal_grading_gives_each_former_builder_map():
    """The one principal grading, called as each of its call sites calls
    it, gives the degree maps that four separate builders wrote out: the
    principal seed of a matrix with frozen directions (the degree route to
    G), the family's standard grading at n = 3, the dp5 chart and the
    Pluecker extensions."""
    gr25 = fixture_exchange("gr25.json")
    n = gr25.n
    cols = [tuple(row[j] for row in gr25.B[:n]) for j in range(n)]
    assert principal_grading(x_vars(7), p_vars(2), cols).degrees == {
        "x1": (1, 0), "x2": (0, 1), "x3": (0, 0), "x4": (0, 0),
        "x5": (0, 0), "x6": (0, 0), "x7": (0, 0),
        "p1": (0, -1), "p2": (1, 0)}
    assert principal_grading(("X1", "X2", "X3"), ("t1", "t2", "t3"),
                             mat_identity(3)).degrees == {
        "X1": (1, 0, 0), "X2": (0, 1, 0), "X3": (0, 0, 1),
        "t1": (-1, 0, 0), "t2": (0, -1, 0), "t3": (0, 0, -1)}
    assert dp5_grading().degrees == {
        "a1": (1, 0), "a2": (0, 1), "t1": (0, -1), "t2": (1, 0)}
    unit = [tuple(int(i == j) for j in range(7)) for i in range(7)]
    assert principal_grading(GR25_XVARS, ("t13", "t14"),
                             mat_identity(7)).degrees == {
        **dict(zip(GR25_XVARS, unit)),
        "t13": (-1, 0, 0, 0, 0, 0, 0), "t14": (0, -1, 0, 0, 0, 0, 0)}


def test_duality_of_c_and_g():
    for ed, path in ((A2, WALK), (B2, [0, 1, 0]), (A3, [1, 2, 0, 1])):
        G = g_matrix(ed, path)
        Cd = c_matrix(langlands_dual(ed), path)
        assert mat_mul(mat_transpose(G), Cd) == mat_identity(ed.n)
        assert abs(mat_det(G)) == 1
        assert abs(mat_det(Cd)) == 1


def test_sign_coherence_along_walks():
    for ed, path in ((A2, WALK), (B2, [0, 1, 0, 1, 0, 1]),
                     (A3, [0, 1, 2, 0, 1, 2, 0])):
        for pre in prefixes(path):
            assert check_sign_coherence(c_matrix(ed, pre))
    assert not check_sign_coherence(((1, 0), (-1, 1)))
    assert not check_sign_coherence(((0, 1), (0, 1)))


def test_f_polynomials_walk_matches_frozen_values():
    for pre, expect in zip(prefixes(WALK), F_WALK):
        fs = f_polynomials(A2, pre)
        assert tuple(f.to_text() for f in fs) == expect


def test_f_polynomial_invariants_rank3():
    fs = f_polynomials(A3, [0, 1, 2, 1, 0])
    for f in fs:
        assert f.constant_coef() == 1
        assert all(x >= 0 for e in f.terms for x in e)
        assert f.all_coefs_positive()


def test_separation_identities_principal():
    p0 = tuple(TropMonomial.variable(PV, v) for v in PV)
    assert separation_check(A2, p0, WALK)
    for pre in prefixes(WALK):
        assert separation_check(A2, p0, pre)


def test_separation_identities_general_coefficients():
    pv3 = ("p1", "p2", "p3")
    p0 = (TropMonomial(pv3, (2, -1, 0)), TropMonomial(pv3, (0, 1, -2)))
    assert separation_check(A2, p0, [1, 0, 1])
    p0b2 = (TropMonomial(pv3, (1, 1, 0)), TropMonomial(pv3, (-1, 0, 1)))
    assert separation_check(B2, p0b2, [0, 1, 0, 1])
    pva = ("p1", "p2")
    p0a3 = (TropMonomial(pva, (1, 0)), TropMonomial(pva, (0, -1)),
            TropMonomial(pva, (1, 1)))
    assert separation_check(A3, p0a3, [0, 2, 1, 0])


# Planted faults: each replaces one name that ``invariants`` binds, so that
# exactly one identity or guard sees a wrong route, and asserts its message.

P0 = tuple(TropMonomial.variable(PV, v) for v in PV)


def test_separation_shift_form_rejects_a_wrong_coefficient_free_walk(
        monkeypatch):
    """The coefficient-free walk runs on the opposite matrix; only the
    shift form reads it."""
    trivial = YSeedCoeff.initial_trivial.__func__

    def opposite(cls, ed):
        return trivial(cls, ExchangeData(
            tuple(tuple(-b for b in row) for row in ed.B), ed.n))

    monkeypatch.setattr(YSeedCoeff, "initial_trivial", classmethod(opposite))
    with pytest.raises(CheckFailed, match=r"\(shift form\) fails at j=2"):
        separation_check(A2, P0, [0])


def test_separation_f_product_form_rejects_a_wrong_f_polynomial(monkeypatch):
    """Every F-polynomial times 1 + p1: its tropical value at principal
    coefficients stays the same, so the coefficient form still holds."""
    route = invariants.f_polynomials

    def times_one_plus_p1(ed, path):
        F = route(ed, path)
        one = LaurentPoly.one(PV)
        return [f * (one + LaurentPoly.monomial(PV, (1, 0))) for f in F]

    monkeypatch.setattr(invariants, "f_polynomials", times_one_plus_p1)
    with pytest.raises(CheckFailed, match=r"\(F-product form\) fails at j=1"):
        separation_check(A2, P0, WALK)


def test_separation_coefficient_form_rejects_a_wrong_tropical_one(
        monkeypatch):
    """The coefficient form alone starts a product at the tropical one."""

    class ShiftedOne(TropMonomial):
        @classmethod
        def one(cls, vars):
            return TropMonomial(vars, (1,) + (0,) * (len(vars) - 1))

    monkeypatch.setattr(invariants, "TropMonomial", ShiftedOne)
    with pytest.raises(CheckFailed,
                       match=r"\(coefficient form\) fails at j=1"):
        separation_check(A2, P0, WALK)


def test_f_polynomials_reject_a_constant_term_other_than_one(monkeypatch):
    divide = invariants.poly_exact_div
    monkeypatch.setattr(invariants, "poly_exact_div",
                        lambda a, b: divide(a, b).scale(2))
    with pytest.raises(CheckFailed,
                       match=r"constant term of F_1 is not 1: 2\*p1 \+ 2"):
        f_polynomials(A2, [0])


def test_f_polynomials_reject_a_negative_exponent(monkeypatch):
    """The quotient divided by p1: F_1 = 1 + p1^-1 keeps constant term 1."""
    divide = invariants.poly_exact_div
    monkeypatch.setattr(invariants, "poly_exact_div", lambda a, b: divide(
        a, b) * LaurentPoly.monomial(PV, (-1, 0)))
    with pytest.raises(CheckFailed, match="F_1 has a negative exponent"):
        f_polynomials(A2, [0])


def test_separation_on_fixed_paths_makes_pinned_counts(monkeypatch):
    """Exact kernel work over a fixed list of separation checks: polynomial
    products, how many of them have a one-term side, and sums whose parts
    are all monomials, read from the recorded calls; each count is the same
    for every hash seed.  A change that moves a count re-records it here on
    purpose."""
    products = record_calls(monkeypatch, "__mul__", LaurentPoly)
    sums = record_calls(monkeypatch, "prf_sum", exact_algebra)
    pv3 = ("p1", "p2", "p3")
    cases = [
        (A2, tuple(TropMonomial.variable(PV, v) for v in PV), WALK),
        (B2, (TropMonomial(pv3, (1, 1, 0)), TropMonomial(pv3, (-1, 0, 1))),
         [0, 1, 0, 1]),
        (A3, tuple(TropMonomial(pv3, e) for e in
                   [(1, 0, 0), (0, -1, 0), (1, 1, -1)]),
         [0, 2, 1, 0, 1, 2, 0]),
        (D4, tuple(TropMonomial.variable(PV4, v) for v in PV4),
         [0, 1, 2, 3, 1, 0, 2]),
    ]
    for ed, p0, path in cases:
        assert separation_check(ed, p0, path)
    counts = {"products": len(products),
              "one_term_products": sum(len(a.terms) == 1 or len(b.terms) == 1
                                       for (a, b), _ in products),
              "monomial_sums": sum(not any(f.factors for _, f in parts)
                                   for (parts,), _ in sums)}
    assert counts == {"products": 104, "one_term_products": 91,
                      "monomial_sums": 12}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5]),
                      min_size=n, max_size=n), min_size=n, max_size=n),
    st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)),
    st.booleans())))
def test_mat_det_agrees_with_sympy(sympy, drawn):
    """Bareiss elimination in integers against sympy's determinant, on
    sparse matrices (zero pivots force row swaps), and with row a copied
    over row b to make singular inputs."""
    M, a, b, copy = drawn
    if copy and a != b:
        M[b] = list(M[a])
    want = sympy.Matrix(M).det() if M else 1
    got = mat_det(M)
    assert type(got) is int and got == want


def test_mat_det_swaps_rows_and_stops_at_a_zero_column():
    assert mat_det(((0, 1), (1, 0))) == -1
    assert mat_det(((0, 0, 2), (0, 3, 1), (5, 1, 1))) == -30
    assert mat_det(((1, 2, 3), (0, 0, 4), (0, 0, 5))) == 0
    assert mat_det(()) == 1


def test_matrix_helpers():
    M = ((2, 1), (1, 1))
    assert mat_det(M) == 1
    assert mat_inverse_integer(M) == ((1, -1), (-1, 2))
    assert mat_mul(M, mat_inverse_integer(M)) == mat_identity(2)
    # one row swap: the last pivot is 1 and the determinant -1
    assert mat_inverse_integer(((0, 1), (1, 0))) == ((0, 1), (1, 0))
    assert mat_inverse_integer(((0, 1), (1, 3))) == ((-3, 1), (1, 0))
    assert mat_inverse_integer(()) == ()
    with pytest.raises(CheckFailed, match="matrix is singular"):
        mat_inverse_integer(((1, 1), (1, 1)))
    with pytest.raises(CheckFailed, match="inverse is not an integer"):
        mat_inverse_integer(((2, 0), (0, 1)))


def _unimodular(data, n):
    """A permutation matrix times integer row additions, drawn: a random
    unimodular matrix whose elimination swaps rows."""
    perm = data.draw(st.permutations(range(n)))
    M = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
    for _ in range(data.draw(st.integers(0, 8)) if n > 1 else 0):
        i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                  max_size=2, unique=True))
        f = data.draw(st.sampled_from([-2, -1, 1, 2]))
        M[i] = [x + f * y for x, y in zip(M[i], M[j])]
    return M


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5), st.booleans(), st.data())
def test_mat_inverse_integer_agrees_with_sympy(sympy, n, unimodular, data):
    """The Bareiss inverse against sympy's on unimodular matrices, with row
    swaps, and on sparse matrices (zero pivots force row swaps) that are
    mostly singular or not unimodular, where it raises the matching
    message."""
    if unimodular:
        M = _unimodular(data, n)
    else:
        M = data.draw(st.lists(st.lists(
            st.sampled_from([0, 0, 0, 1, -1, 2, -3]), min_size=n,
            max_size=n), min_size=n, max_size=n))
    S = sympy.Matrix(n, n, [x for row in M for x in row])
    if n and S.det() == 0:
        with pytest.raises(CheckFailed, match="^matrix is singular$"):
            mat_inverse_integer(M)
        return
    want = S.inv() if n else S
    if not all(x.is_integer for x in want):
        with pytest.raises(CheckFailed,
                           match="^inverse is not an integer matrix$"):
            mat_inverse_integer(M)
        return
    got = mat_inverse_integer(M)
    assert all(type(x) is int for row in got for x in row)
    assert sympy.Matrix(n, n, [x for row in got for x in row]) == want


def test_invariant_report_structure():
    rep = invariant_report(A2, WALK)
    assert rep["C"] == [list(r) for r in C_WALK[-1]]
    assert rep["G"] == [list(r) for r in G_WALK[-1]]
    assert rep["sign_coherent"] is True
    assert abs(rep["det_C"]) == 1 and abs(rep["det_G"]) == 1
    assert rep["path"] == [2, 1, 2, 1, 2]


# -- third route: Cluster algebras IV (arXiv:math/0602259) in sympy --------------
#
# Nothing below calls the exact-arithmetic engine: matrix and coefficient
# mutation are written out from the paper, rational functions live in
# sympy's fraction field and polynomials in its ring over ZZ, and the
# program is asked only for the values it reports (f_polynomials, c_matrix,
# g_matrix), which are then checked against the paper's formulas.

FZ_TYPES = {"A2": A2, "B2": B2, "G2": G2, "A3": A3,
            "acyclic-triangle": ExchangeData(ACYCLIC_TRIANGLE, 3)}
FZ_MAX_LEN = 5

# A coefficient tuple in the tropical semifield Trop(q1, q2), per rank; its
# entries have mixed signs so that F|Trop is not always trivial.
FZ_Y0 = {2: ((1, -1), (-2, 1)), 3: ((1, 0), (-1, 2), (0, -1))}


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _fz_paths(n):
    """Every path of length 0..FZ_MAX_LEN without an immediate repeat, each
    after its parent."""
    out = [()]
    for path in out:
        if len(path) < FZ_MAX_LEN:
            out += [path + (k,) for k in range(n) if path[-1:] != (k,)]
    return out


def _fz_mutate_matrix(B, k):
    """Matrix mutation, Cluster algebras I (4.3): b'_ij = -b_ij if k is i
    or j, else b_ij + [b_ik]+ [b_kj]+ - [-b_ik]+ [-b_kj]+."""
    n = len(B)
    return tuple(tuple(-B[i][j] if k in (i, j) else
                       B[i][j] + max(B[i][k], 0) * max(B[k][j], 0)
                       - max(-B[i][k], 0) * max(-B[k][j], 0)
                       for j in range(n)) for i in range(n))


def _trop_mutate(y, B, k):
    """Y-seed mutation (2.3) in a tropical semifield, on exponent vectors:
    y_k -> y_k^-1, y_j -> y_j y_k^[b_kj]+ (y_k (+) 1)^-b_kj."""
    return tuple(tuple(-c for c in y[k]) if j == k else
                 tuple(a + max(B[k][j], 0) * c - B[k][j] * min(c, 0)
                       for a, c in zip(yj, y[k]))
                 for j, yj in enumerate(y))


def _trop_eval(f, y):
    """F|Trop(y): the tropical sum (componentwise minimum) over F's terms of
    the exponent vector prod_i y_i^e_i."""
    return tuple(min(sum(e[i] * y[i][r] for i in range(len(y)))
                     for e in f.terms) for r in range(len(y[0])))


def _eval(f, args, one):
    """The polynomial f (a term map) at the sympy values args."""
    out = 0 * one
    for e, c in f.terms.items():
        m = c * one
        for a, x in zip(args, e):
            m *= a ** x
        out += m
    return out


def _fz_walk(ed, start, step):
    """The state ``start`` carried along every path of ``_fz_paths`` by
    ``step(state, B, k)``, with B the exchange matrix at the parent; yields
    (path, exchange matrix at the path, state)."""
    states = {(): (ed.B, start)}
    for path in _fz_paths(ed.n):
        if path:
            B, state = states[path[:-1]]
            k = path[-1]
            states[path] = (_fz_mutate_matrix(B, k), step(state, B, k))
        yield path, states[path][0], states[path][1]


@pytest.mark.parametrize("name", sorted(FZ_TYPES))
def test_separation_formula_of_cluster_algebras_iv(sympy, name):
    """Cluster variables and coefficients computed by the exchange relation
    with coefficients in Trop(q1, q2), along every path of length up to 5,
    satisfy the separation formulas with the program's F-polynomials,
    c-vectors and g-vectors:

    * Cor. 6.3: x_l;t = x^g_l F_l;t(y^_1..y^_n) / F_l;t|Trop(y), where
      y^_j = y_j prod_i x_i^b_ij over the initial matrix;
    * Prop. 3.13: y_j;t = y^c_j prod_i F_i;t|Trop(y)^b_ij;t.
    """
    from sympy.polys.fields import field

    ed = FZ_TYPES[name]
    n = ed.n
    K, *gens = field(",".join([f"x{i + 1}" for i in range(n)]
                              + ["q1", "q2"]), sympy.ZZ)
    xs, qs = gens[:n], gens[n:]
    one = K.one

    def mono(e, base=qs):
        out = one
        for a, x in zip(base, e):
            out *= a ** x
        return out

    y0 = FZ_Y0[n]
    yhat = [mono(y0[j]) * mono([ed.B[i][j] for i in range(n)], xs)
            for j in range(n)]

    def step(seed, B, k):
        """Exchange relation (2.15): x_k x_k' = y_k/(y_k (+) 1) prod x^[b_ik]+
        + 1/(y_k (+) 1) prod x^[-b_ik]+, with the coefficients mutated by
        (2.3)."""
        x, y = seed
        plus = mono([max(c, 0) for c in y[k]])
        minus = mono([max(-c, 0) for c in y[k]])
        for i in range(n):
            plus *= x[i] ** max(B[i][k], 0)
            minus *= x[i] ** max(-B[i][k], 0)
        x = list(x)
        x[k] = (plus + minus) / x[k]
        return tuple(x), _trop_mutate(y, B, k)

    count = 0
    for path, B, (x, y) in _fz_walk(ed, (tuple(xs), y0), step):
        F = f_polynomials(ed, path)
        C = c_matrix(ed, path)
        G = g_matrix(ed, path)
        trop = [_trop_eval(f, y0) for f in F]
        for l in range(n):
            want = (mono([G[i][l] for i in range(n)], xs)
                    * _eval(F[l], yhat, one) / mono(trop[l]))
            assert x[l] == want, (name, path, l)
        for j in range(n):
            want = tuple(sum(C[i][j] * y0[i][r] + B[i][j] * trop[i][r]
                             for i in range(n)) for r in range(2))
            assert y[j] == want, (name, path, j)
        count += 1
    assert count == 1 + sum(n * (n - 1) ** i for i in range(FZ_MAX_LEN))


@pytest.mark.parametrize("name", sorted(FZ_TYPES))
def test_f_polynomial_recurrence_of_cluster_algebras_iv(sympy, name):
    """F-polynomials built by their own recurrence in ZZ[y], Prop. 5.1,
    along every path of length up to 5, equal the program's: F_l;t' =
    F_l;t for l != k, and F_k;t' is (prod_j y_j^[c_jk]+ prod_i F_i^[b_ik]+
    + prod_j y_j^[-c_jk]+ prod_i F_i^[-b_ik]+) divided exactly by F_k;t.
    The c-vectors follow (5.9) and must equal the program's too."""
    from sympy.polys.rings import ring

    ed = FZ_TYPES[name]
    n = ed.n
    R, *ys = ring(",".join(f"y{i + 1}" for i in range(n)), sympy.ZZ)

    def step(state, B, k):
        F, C = state
        plus, minus = R.one, R.one
        for j in range(n):
            plus *= ys[j] ** max(C[j][k], 0)
            minus *= ys[j] ** max(-C[j][k], 0)
        for i in range(n):
            plus *= F[i] ** max(B[i][k], 0)
            minus *= F[i] ** max(-B[i][k], 0)
        F = list(F)
        F[k] = (plus + minus).exquo(F[k])
        C = tuple(tuple(-C[i][j] if j == k else
                        C[i][j] + C[i][k] * max(B[k][j], 0)
                        + max(-C[i][k], 0) * B[k][j]
                        for j in range(n)) for i in range(n))
        return tuple(F), C

    start = ((R.one,) * n, mat_identity(n))
    for path, _, (F, C) in _fz_walk(ed, start, step):
        assert C == c_matrix(ed, path), (name, path)
        got = f_polynomials(ed, path)
        for l in range(n):
            assert _eval(got[l], ys, R.one) == F[l], (name, path, l)


# -- second route to F: principal-coefficient cluster seeds ---------------------
#
# The cluster variables with principal coefficients, computed as factored
# rational functions in x1..xn, p1..pn, give the F-polynomials when every x
# is set to 1 (Cluster algebras IV, Definition 3.3).  This route keeps the
# Prop. 5.1 recurrence of ``f_polynomials`` from being compared only with a
# copy of itself.

def f_polynomials_from_cluster_seed(seed):
    """Reference route to the F-polynomials: the principal-coefficient
    cluster variables of ``seed``, rational functions in x1..xn and
    p1..pn, expanded, with every x set to 1 and divided exactly."""
    n = seed.exchange.n
    pv = p_vars(n)
    kill = {f"x{i + 1}": (0,) * n for i in range(n)}
    out = []
    for x in seed.x[:n]:
        num, den = x.expand()
        out.append(poly_exact_div(num.substitute_monomials(kill, pv),
                                  den.substitute_monomials(kill, pv)))
    return out


@pytest.mark.parametrize("name", sorted(FZ_TYPES))
def test_f_polynomials_match_principal_cluster_variables(name):
    """The recurrence of ``f_polynomials`` against the principal-coefficient
    cluster seed, mutated by the exchange relation in 2n variables, along
    every path of length up to 5.  The two routes share only polynomial
    multiplication and exact division."""
    ed = FZ_TYPES[name]
    start = ClusterSeedCoeff.initial_principal(ed)
    count = 0
    for path, _, seed in _fz_walk(ed, start,
                                  lambda seed, _, k: mutate_cluster_seed(seed, k)):
        want = f_polynomials_from_cluster_seed(seed)
        assert f_polynomials(ed, path) == want, (name, path)
        count += 1
    assert count == 1 + sum(ed.n * (ed.n - 1) ** i for i in range(FZ_MAX_LEN))
