"""Seed mutation dynamics: frozen small-rank oracles and exchange axioms."""

import json
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from cluster_forge.exact_algebra import LaurentPoly, PosRatFunc, rat_equal
from cluster_forge.gfan import ConeRecord, g_cone_step
from cluster_forge.invariants import c_matrix_step
from cluster_forge.semifields import TropMonomial
from cluster_forge.seeds import (
    ClusterSeedCoeff,
    ExchangeData,
    YSeedCoeff,
    langlands_dual,
    mutate_cluster_seed,
    mutate_matrix,
    mutate_y_seed,
    mutate_y_tuple,
    p_star_pullback,
    principal_extension,
    replay,
    seed_from_json,
)

A2 = ((0, 1), (-1, 0))
B2 = ((0, -1), (2, 0))
A3 = ((0, 1, 0), (-1, 0, 1), (0, -1, 0))

YP = ("y1", "y2", "p1", "p2")


def test_matrix_mutation_oracles():
    assert mutate_matrix(A2, 0) == ((0, -1), (1, 0))
    assert mutate_matrix(B2, 0) == ((0, 1), (-2, 0))
    # involution
    for B in (A2, B2, A3):
        for k in range(len(B)):
            assert mutate_matrix(mutate_matrix(B, k), k) == B


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.integers(0, n - 1), st.sets(st.integers(0, n - 1)))))
def test_matrix_mutation_commutes_with_principal_submatrices(drawn):
    """Entry (i, j) of the mutation in direction k reads only b_ij, b_ik
    and b_kj, so mutating a principal submatrix that contains k gives the
    submatrix of the mutation, for any square integer matrix."""
    B, k, rest = drawn
    keep = sorted(rest | {k})

    def sub(M):
        return tuple(tuple(M[i][j] for j in keep) for i in keep)

    B = tuple(map(tuple, B))
    assert mutate_matrix(sub(B), keep.index(k)) == sub(mutate_matrix(B, k))


def skew_symmetrizable_data(size=5):
    """Exchange data up to size x size: a mutable block with d_i b_ij =
    -d_j b_ji (b_ij = t lcm(d_i, d_j) / d_i for a drawn t), any integers
    elsewhere, so frozen rows and columns are arbitrary; and a path of
    mutable directions."""
    def build(n, d, ts, rest, path):
        B = [list(row) for row in rest]
        for (i, j), t in zip(combinations(range(n), 2), ts):
            L = lcm(d[i], d[j])
            B[i][j], B[j][i] = t * L // d[i], -t * L // d[j]
        for i in range(n):
            B[i][i] = 0
        return ExchangeData(B, n, d), [k % n for k in path]

    def sized(nN):
        n, N = nN
        return st.builds(
            build, st.just(n),
            st.lists(st.integers(1, 3), min_size=N, max_size=N),
            st.lists(st.integers(-2, 2), min_size=n * (n - 1) // 2,
                     max_size=n * (n - 1) // 2),
            st.lists(st.lists(st.integers(-3, 3), min_size=N, max_size=N),
                     min_size=N, max_size=N),
            st.lists(st.integers(0, size - 1), max_size=6))
    return st.integers(1, size).flatmap(
        lambda N: st.tuples(st.integers(1, N), st.just(N))).flatmap(sized)


@settings(max_examples=200, deadline=None)
@given(skew_symmetrizable_data())
def test_mutation_keeps_what_the_validating_constructor_checks(drawn):
    """``ExchangeData.mutate`` builds its result without checks; the
    validating constructor accepts every result along a path, and gives
    back an equal value of int tuples."""
    ed, path = drawn
    for k in path:
        ed = ed.mutate(k)
        assert ExchangeData(ed.B, ed.n, ed.d) == ed
        assert type(ed.B) is tuple and all(
            type(row) is tuple and all(type(x) is int for x in row)
            for row in ed.B)


# -- integer step kernels against their entry-by-entry forms -------------------

def _sign(x):
    return (x > 0) - (x < 0)


def _mutate_matrix_by_entries(B, k):
    """Matrix mutation read entry by entry over all N^2 entries."""
    N = len(B)
    return tuple(tuple(-B[i][j] if k in (i, j) else
                       B[i][j] + _sign(B[i][k]) * max(B[i][k] * B[k][j], 0)
                       for j in range(N)) for i in range(N))


def _c_matrix_step_by_entries(C, B, k):
    """The c-vector recurrence read entry by entry, rescanning row k of B
    for every row of C."""
    n = len(C)
    return tuple(tuple(-C[i][k] if j == k else
                       C[i][j] + _sign(B[k][j]) * max(B[k][j] * C[i][k], 0)
                       for j in range(n)) for i in range(n))


def _g_cone_step_by_matrices(cone, k):
    """The walk step with the dual c-matrix stepped through the whole
    negated transpose of B, and column k of G summed row by row."""
    n = len(cone.C)
    B = cone.B
    col = tuple(row[k] for row in cone.C)
    e = 1 if max(col) > 0 else -1
    terms = [(l, -e * row[k]) for l, row in enumerate(B[:n])
             if -e * row[k] > 0]
    g = [sum(row[l] * a for l, a in terms) - row[k] for row in cone.G]
    G = tuple(row[:k] + (x,) + row[k + 1:] for row, x in zip(cone.G, g))
    Bd = tuple(tuple(-B[j][i] for j in range(n)) for i in range(n))
    return ConeRecord(None, cone.path + (k,), _mutate_matrix_by_entries(B, k),
                      _c_matrix_step_by_entries(cone.C, B, k), G,
                      _c_matrix_step_by_entries(cone.Cd, Bd, k))


@settings(max_examples=200, deadline=None)
@given(skew_symmetrizable_data(size=6), st.data())
def test_matrix_and_c_matrix_steps_equal_their_entry_by_entry_forms(drawn,
                                                                     data):
    """``mutate_matrix`` and ``c_matrix_step`` touch only the entries that
    move; along a path, on exchange data up to 6x6 with frozen rows and
    columns and on any integer n x n matrix C, each equals its form read
    entry by entry, as a tuple of int tuples."""
    ed, path = drawn
    n = ed.n
    C = tuple(tuple(row) for row in data.draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    B = ed.B
    for k in path:
        C, want = c_matrix_step(C, B, k), _c_matrix_step_by_entries(C, B, k)
        assert C == want
        B, want = mutate_matrix(B, k), _mutate_matrix_by_entries(B, k)
        assert B == want
        assert all(type(row) is tuple for row in B + C)


@settings(max_examples=200, deadline=None)
@given(skew_symmetrizable_data(size=6))
def test_g_cone_step_equals_its_form_through_whole_matrices(drawn):
    """``g_cone_step`` steps the dual c-matrix through the negated column k
    of B alone and sums column k of G once per term; along a path from the
    initial cone, frozen rows and columns included, every record's B, C,
    G, dual C and path equal the step through whole matrices."""
    ed, path = drawn
    rec = ConeRecord.initial(ed)
    for k in path:
        rec, want = g_cone_step(rec, k), _g_cone_step_by_matrices(rec, k)
        assert ((rec.B, rec.C, rec.G, rec.Cd, rec.path)
                == (want.B, want.C, want.G, want.Cd, want.path))


def test_exchange_data_validation():
    ExchangeData(B2, 2, (2, 1))
    with pytest.raises(ValueError):
        ExchangeData(B2, 2, (1, 1))
    with pytest.raises(ValueError):
        ExchangeData(((1, 0), (0, 0)), 2, (1, 1))
    with pytest.raises(ValueError):
        ExchangeData(((0, 1), (-1, 0), (0, 0)), 2)


def _prf(num_terms, den_exps=None, den_terms=None):
    if num_terms:
        f = PosRatFunc.from_poly(LaurentPoly(YP, num_terms))
    else:
        f = PosRatFunc.one(YP)
    if den_exps is not None:
        f = f.mul(PosRatFunc.monomial(YP, den_exps).inv())
    if den_terms is not None:
        f = f.mul(PosRatFunc.from_poly(LaurentPoly(YP, den_terms)).inv())
    return f


# Frozen expected walk for the rank-2 alternating-arrow matrix, mutating
# directions 2,1,2,1,2 (1-based): matrices, coefficient exponent pairs, and
# Y-variables at every step.
A2_WALK = [
    # (B, p exponents, y values)
    (A2, ((1, 0), (0, 1)),
     (_prf({(1, 0, 0, 0): 1}), _prf({(0, 1, 0, 0): 1}))),
    (((0, -1), (1, 0)), ((1, 0), (0, -1)),
     (_prf({(1, 0, 0, 0): 1, (1, 1, 0, 1): 1}), _prf({}, (0, 1, 0, 0)))),
    (A2, ((-1, 0), (0, -1)),
     (_prf({(0, 0, 0, 0): 1}, (1, 0, 0, 0),
           {(0, 0, 0, 0): 1, (0, 1, 0, 1): 1}),
      _prf({(0, 0, 0, 0): 1, (1, 0, 1, 0): 1, (1, 1, 1, 1): 1}, (0, 1, 0, 0)))),
    (((0, -1), (1, 0)), ((-1, -1), (0, 1)),
     (_prf({(0, 0, 0, 0): 1, (1, 0, 1, 0): 1}, (1, 1, 0, 0)),
      _prf({(0, 1, 0, 0): 1}, None,
           {(0, 0, 0, 0): 1, (1, 0, 1, 0): 1, (1, 1, 1, 1): 1}))),
    (A2, ((1, 1), (-1, 0)),
     (_prf({(1, 1, 0, 0): 1}, None, {(0, 0, 0, 0): 1, (1, 0, 1, 0): 1}),
      _prf({}, (1, 0, 0, 0)))),
    (((0, -1), (1, 0)), ((0, 1), (1, 0)),
     (_prf({(0, 1, 0, 0): 1}), _prf({(1, 0, 0, 0): 1}))),
]


def test_y_seed_walk_matches_frozen_table():
    seed = YSeedCoeff.initial_principal(ExchangeData(A2, 2))
    path = [1, 0, 1, 0, 1]
    states = [seed]
    for k in path:
        states.append(mutate_y_seed(states[-1], k))
    assert len(states) == len(A2_WALK)
    for step, (B, p_exps, ys) in enumerate(A2_WALK):
        s = states[step]
        assert s.exchange.B == B, f"matrix mismatch at step {step}"
        assert tuple(m.exps for m in s.p) == p_exps, f"coeffs at step {step}"
        for j in range(2):
            assert rat_equal(s.y[j], ys[j]), f"y{j + 1} at step {step}"


def test_y_seed_walk_returns_to_start_up_to_swap():
    seed = YSeedCoeff.initial_principal(ExchangeData(A2, 2))
    s = seed
    for k in [1, 0, 1, 0, 1]:
        s = mutate_y_seed(s, k)
    # final state is the initial one with indices 1 and 2 exchanged
    assert s.p[0] == seed.p[1] and s.p[1] == seed.p[0]
    assert rat_equal(s.y[0], seed.y[1]) and rat_equal(s.y[1], seed.y[0])
    assert s.exchange.B == ((0, -1), (1, 0))


def test_y_seed_mutation_is_an_involution():
    for B, n in ((A2, 2), (B2, 2), (A3, 3)):
        d = (2, 1) if B is B2 else None
        seed = YSeedCoeff.initial_principal(ExchangeData(B, n, d))
        # also from a non-initial state
        seed = mutate_y_seed(seed, 0)
        for k in range(n):
            back = mutate_y_seed(mutate_y_seed(seed, k), k)
            assert back.exchange == seed.exchange
            assert back.p == seed.p
            for j in range(n):
                assert rat_equal(back.y[j], seed.y[j])


def tropical_closed_form(p, B, k):
    """Reference for the coefficient rule on tropical exponent vectors:
    p_k inverts, and p_j becomes p_j * (1 (+) p_k^(-sgn b))^(-b) with
    b = B[k][j], where (+) is the componentwise minimum."""
    out = []
    for j, pj in enumerate(p):
        if j == k:
            out.append(tuple(-x for x in pj))
            continue
        b = B[k][j]
        s = (b > 0) - (b < 0)
        base = tuple(min(0, -s * x) for x in p[k])
        out.append(tuple(x - b * y for x, y in zip(pj, base)))
    return out


def coefficient_rule_cases():
    """A tuple of n tropical exponent vectors, a matrix whose rows run on
    over two frozen directions, and a direction."""
    def case(n):
        row = st.tuples(*[st.integers(-3, 3)] * (n + 2))
        vec = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
        return st.tuples(st.tuples(*[vec] * n), st.tuples(*[row] * n),
                         st.integers(0, n - 1))
    return st.integers(1, 4).flatmap(case)


@settings(max_examples=80, deadline=None)
@given(coefficient_rule_cases())
def test_coefficient_rule_matches_the_tropical_closed_form(case):
    exps, B, k = case
    pv = ("p1", "p2")
    one = TropMonomial.one(pv)
    p = tuple(TropMonomial(pv, e) for e in exps)
    got = mutate_y_tuple(p, B, k, one, one)
    assert [m.exps for m in got] == tropical_closed_form(exps, B, k)


def test_cluster_seed_coefficient_free_five_cycle():
    ed = ExchangeData(A2, 2)
    seed = ClusterSeedCoeff.initial(
        ed, tuple(TropMonomial.one(()) for _ in range(2)))
    xv = seed.vars
    s = seed
    for k in [0, 1, 0, 1, 0]:
        s = mutate_cluster_seed(s, k)
    assert rat_equal(s.x[0], PosRatFunc.variable(xv, "x2"))
    assert rat_equal(s.x[1], PosRatFunc.variable(xv, "x1"))
    # first new variable is the classic exchange
    first = mutate_cluster_seed(seed, 0)
    expect = PosRatFunc.from_poly(
        LaurentPoly(xv, {(0, 0): 1, (0, 1): 1})).mul(
        PosRatFunc.variable(xv, "x1").inv())
    assert rat_equal(first.x[0], expect)


def test_cluster_seed_mutation_is_an_involution():
    ed = ExchangeData(A3, 3)
    seed = ClusterSeedCoeff.initial_principal(ed)
    seed = mutate_cluster_seed(seed, 1)
    for k in range(3):
        back = mutate_cluster_seed(mutate_cluster_seed(seed, k), k)
        assert back.exchange == seed.exchange
        assert back.p == seed.p
        for j in range(3):
            assert rat_equal(back.x[j], seed.x[j])


def test_extended_seed_blocks():
    ext = principal_extension(ExchangeData(A2, 2))
    assert ext.B == (
        (0, 1, -1, 0),
        (-1, 0, 0, -1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )
    assert ext.n == 2 and ext.m == 2 and ext.d == (1, 1, 1, 1)
    # the frozen copy repeats the multipliers
    ext2 = principal_extension(ExchangeData(B2, 2, (2, 1)))
    assert ext2.B == (
        (0, -1, -1, 0),
        (2, 0, 0, -1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )
    assert ext2.d == (2, 1, 2, 1)


def test_replay_steps_once_per_new_prefix_from_the_longest_stored_one():
    steps = []

    def step(value, k):
        steps.append((value, k))
        return value + (k,)

    memo = {(): ()}
    assert replay(memo, (0, 1, 2), step) == (0, 1, 2)
    assert steps == [((), 0), ((0,), 1), ((0, 1), 2)]
    assert set(memo) == {(), (0,), (0, 1), (0, 1, 2)}
    steps.clear()
    assert replay(memo, (0, 1, 2), step) == (0, 1, 2)
    assert replay(memo, (0,), step) == (0,)
    assert steps == []
    assert replay(memo, (0, 1, 0, 2), step) == (0, 1, 0, 2)
    assert steps == [((0, 1), 0), ((0, 1, 0), 2)]
    # the walk continues from the stored value itself
    steps.clear()
    memo[(2,)] = ("stored",)
    assert replay(memo, (2, 1), step) == ("stored", 1)
    assert steps == [(("stored",), 1)]
    assert memo[(2, 1)] == ("stored", 1)


def test_frozen_variables_reproduce_tropical_coefficients():
    # mutate the same seed two ways: tropical coefficient tuple vs frozen
    # variables on the extended matrix; cluster variables must agree under
    # the renaming of frozen variables to coefficient variables.
    ed = ExchangeData(A2, 2)
    prin = ClusterSeedCoeff.initial_principal(ed)
    ext = ClusterSeedCoeff.initial(
        principal_extension(ed),
        tuple(TropMonomial.one(()) for _ in range(2)))
    rename = {"x3": (0, 0, 1, 0), "x4": (0, 0, 0, 1)}
    for path in ([0], [0, 1], [1, 0, 1], [0, 1, 0, 1, 0]):
        a, b = prin, ext
        for k in path:
            a = mutate_cluster_seed(a, k)
            b = mutate_cluster_seed(b, k)
        for j in range(2):
            renamed = b.x[j].substitute_monomials(rename, prin.vars)
            assert rat_equal(renamed, a.x[j])
        # the tropical coefficient tuple shows up as the frozen rows of the
        # extended matrix
        for j in range(2):
            assert a.p[j].exps == tuple(b.exchange.B[2 + i][j] for i in range(2))


def test_column_and_row_monomials():
    ext = principal_extension(ExchangeData(A2, 2))
    rows = p_star_pullback(ext)
    assert rows[0].unit == (0, 1, -1, 0)
    assert rows[1].unit == (-1, 0, 0, -1)


def test_langlands_dual_oracles():
    ed = ExchangeData(B2, 2, (2, 1))
    dual = langlands_dual(ed)
    assert dual.B == ((0, -2), (1, 0))
    assert dual.d == (1, 2)
    assert langlands_dual(dual).B == ed.B and langlands_dual(dual).d == ed.d
    # skew-symmetric data is self-dual up to nothing: d stays all ones
    ed2 = ExchangeData(A2, 2)
    assert langlands_dual(ed2).B == ((0, 1), (-1, 0))
    assert langlands_dual(ed2).d == (1, 1)


def test_seed_json_round_trip():
    """A literal seed object, as JSON text, parses to its exchange data with
    multipliers and its rank-3 coefficient tuple."""
    obj = json.loads('{"n": 2, "m": 0, "d": [2, 1], "B": [[0, -1], [2, 0]], '
                     '"coeff_rank": 3, "p": [[1, 0, -2], [0, 1, 1]]}')
    ed, p = seed_from_json(obj)
    pv = ("p1", "p2", "p3")
    assert ed == ExchangeData(B2, 2, (2, 1)) and ed.m == 0
    assert p == (TropMonomial(pv, (1, 0, -2)), TropMonomial(pv, (0, 1, 1)))
