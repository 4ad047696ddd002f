"""Path invariants: frozen rank-2 walk oracles, dual-route cross-checks,
separation identities."""

import json
import os

import pytest

from cluster_forge.gfan import ConeRecord, enumerate_gfan, g_cone_step
from cluster_forge.invariants import (
    CheckFailed,
    c_matrix,
    c_matrix_tropical,
    check_sign_coherence,
    f_polynomials,
    g_matrix,
    g_matrix_degrees,
    invariant_report,
    mat_det,
    mat_identity,
    mat_inverse,
    mat_inverse_integer,
    mat_mul,
    mat_transpose,
    separation_check,
)
from cluster_forge.seeds import ExchangeData, langlands_dual, seed_from_json
from cluster_forge.semifields import TropMonomial

A2 = ExchangeData(((0, 1), (-1, 0)), 2)
B2 = ExchangeData(((0, -1), (2, 0)), 2, (2, 1))
A3 = ExchangeData(((0, 1, 0), (-1, 0, 1), (0, -1, 0)), 3)
G2 = ExchangeData(((0, -1), (3, 0)), 2, (3, 1))
B3 = ExchangeData(((0, 1, 0), (-1, 0, 1), (0, -2, 0)), 3, (2, 2, 1))
C3 = ExchangeData(((0, 1, 0), (-1, 0, 2), (0, -1, 0)), 3, (1, 1, 2))
A4 = ExchangeData(((0, 1, 0, 0), (-1, 0, 1, 0), (0, -1, 0, 1),
                   (0, 0, -1, 0)), 4)
D4 = ExchangeData(((0, 1, 0, 0), (-1, 0, 1, 1), (0, -1, 0, 0),
                   (0, -1, 0, 0)), 4)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src",
                        "cluster_forge", "fixtures")


def fixture_exchange(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return seed_from_json(json.load(fh))[0]


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


def test_matrix_helpers():
    M = ((2, 1), (1, 1))
    assert mat_det(M) == 1
    assert mat_inverse_integer(M) == ((1, -1), (-1, 2))
    assert mat_mul(M, mat_inverse_integer(M)) == mat_identity(2)
    with pytest.raises(CheckFailed):
        mat_inverse(((1, 1), (1, 1)))
    with pytest.raises(CheckFailed):
        mat_inverse_integer(((2, 0), (0, 1)))


def test_invariant_report_structure():
    rep = invariant_report(A2, WALK)
    assert rep["C"] == [list(r) for r in C_WALK[-1]]
    assert rep["G"] == [list(r) for r in G_WALK[-1]]
    assert rep["sign_coherent"] is True
    assert abs(rep["det_C"]) == 1 and abs(rep["det_G"]) == 1
    assert rep["path"] == [2, 1, 2, 1, 2]
