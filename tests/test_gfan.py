"""Fan enumeration, fan axioms, stars, and rank-2 polytopes."""

import pytest

from cluster_forge.invariants import CheckFailed, mat_identity
from cluster_forge.gfan import (
    ConeRecord,
    FanDepthExceeded,
    check_fan,
    enumerate_gfan,
    fan_to_json,
    g_cone_step,
    normal_fan_of_polygon,
    polytope_P,
    primitive,
    star,
)
from cluster_forge.seeds import ExchangeData

A1 = ExchangeData(((0,),), 1)
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
# same rank-3 shape with reversed arrows, used for the frozen-direction fan
A3_REV = ExchangeData(((0, -1, 0), (1, 0, -1), (0, 1, 0)), 3)
MARKOV = ExchangeData(((0, 2, -2), (-2, 0, 2), (2, -2, 0)), 3)

A2_RAYS = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, 0))
A2_CONE_CYCLE = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]
B2_RAYS = ((-1, 0), (0, -1), (0, 1), (1, -2), (1, -1), (1, 0))


def test_cone_counts():
    assert len(enumerate_gfan(A1).cones) == 2
    assert len(enumerate_gfan(A2).cones) == 5
    assert len(enumerate_gfan(B2).cones) == 6
    assert len(enumerate_gfan(A3).cones) == 14
    # the numbers of clusters of finite types G2, B3, C3, A4 and D4
    assert len(enumerate_gfan(G2).cones) == 8
    assert len(enumerate_gfan(B3).cones) == 20
    assert len(enumerate_gfan(C3).cones) == 20
    assert len(enumerate_gfan(A4).cones) == 42
    assert len(enumerate_gfan(D4).cones) == 50


@pytest.mark.parametrize("ed", [A2, B2, G2, A3, B3, C3, A4, D4],
                         ids=["a2", "b2", "g2", "a3", "b3", "c3", "a4", "d4"])
def test_cone_by_key_agrees_with_a_linear_scan(ed):
    atlas = enumerate_gfan(ed)
    for cone in atlas.cones:
        for k in range(ed.n):
            key = g_cone_step(cone, k).key()
            scan = next(c for c in atlas.cones if c.key() == key)
            assert atlas.cone_by_key(key) is scan
    assert atlas.cone_by_key(frozenset({(2,) * ed.n})) is None
    assert atlas.cone_by_key(frozenset()) is None


def test_a2_rays_and_cones():
    atlas = enumerate_gfan(A2)
    assert atlas.rays == A2_RAYS
    expect = {frozenset((A2_CONE_CYCLE[i], A2_CONE_CYCLE[(i + 1) % 5]))
              for i in range(5)}
    assert {c.key() for c in atlas.cones} == expect


def test_b2_rays():
    atlas = enumerate_gfan(B2)
    assert atlas.rays == B2_RAYS


def test_fan_axioms_hold():
    for ed in (A1, A2, B2, A3, G2, B3, C3, A4, D4):
        assert check_fan(enumerate_gfan(ed))


def test_g_cone_step_needs_a_sign_coherent_column():
    rec = ConeRecord(None, (1, 0), A2.B, ((1, 0), (-1, 1)), mat_identity(2),
                     mat_identity(2))
    with pytest.raises(CheckFailed, match=r"path 2,1: c-vector 1 \(1, -1\)"):
        g_cone_step(rec, 0)
    with pytest.raises(CheckFailed, match="c-vector 2"):
        g_cone_step(ConeRecord(None, (), A2.B, ((1, 0), (0, 0)),
                               mat_identity(2), mat_identity(2)), 1)
    assert g_cone_step(rec, 1).path == (1, 0, 1)


def test_adjacency_walks_every_wall():
    atlas = enumerate_gfan(A3)
    n = atlas.ed.n
    for c in atlas.cones:
        for k in range(n):
            assert (c.index, k) in atlas.adjacency
            other = atlas.cones[atlas.adjacency[(c.index, k)]]
            assert other.index != c.index
            shared = c.key() & other.key()
            assert len(shared) == n - 1


def test_depth_cap_detects_infinite_fan():
    with pytest.raises(FanDepthExceeded):
        enumerate_gfan(MARKOV, depth_cap=4)


def test_restricted_direction_fan():
    atlas = enumerate_gfan(A3_REV, allowed=(1, 2))
    assert len(atlas.cones) == 5
    # every cone keeps the untouched first unit generator
    for c in atlas.cones:
        assert (1, 0, 0) in c.generators()
    # a proper subfan: axioms hold but it is not complete
    assert check_fan(atlas, require_complete=False)
    with pytest.raises(CheckFailed):
        check_fan(atlas, require_complete=True)


def test_star_of_a_ray_in_rank_2():
    atlas = enumerate_gfan(A2)
    st = star(atlas, [(1, 0)])
    assert len(st.proj_cones) == 2
    cols = {cols for _, cols in st.proj_cones}
    assert cols == {((1,),), ((-1,),)}
    assert st.restricted.B == ((0,),)
    assert st.restricted.n == 1


def test_star_of_a_ray_in_rank_3():
    atlas = enumerate_gfan(A3)
    st = star(atlas, [(1, 0, 0)])
    # projected cones form a rank-2 fan around the chosen ray
    assert all(len(cols) == 2 for _, cols in st.proj_cones)
    assert len(st.proj_cones) >= 3
    assert st.restricted.n == 2


def test_polytope_rank_2():
    atlas = enumerate_gfan(A2)
    P = polytope_P(atlas)
    assert set(P["vertices"]) == set(A2_RAYS)
    assert P["reflexive"] is True
    assert P["interior_points"] == [(0, 0)]
    assert set(P["polar_vertices"]) == {(1, 1), (0, 1), (-1, 0), (-1, -1),
                                        (1, -1)}
    assert P["face_fan_matches"] is True
    # the normal fan of the polar dual is the face fan of the hull
    polar_ccw = sorted(P["polar_vertices"])  # re-hull to get an order
    from cluster_forge.gfan import _hull_2d
    nf = normal_fan_of_polygon(_hull_2d(P["polar_vertices"]))
    assert nf == {c.key() for c in atlas.cones}


def test_polytope_rank_1():
    atlas = enumerate_gfan(A1)
    P = polytope_P(atlas)
    assert P["vertices"] == [(-1,), (1,)]
    assert P["reflexive"] and P["face_fan_matches"]
    assert P["interior_points"] == [(0,)]


def test_polytope_rejects_non_vertex_rays():
    # rank-2 fan whose rays are not in convex position does not arise here,
    # but the hull check must also reject a non-interior origin
    atlas = enumerate_gfan(A2, allowed=(0,))
    with pytest.raises(CheckFailed):
        polytope_P(atlas)


def test_primitive_vectors():
    assert primitive((2, -4)) == (1, -2)
    assert primitive((0, 0)) is None
    assert primitive((0, -3)) == (0, -1)


def test_fan_json_shape():
    atlas = enumerate_gfan(A2)
    obj = fan_to_json(atlas)
    assert len(obj["rays"]) == 5
    assert len(obj["maximal_cones"]) == 5
    assert all(len(c) == 2 for c in obj["maximal_cones"])
    assert len(obj["dual_rays"]) == 5
    assert obj["paths"][0] == []
    assert obj["seed"]["B"] == [[0, 1], [-1, 0]]
