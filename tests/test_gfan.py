"""Fan enumeration, fan axioms, stars, and rank-2 polytopes."""

from math import gcd

import pytest

from cluster_forge.invariants import CheckFailed, mat_det, mat_identity
from cluster_forge.gfan import (
    ConeRecord,
    InfiniteType,
    dot,
    enumerate_gfan,
    fan_to_json,
    g_cone_step,
    g_vector_step,
    normal_fan_of_polygon,
    polytope_P,
    primitive,
    star,
    two_faces,
)
from cluster_forge.seeds import ExchangeData, mutate_matrix
from support import (A2, A3, A4, ACYCLIC_TRIANGLE, B2, B3, C3, D4, G2,
                     fixture_exchange)

A1 = ExchangeData(((0,),), 1)
A5 = ExchangeData(tuple(tuple(1 if j == i + 1 else -1 if j == i - 1 else 0
                             for j in range(5)) for i in range(5)), 5)
# same rank-3 shape with reversed arrows, used for the frozen-direction fan
A3_REV = ExchangeData(((0, -1, 0), (1, 0, -1), (0, 1, 0)), 3)
MARKOV = ExchangeData(((0, 2, -2), (-2, 0, 2), (2, -2, 0)), 3)

A2_RAYS = ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, 0))
A2_CONE_CYCLE = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1)]
B2_RAYS = ((-1, 0), (0, -1), (0, 1), (1, -2), (1, -1), (1, 0))

GR25 = fixture_exchange("gr25.json")

FINITE = [A1, A2, B2, G2, A3, B3, C3, A4, D4, A5, GR25]
FINITE_IDS = ["a1", "a2", "b2", "g2", "a3", "b3", "c3", "a4", "d4", "a5",
              "gr25"]


def reference_walk(ed, allowed=None):
    """The breadth-first walk that steps the full record on every wall:
    (cones, adjacency, allowed)."""
    allowed = tuple(range(ed.n)) if allowed is None else tuple(allowed)
    cones = [ConeRecord.initial(ed)]
    seen = {cones[0].key(): 0}
    adjacency = {}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for k in allowed:
                rec = g_cone_step(cones[i], k)
                if rec.key() not in seen:
                    seen[rec.key()] = len(cones)
                    cones.append(rec)
                    nxt.append(seen[rec.key()])
                adjacency[(i, k)] = seen[rec.key()]
        frontier = nxt
    return cones, adjacency, allowed


def assert_walk_matches_reference(ed, **kw):
    atlas = enumerate_gfan(ed, **kw)
    cones, adjacency, allowed = reference_walk(ed, **kw)
    assert [c.index for c in atlas.cones] == list(range(len(cones)))
    assert [(c.path, c.B, c.C, c.G, c.Cd) for c in atlas.cones] == \
        [(c.path, c.B, c.C, c.G, c.Cd) for c in cones]
    assert atlas.adjacency == adjacency
    assert atlas.allowed == allowed


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
    """The cone across every wall of every atlas cone is the one atlas cone
    that a linear scan finds by its generator set, and the adjacency names
    it: the strata walk relies on never leaving the atlas."""
    atlas = enumerate_gfan(ed)
    for cone in atlas.cones:
        for k in range(ed.n):
            key = g_cone_step(cone, k).key()
            scan = [c for c in atlas.cones if c.key() == key]
            assert scan == [atlas.cones[atlas.adjacency[(cone.index, k)]]]


@pytest.mark.parametrize("ed", FINITE, ids=FINITE_IDS)
def test_walk_matches_the_full_step_reference(ed):
    assert_walk_matches_reference(ed)


def test_restricted_walk_matches_the_full_step_reference():
    assert_walk_matches_reference(A3_REV, allowed=(1, 2))
    assert_walk_matches_reference(D4, allowed=(3, 1, 0))
    assert_walk_matches_reference(A5, allowed=(0, 2, 4))


@pytest.mark.parametrize("ed", FINITE, ids=FINITE_IDS)
def test_g_vector_step_is_the_new_column_of_the_full_step(ed):
    for cone in enumerate_gfan(ed).cones:
        for k in range(ed.n):
            G = g_cone_step(cone, k).G
            assert g_vector_step(cone, k) == tuple(row[k] for row in G)


@pytest.mark.parametrize("ed", FINITE, ids=FINITE_IDS)
def test_g_cone_step_changes_only_column_k_of_g(ed):
    """A step keeps every generator but the k-th, so the walks key a
    stepped cone by one new g-vector, and a face stays put under a step
    transverse to it."""
    for cone in enumerate_gfan(ed).cones:
        gens = cone.generators()
        for k in range(ed.n):
            stepped = g_cone_step(cone, k).generators()
            assert stepped[:k] + stepped[k + 1:] == gens[:k] + gens[k + 1:]


def test_a2_rays_and_cones():
    atlas = enumerate_gfan(A2)
    assert atlas.rays == A2_RAYS
    expect = {frozenset((A2_CONE_CYCLE[i], A2_CONE_CYCLE[(i + 1) % 5]))
              for i in range(5)}
    assert {c.key() for c in atlas.cones} == expect


def test_b2_rays():
    atlas = enumerate_gfan(B2)
    assert atlas.rays == B2_RAYS


# -- fan axioms ----------------------------------------------------------------


def _contains(cone, x):
    return all(dot(nrm, x) >= 0 for nrm in cone.normals())


def _minimal_face(cone, points):
    """Generators of the smallest face of the cone containing the points:
    those at a position j where some point has a positive j-th barycentric
    coordinate."""
    gens = cone.generators()
    return frozenset(gens[j] for j, nrm in enumerate(cone.normals())
                     if any(dot(nrm, p) > 0 for p in points))


def _cross3(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _intersection_candidates(a, b):
    """Primitive candidate rays of the intersection of two simplicial cones:
    generators of each lying in the other, plus (in three dimensions) the
    pairwise facet-plane intersections.  Complete for dimension <= 3."""
    n = len(a.G)
    cands = set()
    for g in a.generators():
        if _contains(b, g):
            cands.add(primitive(g))
    for g in b.generators():
        if _contains(a, g):
            cands.add(primitive(g))
    if n == 3:
        for na in a.normals():
            for nb in b.normals():
                p = primitive(_cross3(na, nb))
                if p is None:
                    continue
                for q in (p, tuple(-x for x in p)):
                    if _contains(a, q) and _contains(b, q):
                        cands.add(q)
    cands.discard(None)
    return cands


def check_fan(atlas, require_complete=True):
    """Exact fan-axiom verification.

    Every cone must be unimodular simplicial; every pairwise intersection
    must be a common face (computed via candidate extreme rays and minimal
    containing faces); every wall must be shared by exactly two cones when
    the fan is required to be complete, at most two otherwise.
    """
    n = atlas.ed.n
    for c in atlas.cones:
        d = mat_det(c.G)
        if abs(d) != 1:
            raise CheckFailed(f"cone {c.index} is not unimodular (det {d})")
        prod = [[dot(nrm, g) for g in c.generators()] for nrm in c.normals()]
        if tuple(tuple(r) for r in prod) != mat_identity(n):
            raise CheckFailed(f"cone {c.index}: normals do not invert generators")
    for i, a in enumerate(atlas.cones):
        for b in atlas.cones[i + 1:]:
            cands = _intersection_candidates(a, b)
            fa = _minimal_face(a, cands)
            fb = _minimal_face(b, cands)
            if fa != fb:
                raise CheckFailed(
                    f"cones {a.index} and {b.index} do not meet in a common "
                    f"face: {sorted(fa)} vs {sorted(fb)}")
    walls = {}
    for c in atlas.cones:
        gens = c.generators()
        for j in range(n):
            wall = frozenset(gens[:j] + gens[j + 1:])
            walls[wall] = walls.get(wall, 0) + 1
    if n > 1:
        bad = {w: m for w, m in walls.items() if m > 2}
        if bad:
            raise CheckFailed("a wall is shared by more than two cones")
        if require_complete and any(m != 2 for m in walls.values()):
            raise CheckFailed("fan is not complete: some wall is on the boundary")
    return True


def test_fan_axioms_hold():
    for ed in (A1, A2, B2, A3, G2, B3, C3, A4, D4):
        assert check_fan(enumerate_gfan(ed))


def test_g_cone_step_needs_a_sign_coherent_column():
    rec = ConeRecord(None, (1, 0), A2.B, ((1, 0), (-1, 1)), mat_identity(2),
                     mat_identity(2))
    zero = ConeRecord(None, (), A2.B, ((1, 0), (0, 0)), mat_identity(2),
                      mat_identity(2))
    for step in (g_cone_step, g_vector_step):
        with pytest.raises(CheckFailed,
                           match=r"path 2,1: c-vector 1 \(1, -1\)"):
            step(rec, 0)
        with pytest.raises(CheckFailed, match=r"\(initial\): c-vector 2"):
            step(zero, 1)
    assert g_cone_step(rec, 1).path == (1, 0, 1)
    assert g_vector_step(rec, 1) == (0, -1)


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


FACE_LENGTHS = {
    "a2": {5: 1}, "b2": {6: 1}, "g2": {8: 1}, "a3": {4: 3, 5: 6},
    "b3": {4: 4, 5: 4, 6: 4}, "c3": {4: 4, 5: 4, 6: 4}, "a4": {4: 28, 5: 28},
    "d4": {4: 30, 5: 36},
}


@pytest.mark.parametrize("ed, name", [(A2, "a2"), (B2, "b2"), (G2, "g2"),
                                      (A3, "a3"), (B3, "b3"), (C3, "c3"),
                                      (A4, "a4"), (D4, "d4")],
                         ids=list(FACE_LENGTHS))
def test_two_faces_count_by_euler_relation(ed, name):
    """Each face walk closes on its start cone with i and j alternating,
    and the faces found are every 2-face of the generalized associahedron:
    with V cones, E walls, F faces and one facet per ray, V - E + F = 2 in
    rank 3 and V - E + F - rays = 0 in rank 4."""
    atlas = enumerate_gfan(ed)
    closed, skipped = two_faces(atlas, 8)
    assert skipped == 0
    lengths = {}
    for start, i, j, stepped in closed:
        assert i < j and stepped[-1].key() == start.key()
        assert [rec.path[-1] for rec in stepped] == [
            (i, j)[s % 2] for s in range(len(stepped))]
        assert all(rec.key() != start.key() for rec in stepped[:-1])
        lengths[len(stepped)] = lengths.get(len(stepped), 0) + 1
    assert lengths == FACE_LENGTHS[name]
    V, E, F = len(atlas.cones), len(atlas.adjacency) // 2, len(closed)
    if ed.n == 3:
        assert V - E + F == 2
    elif ed.n == 4:
        assert V - E + F - len(atlas.rays) == 0


def test_two_faces_counts_the_faces_it_cannot_close():
    """A face longer than max_len is counted, not walked again from each of
    its cones: B3 has four hexagons, and B2 and G2 one face each."""
    closed, skipped = two_faces(enumerate_gfan(B3), 5)
    assert (len(closed), skipped) == (8, 4)
    assert two_faces(enumerate_gfan(B2), 5) == ([], 1)
    assert two_faces(enumerate_gfan(G2), 7) == ([], 1)
    assert two_faces(enumerate_gfan(A1), 8) == ([], 0)


def test_walk_refuses_the_markov_seed_at_the_initial_cone():
    """The Markov matrix breaks the bound at the initial cone, so the walk
    refuses it before its first step."""
    with pytest.raises(InfiniteType, match=r"b_1,2 \* b_2,1 = 2 \* -2"):
        enumerate_gfan(MARKOV)


AFFINE_D4 = tuple(tuple(1 if i == 0 < j else -1 if j == 0 < i else 0
                        for j in range(5)) for i in range(5))


@pytest.mark.parametrize("ed", [A1, A2, B2, G2, A3, A3_REV, B3, C3, A4, D4,
                                A5])
def test_finite_types_have_no_infinite_type_witness(ed):
    enumerate_gfan(ed)


@pytest.mark.parametrize("B, allowed, expect", [
    (MARKOV.B, (0, 1, 2), ((), 0, 1, 2, -2)),
    (((0, 2), (-2, 0)), (0, 1), ((), 0, 1, 2, -2)),
    (((0, -1), (4, 0)), (0, 1), ((), 0, 1, -1, 4)),
    (ACYCLIC_TRIANGLE, (0, 1, 2), ((1,), 0, 2, 2, -2)),
    # the principal part on the allowed directions decides: A2, Kronecker
    (ACYCLIC_TRIANGLE, (0, 1), None),
    (MARKOV.B, (1, 2), ((), 1, 2, 2, -2)),
    (AFFINE_D4, tuple(range(5)), "replay"),
])
def test_infinite_type_witness(B, allowed, expect):
    """The walk's witness is a shortest mutation path and a pair beyond
    |b_ij * b_ji| <= 3, which replaying the path on B confirms; the walk
    over a finite-type principal part closes."""
    try:
        enumerate_gfan(_exchange_data(B), allowed)
        got = None
    except InfiniteType as exc:
        got = exc.witness
    if expect != "replay":
        assert got == expect
    if got is None:
        return
    path, i, j, bij, bji = got
    assert i in allowed and j in allowed and set(path) <= set(allowed)
    M = B
    for k in path:
        M = mutate_matrix(M, k)
    assert (M[i][j], M[j][i]) == (bij, bji) and abs(bij * bji) > 3
    assert len(path) == _first_bad_depth(B, allowed)


def _exchange_data(B):
    """B as exchange data: skew-symmetrized by (|b_21|, |b_12|) over their
    gcd in rank 2, and skew-symmetric in higher rank."""
    if len(B) == 2:
        g = gcd(B[0][1], B[1][0])
        return ExchangeData(B, 2, (abs(B[1][0]) // g, abs(B[0][1]) // g))
    return ExchangeData(B, len(B))


def _first_bad_depth(B, allowed):
    """Depth of the first matrix past the bound, by trying every path of
    allowed directions up to that length."""
    level = [B]
    for depth in range(8):
        for M in level:
            if any(abs(M[i][j] * M[j][i]) > 3 for i in allowed
                   for j in allowed):
                return depth
        level = [mutate_matrix(M, k) for M in level for k in allowed]
    raise AssertionError("no pair past the bound within 8 steps")


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
    assert set(P["polar_vertices"]) == {(1, 1), (0, 1), (-1, 0), (-1, -1),
                                        (1, -1)}
    assert P["face_fan_matches"] is True
    # the normal fan of the polar dual is the face fan of the hull
    polar_ccw = sorted(P["polar_vertices"])  # re-hull to get an order
    from cluster_forge.gfan import _hull_2d
    nf = normal_fan_of_polygon(_hull_2d(P["polar_vertices"]))
    assert nf == {c.key() for c in atlas.cones}


def test_polytope_rejects_non_vertex_rays():
    # (0, -1) and (1, -1) are rays of B2 and of G2 but not hull vertices
    for ed in (B2, G2):
        with pytest.raises(CheckFailed,
                           match="some ray is not a vertex of the hull"):
            polytope_P(enumerate_gfan(ed))
    with pytest.raises(CheckFailed,
                       match="polytope construction implemented for rank 2"):
        polytope_P(enumerate_gfan(A3))
    # the walk in direction 1 alone leaves the origin on the hull
    with pytest.raises(CheckFailed, match="origin is not interior to the hull"):
        polytope_P(enumerate_gfan(A2, allowed=(0,)))


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
