"""Enumeration of the fan of g-vector cones and of the 2-faces of its
exchange graph, stars of faces, and the rank-2 polytope attached to a
complete fan.

Cones are simplicial, generated by the columns of the running g-matrix; the
inward facet normals are the columns of the c-matrix of the negated-transpose
pattern along the same path, so all membership tests are integer arithmetic.
A walk step moves a seed's exchange matrix, c-matrix, g-matrix and dual
c-matrix together, in integers only: the g-matrix changes in column k by the
recurrence (6.12) of Fomin-Zelevinsky, Cluster algebras IV.  The walk keys
each step by that one new g-vector and steps the full record only onto a
cone it has not seen, and stops at the first exchange matrix that shows the
seed is of infinite type.  A fan file is read back to certify the star of one
ray from the file's own stored paths, without walking the whole fan.
"""

from __future__ import annotations

from math import gcd

from .invariants import CheckFailed, c_matrix_step, column_sign, mat_identity
from .seeds import (
    ExchangeData,
    json_field,
    json_int,
    json_list,
    mutate_matrix,
    mutate_rows,
    replay,
    seed_from_json,
)


class InfiniteType(Exception):
    """The g-fan walk reached a cone whose exchange matrix, on the allowed
    directions, has a pair with |b_ij * b_ji| > 3, so the seed is of
    infinite type.  ``witness`` is ``(path, i, j, b_ij, b_ji)``: the cone's
    path and the pair, as 0-based directions of the seed, and the two
    entries.  The message names them 1-based."""

    def __init__(self, path, i, j, bij, bji):
        along = (f", mutated along {','.join(str(k + 1) for k in path)},"
                 if path else "")
        super().__init__(
            f"its exchange matrix{along} has b_{i + 1},{j + 1} * "
            f"b_{j + 1},{i + 1} = {bij} * {bji}, and finite type needs "
            "|b_ij * b_ji| <= 3 in every matrix of the mutation class")
        self.witness = (path, i, j, bij, bji)


def primitive(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        return None
    return tuple(x // g for x in v)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


class ConeRecord:
    """One maximal cone and the seed at it: a representative path, the
    exchange matrix ``B``, the c-matrix ``C``, the generator (g-)matrix
    ``G`` and the facet-normal (dual c-)matrix ``Cd``."""

    __slots__ = ("index", "path", "B", "C", "G", "Cd")

    def __init__(self, index, path, B, C, G, Cd):
        self.index = index
        self.path = tuple(path)
        self.B = B
        self.C = C
        self.G = G
        self.Cd = Cd

    @classmethod
    def initial(cls, ed):
        """The initial seed's cone: every matrix but B is the identity."""
        I = mat_identity(ed.n)
        return cls(0, (), ed.B, I, I, I)

    def generators(self):
        return tuple(zip(*self.G))

    def normals(self):
        return tuple(zip(*self.Cd))

    def key(self):
        return frozenset(self.generators())


class GFanAtlas:
    """All maximal g-cones reachable from the initial seed (optionally only
    through a subset of directions), with wall adjacency.  The walk steps
    every cone it keeps in every allowed direction, so the cone across any
    wall of an atlas cone is an atlas cone.  ``fan_from_json`` returns one
    holding only the cones of a star, with no adjacency."""

    def __init__(self, ed, cones, adjacency, allowed):
        self.ed = ed
        self.cones = cones
        self.adjacency = adjacency
        self.allowed = tuple(allowed)

    @property
    def rays(self):
        out = set()
        for c in self.cones:
            out.update(c.generators())
        return tuple(sorted(out))


def g_vector_step(cone, k):
    """The k-th g-vector of the cone across the wall in direction k, by
    Cluster algebras IV (6.12) under sign coherence: g'_k = -g_k +
    sum_l [-e*b_lk]_+ g_l, with e the sign of the k-th c-vector.  Raises
    ``CheckFailed`` when that c-vector is not sign-coherent."""
    col = [row[k] for row in cone.C]
    e = column_sign(col)
    if not e:
        path = ",".join(str(j + 1) for j in cone.path) or "(initial)"
        col = tuple(col)
        raise CheckFailed(f"cone at path {path}: c-vector {k + 1} {col} is "
                          f"not sign-coherent")
    G = cone.G
    g = [-row[k] for row in G]
    for l, row in enumerate(cone.B[:len(col)]):
        a = -e * row[k]
        if a > 0:
            g = [x + r[l] * a for x, r in zip(g, G)]
    return tuple(g)


def g_cone_step(cone, k):
    """The cone across the wall in direction k, stepped in integers.

    B mutates; C and the dual c-matrix Cd step by the c-vector recurrence,
    Cd for the negated-transpose pattern through its row k, the negated
    column k of B: that pattern needs no matrix of its own because matrix
    mutation commutes with negating the transpose.  Only column k of G
    changes, to ``g_vector_step(cone, k)``.  The new record has no atlas
    index.
    """
    B = cone.B
    g = g_vector_step(cone, k)
    G = tuple([row[:k] + (x,) + row[k + 1:] for row, x in zip(cone.G, g)])
    return ConeRecord(None, cone.path + (k,), mutate_matrix(B, k),
                      c_matrix_step(cone.C, B, k), G,
                      mutate_rows(cone.Cd, k,
                                  [-row[k] for row in B[:len(cone.C)]]))


def enumerate_gfan(ed, allowed=None):
    """Breadth-first walk of the seed pattern, one node per distinct set of
    g-vector columns.  A step first computes only the new g-vector; the
    full record is stepped only when the resulting cone is new.

    Each cone taken from the frontier has its exchange matrix read on the
    allowed directions, and the first pair with |b_ij * b_ji| > 3 raises
    ``InfiniteType``.  By Fomin-Zelevinsky, Cluster algebras II
    (arXiv:math/0208229), finite type, in which the walk closes, holds
    exactly when every matrix in the mutation class of that principal part
    keeps the bound, and each of those matrices is, up to relabelling, the
    matrix of a cone of the walk.  So the walk ends without a cap: it closes,
    or it raises at the first frontier holding a matrix past the bound.
    """
    allowed = tuple(range(ed.n)) if allowed is None else tuple(allowed)
    root = ConeRecord.initial(ed)
    cones = [root]
    adjacency = {}
    seen = {root.key(): 0}
    frontier = [root]
    while frontier:
        nxt = []
        for src in frontier:
            B = src.B
            for a, i in enumerate(allowed):
                for j in allowed[a + 1:]:
                    if abs(B[i][j] * B[j][i]) > 3:
                        raise InfiniteType(src.path, i, j, B[i][j], B[j][i])
            gens = src.generators()
            for k in allowed:
                key = frozenset(gens[:k] + (g_vector_step(src, k),)
                                + gens[k + 1:])
                index = seen.get(key)
                if index is None:
                    rec = g_cone_step(src, k)
                    index = rec.index = len(cones)
                    cones.append(rec)
                    seen[key] = index
                    nxt.append(rec)
                adjacency[(src.index, k)] = index
        frontier = nxt
    return GFanAtlas(ed, cones, adjacency, allowed)


def two_faces(atlas, max_len):
    """The 2-faces of the exchange graph, each walked once.

    A 2-face is the cycle of maximal cones around a codimension-2 cone, and
    is named by that cone: the generators of a cone other than its positions
    i and j, for a pair of allowed directions with i listed before j, so
    naming a face takes no step.  The first cone to name a face walks it, stepping
    ``g_cone_step`` alternately in i and j until the cone's key comes back
    or ``max_len`` steps have been taken.  Returns the closed faces, each as
    (start record, i, j, stepped records), and the number of faces that did
    not close within ``max_len`` steps.  Integer arithmetic only.
    """
    named = set()
    closed = []
    skipped = 0
    for cone in atlas.cones:
        gens = cone.generators()
        key = cone.key()
        for a, i in enumerate(atlas.allowed):
            for j in atlas.allowed[a + 1:]:
                face = frozenset(g for p, g in enumerate(gens)
                                 if p != i and p != j)
                if face in named:
                    continue
                named.add(face)
                stepped = []
                rec = cone
                while len(stepped) < max_len:
                    rec = g_cone_step(rec, (i, j)[len(stepped) % 2])
                    stepped.append(rec)
                    if rec.key() == key:
                        closed.append((cone, i, j, tuple(stepped)))
                        break
                else:
                    skipped += 1
    return closed, skipped


# -- stars ----------------------------------------------------------------------

class StarData:
    """Quotient fan of the cones containing a face, with the face's base
    cone, the coordinates on the quotient, and the restricted exchange data
    (None for the zero-dimensional star of a whole maximal cone).
    """

    __slots__ = ("base", "kept", "dropped", "quotient_rows", "proj_cones",
                 "restricted")

    def __init__(self, base, kept, dropped, quotient_rows, proj_cones,
                 restricted):
        self.base = base
        self.kept = kept          # generator positions spanning tau at base
        self.dropped = dropped    # complementary positions (the star's rank)
        self.quotient_rows = quotient_rows
        self.proj_cones = proj_cones
        self.restricted = restricted


def star(atlas, tau_rays):
    """Star of the face spanned by the given rays: project every maximal cone
    containing the face to the quotient by its span.

    The quotient coordinates are the rows of the inverse generator matrix of
    a base cone containing the face, at the positions complementary to the
    face; the restricted exchange data lives at the base cone's seed.
    Distinct cones holding the face project to distinct cones.
    """
    tau = [tuple(r) for r in tau_rays]
    base = None
    for c in atlas.cones:
        if set(tau) <= set(c.generators()):
            base = c
            break
    if base is None:
        raise CheckFailed("no maximal cone contains the requested face")
    gens = base.generators()
    kept = [gens.index(r) for r in tau]
    dropped = [j for j in range(len(gens)) if j not in kept]
    # rows of the inverse generator matrix are the normals (columns of Cd)
    rows = [tuple(base.Cd[i][j] for i in range(len(gens))) for j in dropped]

    def project(v):
        return tuple(dot(r, v) for r in rows)

    proj = [(c.index, tuple(project(g) for g in c.generators()
                            if g not in tau))
            for c in atlas.cones if set(tau) <= set(c.generators())]
    restricted = ExchangeData(
        tuple(tuple(base.B[i][j] for j in dropped) for i in dropped),
        len(dropped),
        tuple(atlas.ed.d[i] for i in dropped)) if dropped else None
    return StarData(base, tuple(kept), tuple(dropped), tuple(rows),
                    tuple(proj), restricted)


# -- rank-2 polytopes --------------------------------------------------------------

def _hull_2d(points):
    """Convex hull, counterclockwise, integer arithmetic (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                crossv = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
                if crossv <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def polytope_P(atlas):
    """Convex hull of the primitive rays of a complete fan of rank 2.

    Returns the hull vertices (counterclockwise), reflexivity (every facet at
    integral distance 1 from the origin), the polar-dual vertices (the
    primitive outward facet normals, which are lattice points exactly when
    reflexive), and whether the face fan of the hull reproduces the atlas
    cones.
    """
    n = atlas.ed.n
    rays = [primitive(r) for r in atlas.rays]
    if n != 2:
        raise CheckFailed("polytope construction implemented for rank 2")
    hull = _hull_2d(rays)
    if set(hull) != set(rays):
        raise CheckFailed("some ray is not a vertex of the hull")
    m = len(hull)
    normals = []
    reflexive = True
    for i in range(m):
        a, b = hull[i], hull[(i + 1) % m]
        d = (b[0] - a[0], b[1] - a[1])
        nrm = (d[1], -d[0])          # outward for counterclockwise order
        p = primitive(nrm)
        c = dot(p, a)
        if c <= 0:
            raise CheckFailed("origin is not interior to the hull")
        if c != 1:
            reflexive = False
        normals.append((p, c))
    polar = [p for p, c in normals] if reflexive else None
    face_fan = {frozenset((hull[i], hull[(i + 1) % m])) for i in range(m)}
    atlas_fan = {frozenset(c.generators()) for c in atlas.cones}
    return {
        "vertices": hull,
        "reflexive": reflexive,
        "polar_vertices": polar,
        "face_fan_matches": face_fan == atlas_fan,
    }


def normal_fan_of_polygon(vertices):
    """Maximal normal cones of a convex polygon given counterclockwise:
    at each vertex, the cone spanned by the outward normals of its two
    edges."""
    m = len(vertices)
    normals = []
    for i in range(m):
        a, b = vertices[i], vertices[(i + 1) % m]
        d = (b[0] - a[0], b[1] - a[1])
        normals.append(primitive((d[1], -d[0])))
    cones = []
    for i in range(m):
        cones.append(frozenset((normals[i - 1], normals[i])))
    return set(cones)


# -- serialization ----------------------------------------------------------------

def fan_to_json(atlas):
    rays = list(atlas.rays)
    ray_index = {r: i for i, r in enumerate(rays)}
    return {
        "rays": [list(r) for r in rays],
        "maximal_cones": [sorted(ray_index[g] for g in c.generators())
                          for c in atlas.cones],
        "dual_rays": [[list(nrm) for nrm in c.normals()] for c in atlas.cones],
        "paths": [[k + 1 for k in c.path] for c in atlas.cones],
        "allowed": [k + 1 for k in atlas.allowed],
        "complete": True,
        "seed": {
            "B": [list(r) for r in atlas.ed.B],
            "n": atlas.ed.n,
            "d": list(atlas.ed.d),
        },
    }


def _add_once(items, x, field):
    """Map ``x`` to its position in the file in the dict ``items``, unless
    the file already listed it."""
    if x in items:
        raise ValueError(f"{field} repeats an earlier entry")
    items[x] = len(items)


def fan_from_json(obj, tau):
    """Certify the star of one ray of a fan file from the file itself, and
    return an atlas of the cones that hold the ray.

    ``tau`` is the ray's 0-based position in the file's ``rays``; a
    position out of range raises ``IndexError``.  Fields come first:
    ``seed``, ``rays``, ``maximal_cones`` and ``paths`` must be present;
    ``rays``, ``maximal_cones``, each cone and ``allowed`` must be lists.
    Rays, cone indices, allowed directions and path steps must be
    integers, of length n and in range, and none may be listed twice; each
    maximal cone lists n distinct rays and has one path, of allowed
    directions and shorter than the number of cones, as every
    breadth-first path is.  ``complete``, when present, must be true.
    Anything else raises ``ValueError`` naming the field.

    Then three local checks, each raising ``CheckFailed`` naming a field:

    (a) replay: the stored path of every cone holding the ray, stepped by
        ``g_cone_step`` from the stored seed (prefixes shared), ends on that
        cone's generators;
    (b) transverse closure: from each replayed cone, the cone across every
        allowed wall that keeps the ray is a stored cone;
    (c) pseudomanifold closure, without arithmetic: every ray lies in a
        cone, no facet lies in more than two cones, and every cone shares
        exactly one facet per allowed direction.

    In finite type the cones holding a ray form the fan of the restricted
    exchange data, connected by the mutations transverse to the ray
    (Chapoton-Fomin-Zelevinsky, arXiv:math/0202004).  So, with the ray in
    some stored cone as (c) asks, (a) and (b) say that the stored cones
    holding the ray are exactly the seed's cones holding it, with the
    generator order and path that each stored path gives, which is all
    that ``star`` reads.  A wrong cone away from the ray that keeps (c) is
    not caught.

    When a local check fails, the stored seed is enumerated once to name
    the fault: a seed of infinite type raises the walk's ``InfiniteType``,
    naming the matrix pair and the mutation path to it, and any other fault
    is the failed check.

    The returned atlas holds the replayed cones in file order, each
    numbered by its position in the file, and no adjacency.
    """
    complete = obj.get("complete", True)
    if complete is not True:
        raise ValueError(f"complete must be true, not {repr(complete)[:40]}")
    ed, _ = seed_from_json(json_field(obj, "seed"), "seed")
    n = ed.n
    allowed = {}
    for i, k in enumerate(json_list(obj.get("allowed", list(range(1, n + 1))),
                                    "allowed")):
        _add_once(allowed, json_int(k, f"allowed[{i}]", 1, n) - 1,
                  f"allowed[{i}]")
    allowed = tuple(allowed)
    rays = {}
    for i, r in enumerate(json_list(json_field(obj, "rays"), "rays")):
        if not isinstance(r, list) or len(r) != n:
            raise ValueError(f"rays[{i}] must be a list of n = {n} integers")
        _add_once(rays, tuple(json_int(x, f"rays[{i}][{j}]")
                              for j, x in enumerate(r)), f"rays[{i}]")
    rays = tuple(rays)
    cones = {}
    for i, idxs in enumerate(json_list(json_field(obj, "maximal_cones"),
                                       "maximal_cones")):
        cone = frozenset(
            rays[json_int(x, f"maximal_cones[{i}][{j}]", 0, len(rays) - 1)]
            for j, x in enumerate(json_list(idxs, f"maximal_cones[{i}]")))
        if len(cone) != n or len(idxs) != n:
            raise ValueError(f"maximal_cones[{i}] must list n = {n} "
                             "distinct ray indices")
        _add_once(cones, cone, f"maximal_cones[{i}]")
    paths = _read_paths(json_field(obj, "paths"), len(cones), n, allowed)
    if not 0 <= tau < len(rays):
        raise IndexError(f"out of range 1..{len(rays)}")
    try:
        records = _certify_star(ed, allowed, rays, cones, paths, tau)
    except CheckFailed:
        enumerate_gfan(ed, allowed)
        raise
    return GFanAtlas(ed, records, {}, allowed)


def _read_paths(paths, count, n, allowed):
    """The file's ``paths`` as 0-based direction tuples, one per maximal
    cone, each of allowed directions and shorter than ``count``."""
    if not isinstance(paths, list) or len(paths) != count:
        raise ValueError(f"paths must hold one list per maximal cone, "
                         f"{count} in all")
    out = []
    for i, path in enumerate(paths):
        if not isinstance(path, list):
            raise ValueError(f"paths[{i}] must be a list of directions")
        if len(path) >= count:
            raise ValueError(f"paths[{i}] has {len(path)} steps; a "
                             f"breadth-first path through {count} cones "
                             "has fewer")
        steps = tuple(json_int(k, f"paths[{i}][{j}]", 1, n) - 1
                      for j, k in enumerate(path))
        for j, k in enumerate(steps):
            if k not in allowed:
                raise ValueError(f"paths[{i}][{j}] = {k + 1} is not an "
                                 "allowed direction")
        out.append(steps)
    return out


def _certify_star(ed, allowed, rays, cones, paths, tau):
    """Checks (a), (b) and (c) of ``fan_from_json`` on ``cones``, a dict
    from each maximal cone's generator set to its position in the file;
    returns the replayed records of the cones holding ray ``tau``, in file
    order."""
    facets = {}
    for cone in cones:
        for r in cone:
            f = cone - {r}
            facets[f] = facets.get(f, 0) + 1
    for i, cone in enumerate(cones):
        shared = 0
        for r in cone:
            count = facets[cone - {r}]
            if count > 2:
                raise CheckFailed(f"a facet of maximal_cones[{i}] lies in "
                                  f"{count} maximal cones")
            shared += count == 2
        if shared != len(allowed):
            raise CheckFailed(
                f"maximal_cones[{i}] shares {shared} of its facets with "
                f"other maximal cones, not one per allowed direction "
                f"({len(allowed)})")
    in_cones = set().union(*cones)
    for i, r in enumerate(rays):
        if r not in in_cones:
            raise CheckFailed(f"rays[{i}] lies in no maximal cone")
    ray = rays[tau]
    replayed = {(): ConeRecord.initial(ed)}
    records = []
    for key, i in cones.items():
        if ray not in key:
            continue
        rec = replay(replayed, paths[i], g_cone_step)
        gens = rec.generators()
        if rec.key() != key:
            raise CheckFailed(f"paths[{i}] leads the stored seed to a cone "
                              f"with generators {sorted(gens)}, not "
                              f"maximal_cones[{i}]")
        rec.index = i
        records.append(rec)
        p = gens.index(ray)
        for k in allowed:
            if k != p and frozenset(gens[:k] + (g_vector_step(rec, k),)
                                    + gens[k + 1:]) not in cones:
                raise CheckFailed(
                    f"maximal_cones[{i}] holds rays[{tau}], but the cone "
                    f"across its wall {k + 1} is not stored")
    return records
