"""Flat one-parameter families glued over the cone atlas.

Every maximal cone of the atlas carries a coordinate patch with coordinates
X1..Xn over the base ring Z[t1..tn]; adjacent patches are glued along walls
by subtraction-free binomial transition maps whose t-exponents are the
patch's own tropical coefficient vectors.  The checks in this module verify,
in exact arithmetic, that the glued object is consistent (cocycle condition,
glue-ring membership), that its fibres over nonzero base points are mutually
isomorphic, and that the fibre over zero degenerates onto the toric variety
of the atlas fan, stratum by stratum.
"""

from fractions import Fraction

from .exact_algebra import (
    ExactAlgebraError,
    InexactDivision,
    LaurentPoly,
    LimitError,
    PosRatFunc,
    degree_of,
    limit_t_zero,
    poly_exact_div,
    rat_equal,
    substitute_values,
)
from .semifields import TropMonomial
from .seeds import (
    mutate_matrix,
    mutate_y_tuple,
    sign,
    t_vars,
)
from .invariants import CheckFailed, mat_identity, principal_grading
from .gfan import enumerate_gfan, g_cone_step, star, two_faces


def column(M, j):
    """Column j of a square matrix, as a tuple."""
    return tuple(row[j] for row in M)


def family_vars(n):
    """Patch coordinate names X1..Xn followed by base parameters t1..tn."""
    return tuple(f"X{i + 1}" for i in range(n)), t_vars(n)


def composer(xnames, images):
    """Composition with the substitution X_i -> images[i]: the returned
    function maps a tuple of functions in the coordinates to their
    composites.  Every tuple it is given shares one factor memo, which is
    valid for this one substitution only."""
    subst = dict(zip(xnames, images))
    memo = {}
    return lambda fs: tuple(f.evaluate(subst, memo) for f in fs)


def family_wall_images(B, k, c_k, xnames, tnames):
    """Pullbacks of the far patch's coordinates across the wall in direction
    k, expressed in the near patch.

    This is the Y-seed mutation ``mutate_y_tuple`` of the coordinates with
    coefficient t^c_k, whose parts are the monomials t^[c_k]+ and
    t^[-c_k]+ of the near patch's k-th coefficient vector: the far wall
    coordinate pulls back to the inverse of the near one, and every other
    coordinate picks up a power of a subtraction-free binomial.  Only row k
    of ``B``, ``k`` and ``c_k`` are read.  ``Family.wall_images`` caches
    this per family.
    """
    vars = xnames + tnames
    n = len(xnames)
    xs = tuple(PosRatFunc.variable(vars, x) for x in xnames)
    plus = PosRatFunc.monomial(vars, [0] * n + [max(c, 0) for c in c_k])
    minus = PosRatFunc.monomial(vars, [0] * n + [max(-c, 0) for c in c_k])
    return mutate_y_tuple(xs, B, k, plus, minus)


def wall_key(B, k, c_k):
    """The key of a wall's coordinate images: everything
    ``family_wall_images`` reads."""
    return (tuple(B[k]), k, tuple(c_k))


def wall_binomial(vars, k, c_k, n):
    """The canonical wall binomial t^[-c]+ + t^[c]+ * X_k (content one, no
    negative exponents); both sign-variants of the transition factor are
    unit multiples of it."""
    lo = tuple([0] * n + [max(-c, 0) for c in c_k])
    hi = [0] * n + [max(c, 0) for c in c_k]
    hi[k] = 1
    return LaurentPoly(vars, {lo: 1, tuple(hi): 1})


class TransitionMap:
    """One wall of the family: the near cone record, the coordinate images
    (entry i the pullback of the far patch's i-th coordinate, written in
    the near patch's coordinates), and the far record ``g_cone_step(near,
    k)``, its columns in the near record's order, stepped on first use."""

    __slots__ = ("k", "near", "images", "_far")

    def __init__(self, k, near, images):
        self.k = k
        self.near = near
        self.images = tuple(images)
        self._far = None

    @property
    def far(self):
        if self._far is None:
            self._far = g_cone_step(self.near, self.k)
        return self._far


class Family:
    """The glued family over a complete cone atlas.

    A patch's coefficient vectors are the c-vectors of its cone record.
    Caches, in dicts it owns and that live exactly as long as it does, wall
    transitions (keyed on cone index and direction, like the adjacency),
    pullbacks of patch coordinates to the initial patch (keyed on cone
    index), and wall images (keyed by ``wall_key`` on row k of the exchange
    matrix, k and the coefficient vector, everything ``family_wall_images``
    reads).  The transition is the one place a wall's far record is
    stepped; the checks read it there.  Every check here that builds wall
    images in the family's own variables reads the wall-image cache.

    Two verdict memos hold small ints keyed on wall keys: ``round_trip``
    decides once per pair of wall keys which coordinate, if any, crossing
    there and back moves, and ``ring_exit`` decides once per wall key which
    image, if any, leaves its wall ring.  Expansions and composites are
    deliberately not cached: holding expansions on the family raised the
    ``family`` benchmark's peak RSS from 29.5 to 38.3 MB.
    """

    def __init__(self, ed, atlas=None):
        if ed.m:
            raise ValueError("the glued family needs fully mutable data")
        self.ed = ed
        self.atlas = atlas if atlas is not None else enumerate_gfan(ed)
        self.xnames, self.tnames = family_vars(ed.n)
        self.vars = self.xnames + self.tnames
        self._by_path = {c.path: c.index for c in self.atlas.cones}
        self._trans = {}
        self._pull = {}
        self._walls = {}
        self._round_trips = {}
        self._ring_exits = {}

    @property
    def n(self):
        return self.ed.n

    def coordinates(self):
        return tuple(PosRatFunc.variable(self.vars, v) for v in self.xnames)

    def wall_images(self, B, k, c_k):
        """``family_wall_images`` in this family's variables, computed once
        per ``wall_key``."""
        key = wall_key(B, k, c_k)
        if key not in self._walls:
            self._walls[key] = family_wall_images(B, k, c_k, self.xnames,
                                                  self.tnames)
        return self._walls[key]

    def round_trip(self, there, back):
        """The first coordinate that crossing a wall there and back moves,
        or None when the composite is the identity.  ``there`` and ``back``
        are (wall key, images) pairs; the images of ``back`` are composed
        with those of ``there`` once per pair of keys."""
        key = (there[0], back[0])
        if key not in self._round_trips:
            comp = composer(self.xnames, there[1])(back[1])
            coords = self.coordinates()
            self._round_trips[key] = next(
                (i for i in range(self.n)
                 if not rat_equal(comp[i], coords[i])), None)
        return self._round_trips[key]

    def ring_exit(self, key, images):
        """The first of a wall's images, under its ``wall_key``, that
        leaves the wall ring, or None; decided once per key, since the
        ring depends only on k and c_k."""
        if key not in self._ring_exits:
            _, k, c_k = key
            W = wall_binomial(self.vars, k, c_k, self.n)
            self._ring_exits[key] = next(
                (i for i, f in enumerate(images)
                 if not _in_glue_ring(f, k, W)), None)
        return self._ring_exits[key]

    def transition(self, cone_index, k):
        key = (cone_index, k)
        if key not in self._trans:
            near = self.atlas.cones[cone_index]
            self._trans[key] = TransitionMap(
                k, near, self.wall_images(near.B, k, column(near.C, k)))
        return self._trans[key]

    def pullback_to_initial(self, cone_index):
        """Coordinates of the patch expressed in the initial patch, composed
        along the cone's representative path."""
        if cone_index not in self._pull:
            rec = self.atlas.cones[cone_index]
            if not rec.path:
                self._pull[cone_index] = self.coordinates()
            else:
                parent = self._by_path[rec.path[:-1]]
                base = self.pullback_to_initial(parent)
                T = self.transition(parent, rec.path[-1])
                self._pull[cone_index] = composer(self.xnames, base)(T.images)
        return self._pull[cone_index]


# -- special-fibre checks ---------------------------------------------------------


def degree_check(fam, cone_indices=None):
    """Every pullback to the initial patch is homogeneous, of degree equal to
    the corresponding coefficient vector of its cone."""
    grading = principal_grading(fam.xnames, fam.tnames, mat_identity(fam.n))
    idxs = (range(len(fam.atlas.cones)) if cone_indices is None
            else cone_indices)
    for idx in idxs:
        C = fam.atlas.cones[idx].C
        pull = fam.pullback_to_initial(idx)
        for i, f in enumerate(pull):
            want = column(C, i)
            got = degree_of(f, grading)
            if got != want:
                raise CheckFailed(
                    f"cone {idx} coordinate {i + 1}: degree {got}, "
                    f"expected {want}")
    return True


def coordinate_limit(fam, f, where):
    """Exponents in X1..Xn of the limit of f at t = 0.  The limit must be a
    coordinate monomial with coefficient one; otherwise raises
    ``CheckFailed`` naming ``where``."""
    try:
        lim = limit_t_zero(f, fam.tnames)
    except LimitError as exc:
        raise CheckFailed(f"{where} has no monomial limit ({exc})")
    (exps, coef), = lim.terms.items()
    if coef != 1 or any(exps[fam.n:]):
        raise CheckFailed(f"{where} limit not a coordinate monomial: "
                          f"{lim.to_text()}")
    return exps[:fam.n]


def limit_check(fam, cone_indices=None):
    """At t = 0 each pullback becomes the pure coordinate monomial whose
    exponent vector is the coefficient vector of its cone."""
    idxs = (range(len(fam.atlas.cones)) if cone_indices is None
            else cone_indices)
    for idx in idxs:
        C = fam.atlas.cones[idx].C
        for i, f in enumerate(fam.pullback_to_initial(idx)):
            where = f"cone {idx} coordinate {i + 1}"
            got, want = coordinate_limit(fam, f, where), column(C, i)
            if got != want:
                raise CheckFailed(f"{where}: limit exponents {got}, "
                                  f"expected {want}")
    return True


def central_fiber_toric_check(fam):
    """At t = 0 every wall transition collapses to a monomial map: the wall
    coordinate inverts, the others pick up the wall coordinate to the
    absolute exchange entry exactly when the exchange entry matches the sign
    of the wall's coefficient vector.  These exponent vectors are the
    c-vector recurrence itself: ``c_matrix_step`` makes the far cone's
    coefficient vector i the near cone's c-matrix times exponent vector i,
    because the walk's ``g_vector_step`` found column k sign-coherent, so
    the far record is not read."""
    n = fam.n
    for src, k in sorted(fam.atlas.adjacency):
        T = fam.transition(src, k)
        B, Csrc = T.near.B, T.near.C
        cs = sign(next(x for x in column(Csrc, k) if x))
        for i in range(n):
            a = list(coordinate_limit(fam, T.images[i],
                                      f"wall ({src},{k}): coordinate {i + 1}"))
            want = [0] * n
            if i == k:
                want[k] = -1
            else:
                want[i] = 1
                if B[k][i] and sign(B[k][i]) == cs:
                    want[k] = abs(B[k][i])
            if a != want:
                raise CheckFailed(
                    f"wall ({src},{k}): coordinate {i + 1} degenerates to "
                    f"{tuple(a)}, expected {tuple(want)}")
    return True


# -- consistency of the gluing ----------------------------------------------------


def cocycle_check(fam, max_len=8, faces=None):
    """Composite transitions around every 2-face act as coordinate
    permutations that match the face's start-cone coefficient vectors.

    Checks the immediate there-and-back composite at every wall, then the
    composite around every 2-face of the exchange graph, the cycle of cones
    around a codimension-2 cone, that closes within ``max_len`` steps
    (``gfan.two_faces``; ``faces``, when given, are the closed ones it found).
    Each face is walked once, from its start cone, and must come back to
    that cone's own coefficient vectors, permuted, with the coordinates
    permuted the same way.

    Why the faces suffice: in finite type the exchange graph is the
    1-skeleton of the generalized associahedron (Chapoton-Fomin-Zelevinsky,
    arXiv:math/0202004; Fomin-Zelevinsky, arXiv:hep-th/0111053), whose
    2-faces are the rank-2 cycles of length 4, 5, 6 or 8.  The 2-skeleton
    of a polytope is simply connected, so every closed walk is a product of
    conjugates of 2-face boundaries, and since transitions commute with
    relabelling the coordinates, a permutation around every face gives a
    permutation around every closed walk.  At ``max_len`` 8 every
    finite-type face closes.
    """
    n = fam.n
    coords = fam.coordinates()
    for src, k in sorted(fam.atlas.adjacency):
        T = fam.transition(src, k)
        c_far = column(T.far.C, k)
        moved = fam.round_trip(
            (wall_key(T.near.B, k, column(T.near.C, k)), T.images),
            (wall_key(T.far.B, k, c_far),
             fam.wall_images(T.far.B, k, c_far)))
        if moved is not None:
            raise CheckFailed(
                f"wall ({src},{k}): there-and-back composite moves "
                f"coordinate {moved + 1}")

    if faces is None:
        faces, _ = two_faces(fam.atlas, max_len)
    for start, i, j, stepped in faces:
        where = f"face at cone {start.index} in directions {i + 1},{j + 1}"
        cone, images = start, None
        for s, nxt in enumerate(stepped):
            k = (i, j)[s % 2]
            step = fam.wall_images(cone.B, k, column(cone.C, k))
            images = composer(fam.xnames, images)(step) if s else step
            cone = nxt
        cols = {column(start.C, c): c for c in range(n)}
        perm = [cols.get(column(cone.C, c)) for c in range(n)]
        if set(perm) != set(range(n)):
            raise CheckFailed(f"{where}: the coefficient vectors do not come "
                              f"back permuted")
        for c in range(n):
            if not rat_equal(images[c], coords[perm[c]]):
                raise CheckFailed(
                    f"{where}: the composite sends coordinate {c + 1} to "
                    f"{images[c].to_text()}, expected a coordinate "
                    f"permutation")
    return True


def _in_glue_ring(f, k, W):
    """Membership in the near patch's wall ring: Laurent only in the wall
    coordinate, polynomial in the others and in t, localized at the wall
    binomial.  Certified by dividing the binomial out of the denominator
    while it has more than one term: a Laurent monomial is a unit and the
    binomial W is not, so no monomial is a multiple of W, and a failed
    division leaves a denominator that is not a monomial.  The numerator
    needs no test: ``expand`` returns one with no negative exponent."""
    _, den = f.expand()
    while not den.is_monomial():
        try:
            den = poly_exact_div(den, W)
        except InexactDivision:
            return False
    (dexps, _), = den.terms.items()
    return not any(x for j, x in enumerate(dexps) if j != k)


def glue_ring_check(fam, src, k, coefficient_free=False):
    """Both transition maps across a wall land inside the opposite wall
    rings, and the two composites are the identity.  The two sides carry
    the same wall data by construction: the far record is ``g_cone_step``
    of the near one, which negates row k of B and column k of C.  With
    ``coefficient_free`` both sides take their images from the family's
    wall-image cache at zero coefficient vectors."""
    n = fam.n
    T = fam.transition(src, k)
    Bs, Bfar = T.near.B, T.far.B
    if coefficient_free:
        ck = ck_far = (0,) * n
    else:
        ck, ck_far = column(T.near.C, k), column(T.far.C, k)
    images = fam.wall_images(Bs, k, ck)
    R = fam.wall_images(Bfar, k, ck_far)
    near_key, far_key = wall_key(Bs, k, ck), wall_key(Bfar, k, ck_far)
    near_exit = fam.ring_exit(near_key, images)
    far_exit = fam.ring_exit(far_key, R)
    if near_exit is not None and (far_exit is None or near_exit <= far_exit):
        raise CheckFailed(
            f"wall ({src},{k}): image of coordinate {near_exit + 1} leaves "
            f"the near wall ring")
    if far_exit is not None:
        raise CheckFailed(
            f"wall ({src},{k}): reverse image of coordinate {far_exit + 1} "
            f"leaves the far wall ring")
    there_back = fam.round_trip((near_key, images), (far_key, R))
    back_there = fam.round_trip((far_key, R), (near_key, images))
    if there_back is not None and (back_there is None
                                   or there_back <= back_there):
        raise CheckFailed(
            f"wall ({src},{k}): composite is not the identity")
    if back_there is not None:
        raise CheckFailed(
            f"wall ({src},{k}): reverse composite is not the identity")
    return True


def glue_ring_check_all(fam, coefficient_free=False):
    for (src, k), dst in sorted(fam.atlas.adjacency.items()):
        if src < dst:
            glue_ring_check(fam, src, k, coefficient_free)
    return True


# -- fibres over nonzero base points ----------------------------------------------


def at_base_point(num_den, assign, scales=None):
    """An expanded image, a (numerator, denominator) pair, with the base
    parameters at the values ``assign`` and the coordinates optionally
    rescaled by ``scales``; an exact pair of integer polynomials.

    Each side specializes to a polynomial over a positive integer, n / cn
    and d / cd, so the quotient is n * cd / (d * cn).  Raises
    ``ExactAlgebraError`` when the denominator vanishes at the point."""
    num, den = num_den
    n, cn = substitute_values(num, assign, scales)
    d, cd = substitute_values(den, assign, scales)
    if d.is_zero():
        raise ExactAlgebraError("zero denominator")
    return n.scale(cd), d.scale(cn)


def specialize_fiber(images, tnames, u):
    """Evaluate the base parameters at a rational point, keeping the
    coordinates symbolic; returns (numerator, denominator) pairs of integer
    polynomials."""
    assign = dict(zip(tnames, u))
    return tuple(at_base_point(f.expand(), assign) for f in images)


def fiber_iso_check(fam, u, u2, walls=None):
    """The coordinate rescalings by u2^c / u^c intertwine the wall
    transitions of the fibres over u and u2."""
    n = fam.n
    u = tuple(Fraction(x) for x in u)
    u2 = tuple(Fraction(x) for x in u2)
    if any(x == 0 for x in u) or any(x == 0 for x in u2):
        raise ValueError("fibre comparison needs nonzero base points")

    quot = [b / a for a, b in zip(u, u2)]
    ratios = {}

    def ratio(col):
        """u2^col / u^col, computed once per column in this call."""
        if col not in ratios:
            out = Fraction(1)
            for q, x in zip(quot, col):
                if x:
                    out *= q ** x
            ratios[col] = out
        return ratios[col]

    items = (sorted(fam.atlas.adjacency) if walls is None else walls)
    assign_u = dict(zip(fam.tnames, u))
    assign_u2 = dict(zip(fam.tnames, u2))
    for src, k in items:
        T = fam.transition(src, k)
        scales = {fam.xnames[j]: ratio(column(T.near.C, j))
                  for j in range(n)}
        for i in range(n):
            num_den = T.images[i].expand()
            a, b = at_base_point(num_den, assign_u, scales)
            c, d = at_base_point(num_den, assign_u2)
            q = ratio(column(T.far.C, i))
            # a / b == (c * q) / d, cross-multiplied
            if a * d.scale(q.denominator) != c.scale(q.numerator) * b:
                raise CheckFailed(
                    f"wall ({src},{k}): fibre rescaling does not intertwine "
                    f"coordinate {i + 1}")
    return True


# -- strata of the special fibre --------------------------------------------------


def _restrict(f, keep, vars):
    """f over its variables at the positions ``keep``, renamed ``vars``, or
    None when f involves a variable at another position.  Coefficients are
    positive, so f involves a variable exactly when its unit or the support
    of one of its factors does, and dropping slots that are zero in every
    term keeps each factor canonical."""
    drop = [j for j in range(len(f.vars)) if j not in keep]
    if any(f.unit[j] for j in drop) or any(
            e[j] for p in f.factors for e in p.terms for j in drop):
        return None
    factors = {LaurentPoly._new(vars, {tuple(e[j] for j in keep): c
                                       for e, c in p.terms.items()}): x
               for p, x in f.factors.items()}
    return PosRatFunc._new(vars, tuple(f.unit[j] for j in keep), factors)


def strata_consistency_check(fam, tau_rays):
    """The family restricted to a face's stratum is itself a glued family.

    For every wall between cones containing the face: coordinates along the
    face divide their own transition images; transverse images do not
    involve them; the transverse transition equals the one produced by the
    restricted exchange data with the ambient coefficient vectors as
    geometric coefficients; and the t = 0 exponents express the far
    coefficient vectors integrally in the near transverse ones.

    The walk steps its own cones with ``g_cone_step`` and builds the
    restricted family's wall images itself, once per ``wall_key`` of the
    restricted data, in a dict that lives for this call only.
    """
    st = star(fam.atlas, tau_rays)
    n = fam.n
    tau = set(tuple(r) for r in tau_rays)
    trans_pos = list(st.dropped)
    face_pos = list(st.kept)
    node_count = sum(1 for c in fam.atlas.cones
                     if tau <= set(c.generators()))
    star_x = tuple(fam.xnames[i] for i in trans_pos)
    star_vars = star_x + fam.tnames
    star_pos = trans_pos + list(range(n, 2 * n))

    root = (st.base, st.restricted.B if st.restricted else (),
            tuple(TropMonomial(fam.tnames, column(st.base.C, i))
                  for i in trans_pos))
    one = TropMonomial.one(fam.tnames)
    seen = {st.base.key()}
    star_walls = {}
    frontier = [root]
    while frontier:
        nxt = []
        for cone, Bb, pb in frontier:
            Bw, Cw = cone.B, cone.C
            for l, k in enumerate(trans_pos):
                if pb[l].exps != column(Cw, k):
                    raise CheckFailed(
                        "restricted coefficients drift from the ambient "
                        "coefficient vectors")
            for l, k in enumerate(trans_pos):
                T = fam.wall_images(Bw, k, column(Cw, k))
                ncone = g_cone_step(cone, k)
                Cfar = ncone.C
                for j in face_pos:
                    nmin, _, dmin, dmax = T[j].exponent_bounds()
                    if any(dmin[jj] or dmax[jj] for jj in face_pos):
                        raise CheckFailed(
                            f"stratum wall in direction {k}: face "
                            f"coordinate {j + 1} image has a face variable "
                            f"in its denominator")
                    if nmin[j] < 1:
                        raise CheckFailed(
                            f"stratum wall in direction {k}: face "
                            f"coordinate {j + 1} does not divide its own "
                            f"image")
                skey = wall_key(Bb, l, pb[l].exps)
                if skey not in star_walls:
                    star_walls[skey] = family_wall_images(
                        Bb, l, pb[l].exps, star_x, fam.tnames)
                star_images = star_walls[skey]
                for ll, i in enumerate(trans_pos):
                    on_star = _restrict(T[i], star_pos, star_vars)
                    if on_star is None:
                        raise CheckFailed(
                            f"stratum wall in direction {k}: transverse "
                            f"coordinate {i + 1} image involves a face "
                            f"variable")
                    if not rat_equal(on_star, star_images[ll]):
                        raise CheckFailed(
                            f"stratum wall in direction {k}: ambient "
                            f"transition disagrees with the restricted "
                            f"family at coordinate {i + 1}")
                    exps = coordinate_limit(
                        fam, T[i], f"stratum wall in direction {k}: "
                        f"transverse coordinate {i + 1}")
                    for r in range(n):
                        if Cfar[r][i] != sum(Cw[r][j] * exps[j]
                                             for j in trans_pos):
                            raise CheckFailed(
                                f"stratum wall in direction {k}: stratum "
                                f"exponents of coordinate {i + 1} do not "
                                f"express the far coefficient vector in "
                                f"the transverse near ones")
                key = ncone.key()
                if key not in seen:
                    seen.add(key)
                    nxt.append((ncone, mutate_matrix(Bb, l),
                                mutate_y_tuple(pb, Bb, l, one, one)))
        frontier = nxt
    if len(seen) != node_count:
        raise CheckFailed("stratum walk did not reach every cone of the "
                          "star")
    return st
