"""Oracles and consistency checks for the glued family over the cone atlas
and its degeneration onto the toric variety of the fan."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies

from cluster_forge import exact_algebra
from cluster_forge.exact_algebra import (
    ExactAlgebraError,
    InexactDivision,
    LaurentPoly,
    PosRatFunc,
    limit_t_zero,
    rat_equal,
    substitute_values,
)
from cluster_forge.semifields import TropMonomial
from cluster_forge.seeds import (
    ExchangeData,
    YSeedCoeff,
    mutate_y_seed,
    mutate_y_tuple,
)
from cluster_forge import degeneration
from cluster_forge.invariants import CheckFailed
from cluster_forge.gfan import g_cone_step, star, two_faces
from cluster_forge.degeneration import (
    Family,
    at_base_point,
    column,
    composer,
    central_fiber_toric_check,
    cocycle_check,
    coordinate_limit,
    degree_check,
    family_vars,
    family_wall_images,
    fiber_iso_check,
    glue_ring_check,
    glue_ring_check_all,
    limit_check,
    reverse_wall,
    strata_consistency_check,
    variables,
    wall_binomial,
    wall_key,
    _in_glue_ring,
)
from support import (A2, A3, A4, B2, B3, C3, D4, G2, fixture_exchange,
                     record_calls)

FINITE_TYPES = {"a2": A2, "b2": B2, "g2": G2, "a3": A3, "b3": B3, "c3": C3,
                "a4": A4, "d4": D4}

V = ("X1", "X2", "t1", "t2")


def _prf(num_terms, den_terms=None):
    f = PosRatFunc.from_poly(LaurentPoly(V, num_terms))
    if den_terms:
        f = f.mul(PosRatFunc.from_poly(LaurentPoly(V, den_terms), -1))
    return f


X1 = {(1, 0, 0, 0): 1}
X2 = {(0, 1, 0, 0): 1}
ONE_T1X1 = {(0, 0, 0, 0): 1, (1, 0, 1, 0): 1}
ONE_T2X2 = {(0, 0, 0, 0): 1, (0, 1, 0, 1): 1}
X1_ONE_T2X2 = {(1, 0, 0, 0): 1, (1, 1, 0, 1): 1}
LONG = {(0, 0, 0, 0): 1, (1, 0, 1, 0): 1, (1, 1, 1, 1): 1}
X1X2 = {(1, 1, 0, 0): 1}

# pullbacks of every patch's coordinates to the initial patch, by path
PULLBACKS = {
    (): (_prf(X1), _prf(X2)),
    (0,): (_prf({(0, 0, 0, 0): 1}, X1), _prf(X1X2, ONE_T1X1)),
    (1,): (_prf(X1_ONE_T2X2), _prf({(0, 0, 0, 0): 1}, X2)),
    (0, 1): (_prf(X2, LONG), _prf(ONE_T1X1, X1X2)),
    (1, 0): (_prf({(0, 0, 0, 0): 1}, X1_ONE_T2X2), _prf(LONG, X2)),
}

# the walk that continues past the enumerated representatives, row by row
WALK_ROWS = {
    (1, 0, 1): (_prf(ONE_T1X1, X1X2), _prf(X2, LONG)),
    (1, 0, 1, 0): (_prf(X1X2, ONE_T1X1), _prf({(0, 0, 0, 0): 1}, X1)),
    (1, 0, 1, 0, 1): (_prf(X2), _prf(X1)),
}

# monomial maps on the fibre over t = 0, one per directed wall
T_ZERO_MAPS = {
    (0, 0): ("X1^-1", "X1*X2"),
    (0, 1): ("X1", "X2^-1"),
    (1, 0): ("X1^-1", "X1*X2"),
    (1, 1): ("X1*X2", "X2^-1"),
    (2, 0): ("X1^-1", "X2"),
    (2, 1): ("X1", "X2^-1"),
    (3, 0): ("X1^-1", "X1*X2"),
    (3, 1): ("X1*X2", "X2^-1"),
    (4, 0): ("X1^-1", "X2"),
    (4, 1): ("X1*X2", "X2^-1"),
}

# patch counts of the star of each ray in the A3 atlas
A3_STAR_SIZES = {
    (-1, 0, 0): 5,
    (-1, 0, 1): 4,
    (-1, 1, 0): 5,
    (0, -1, 0): 4,
    (0, -1, 1): 5,
    (0, 0, -1): 5,
    (0, 0, 1): 5,
    (0, 1, 0): 4,
    (1, 0, 0): 5,
}


def _walk_composite(fam, path):
    """Compose wall transitions along a mutation walk from the initial
    patch, stepping the walk's own cone record."""
    images = fam.coordinates()
    cone = fam.atlas.cones[0]
    for k in path:
        step = family_wall_images(cone.B[k], k, column(cone.C, k),
                                  fam.xnames, fam.tnames)
        subst = dict(zip(fam.xnames, images))
        images = tuple(img.evaluate(subst) for img in step)
        cone = g_cone_step(cone, k)
    return images


def test_wall_transitions_from_initial_patch():
    fam = Family(A2)
    T0 = fam.transition(0, 0)
    assert rat_equal(T0.images[0], _prf({(0, 0, 0, 0): 1}, X1))
    assert rat_equal(T0.images[1], _prf(X1X2, ONE_T1X1))
    T1 = fam.transition(0, 1)
    assert rat_equal(T1.images[0], _prf(X1_ONE_T2X2))
    assert rat_equal(T1.images[1], _prf({(0, 0, 0, 0): 1}, X2))
    assert T0.near is fam.atlas.cones[0] and T0.key[1] == 0


def test_pullbacks_to_initial_patch():
    fam = Family(A2)
    by_path = {c.path: c.index for c in fam.atlas.cones}
    assert set(by_path) == set(PULLBACKS)
    for path, expected in PULLBACKS.items():
        got = fam.pullback_to_initial(by_path[path])
        for g, e in zip(got, expected):
            assert rat_equal(g, e)


def test_pentagon_walk_rows_and_closure():
    fam = Family(A2)
    for path, expected in WALK_ROWS.items():
        got = _walk_composite(fam, path)
        for g, e in zip(got, expected):
            assert rat_equal(g, e)
    # the five-step composite is the coordinate swap
    final = _walk_composite(fam, (1, 0, 1, 0, 1))
    assert rat_equal(final[0], PosRatFunc.variable(V, "X2"))
    assert rat_equal(final[1], PosRatFunc.variable(V, "X1"))


@pytest.mark.parametrize("ed", [A2, B2, A3], ids=["a2", "b2", "a3"])
def test_pullback_matches_coefficient_dynamics(ed):
    """The pullback of each patch to the initial one equals the Y-seed walk
    seeded with one base parameter per direction.  The two sides share no
    rule.  The family builds each wall map in closed form,
    X_j * X_k^[b]+ * W^-b, and composes the maps through
    ``PosRatFunc.evaluate``; the walk applies the Y-mutation rule
    ``mutate_y_tuple`` through ``mutate_y_seed`` directly to the current
    Y-variables, summing in the semifield.  The family's coefficients are
    the c-matrix columns of its cone records, where the walk's come from
    the rule applied to the tropical coefficient tuple with both parts
    one."""
    fam = Family(ed)
    n = ed.n
    p0 = tuple(TropMonomial(fam.tnames,
                            tuple(1 if j == i else 0 for j in range(n)))
               for i in range(n))
    rename = {f"y{i + 1}": tuple(1 if j == i else 0
                                 for j in range(2 * n))
              for i in range(n)}
    for rec in fam.atlas.cones:
        seed = YSeedCoeff.initial(ed, p0)
        for k in rec.path:
            seed = mutate_y_seed(seed, k)
        pull = fam.pullback_to_initial(rec.index)
        for y, f in zip(seed.y, pull):
            assert rat_equal(y.substitute_monomials(rename, fam.vars), f)


@pytest.mark.parametrize("ed", [A2, B2, A3], ids=["a2", "b2", "a3"])
def test_degree_and_limit_checks(ed):
    fam = Family(ed)
    assert degree_check(fam)
    assert limit_check(fam)


def test_degree_check_rejects_tampered_pullback():
    fam = Family(A2)
    degree_check(fam)
    pull = fam.pullback_to_initial(1)
    fam._pull[fam.atlas.cones[1].path] = (
        1, (pull[0].mul(PosRatFunc.variable(V, "X1")), pull[1]))
    with pytest.raises(CheckFailed):
        degree_check(fam)


def test_limit_check_rejects_tampered_pullback():
    fam = Family(A2)
    limit_check(fam)
    pull = fam.pullback_to_initial(1)
    bad = pull[0].mul(PosRatFunc.from_poly(
        LaurentPoly(V, {(0, 0, 0, 0): 1, (1, 0, 0, 0): 1})))
    fam._pull[fam.atlas.cones[1].path] = (1, (bad, pull[1]))
    with pytest.raises(CheckFailed):
        limit_check(fam)


def test_limit_check_names_a_limit_on_the_wrong_coordinate():
    """A pullback whose limit is another coordinate monomial has a limit,
    with the wrong exponents."""
    fam = Family(A2)
    X1, X2 = fam.coordinates()
    fam._pull[()] = (0, (X2, X1))
    with pytest.raises(CheckFailed) as err:
        limit_check(fam)
    assert str(err.value) == ("cone 0 coordinate 1: limit exponents (0, 1), "
                              "expected (1, 0)")


def test_coordinate_limit_needs_a_coordinate_monomial():
    """The t = 0 limit is read as exponents in X only when it is a monomial
    with coefficient one and no residual t-exponent."""
    fam = Family(A2)
    X1, X2, t1 = (PosRatFunc.variable(V, v) for v in ("X1", "X2", "t1"))
    assert coordinate_limit(fam, X1.mul(t1.add(X2)), "f") == (1, 1)
    two_plus_t1 = PosRatFunc.from_poly(
        LaurentPoly(V, {(0, 0, 0, 0): 2, (0, 0, 1, 0): 1}))
    for bad in (X1.mul(two_plus_t1), X1.mul(t1.inv()), X1.add(X2)):
        with pytest.raises(CheckFailed, match="^f "):
            coordinate_limit(fam, bad, "f")


@pytest.mark.parametrize("ed", [A2, B2, A3], ids=["a2", "b2", "a3"])
def test_central_fiber_toric(ed):
    assert central_fiber_toric_check(Family(ed))


def test_central_fiber_rejects_a_wall_that_keeps_the_coordinates():
    """A transition that leaves every coordinate as it is does not invert
    the wall coordinate at t = 0."""
    fam = Family(A2)
    T = fam.transition(0, 0)
    fam._trans[(0, 0)] = type(T)(T.near, T.key, fam.coordinates())
    with pytest.raises(CheckFailed) as err:
        central_fiber_toric_check(fam)
    assert str(err.value) == ("wall (0,0): coordinate 1 degenerates to "
                              "(1, 0), expected (-1, 0)")


def test_central_fiber_monomial_maps_frozen():
    fam = Family(A2)
    for (src, k), expected in T_ZERO_MAPS.items():
        T = fam.transition(src, k)
        got = tuple(limit_t_zero(f, fam.tnames).to_text() for f in T.images)
        assert got == expected


@pytest.mark.parametrize("ed", list(FINITE_TYPES.values()),
                         ids=list(FINITE_TYPES))
def test_cocycle(ed):
    """At the default max_len of 8 every 2-face of every finite type
    closes, and each closes on a permutation of its start cone's
    coordinates."""
    assert cocycle_check(Family(ed)) is True


def test_cocycle_rejects_tampered_transition():
    """The wall pass composes each wall's images, read from the wall-image
    cache under the transition's key, with those of the reversed key."""
    fam = Family(A2)
    T = fam.transition(0, 0)
    fam._walls[T.key] = (T.images[0].power(2), T.images[1])
    with pytest.raises(CheckFailed):
        cocycle_check(fam)


def test_cocycle_rejects_a_face_that_does_not_come_back(monkeypatch):
    """A face walk cut one step short ends on another cone, whose
    coefficient vectors are no permutation of the start cone's."""
    fam = Family(A2)
    (start, i, j, stepped), = two_faces(fam.atlas, 8)[0]
    monkeypatch.setattr(degeneration, "two_faces",
                        lambda atlas, max_len: ([(start, i, j,
                                                  stepped[:-1])], 0))
    with pytest.raises(CheckFailed, match="do not come back permuted"):
        cocycle_check(fam)


def test_cocycle_checks_the_faces_it_is_given(monkeypatch):
    """Given the faces, the check walks none itself: it passes on the
    closed faces ``two_faces`` found, and on none, and catches a face walk
    cut one step short."""
    fam = Family(A2)
    closed, _ = two_faces(fam.atlas, 8)
    monkeypatch.setattr(degeneration, "two_faces", None)
    assert cocycle_check(fam, faces=closed) is True
    assert cocycle_check(fam, faces=[]) is True
    (start, i, j, stepped), = closed
    with pytest.raises(CheckFailed, match="do not come back permuted"):
        cocycle_check(fam, faces=[(start, i, j, stepped[:-1])])


def _wall_key(rec, k):
    """The ``Family.wall_images`` cache key of a record's wall in direction
    k."""
    return wall_key(rec.B, k, column(rec.C, k))


def _face_keys(start, i, j, max_len):
    """Wall keys, from both sides, of the walk alternating in i and j from
    ``start`` until it closes or has taken ``max_len`` steps."""
    keys = set()
    rec = start
    for s in range(max_len):
        k = (i, j)[s % 2]
        nxt = g_cone_step(rec, k)
        keys |= {_wall_key(rec, k), _wall_key(nxt, k)}
        rec = nxt
        if rec.key() == start.key():
            break
    return keys


def _conjugate(fam, images, c):
    """Wall images conjugated by the rescaling X_c -> t1*X_c: entry i is
    images[i] at the rescaled coordinates, divided by the rescaling of X_i.
    Conjugating a wall's images from both sides keeps the there-and-back
    composite the identity."""
    exps = [0] * len(fam.vars)
    exps[fam.n] = 1
    t1 = PosRatFunc.monomial(fam.vars, exps)
    coords = list(fam.coordinates())
    coords[c] = coords[c].mul(t1)
    out = list(composer(fam.xnames, coords)(images))
    out[c] = out[c].mul(t1.inv())
    return tuple(out)


@pytest.mark.parametrize("ed", [A4, D4], ids=["a4", "d4"])
def test_cocycle_rejects_a_tampered_wall_off_the_base_faces(ed, monkeypatch):
    """A wall conjugated from both sides by a rescaling of its wall
    coordinate passes the there-and-back pass.  Its wall-image keys serve
    no wall of a face holding the base cone, so closed walks of at most
    five steps from the base cone, which go around such faces, miss it;
    the walk around a face through it catches it."""
    max_len = 5
    fam = Family(ed)
    atlas = fam.atlas
    base = atlas.cones[0]
    near_base = set()
    for i in atlas.allowed:
        for j in atlas.allowed:
            if i != j:
                near_base |= _face_keys(base, i, j, max_len)
    closed, skipped = two_faces(atlas, max_len)
    assert skipped == 0
    start, i, j, stepped = next(
        face for face in closed
        if not _face_keys(face[0], face[1], face[2], max_len) & near_base)
    for rec in (start, stepped[0]):
        key = _wall_key(rec, i)
        fam._walls[key] = _conjugate(fam, fam.wall_images(key), i)
    with monkeypatch.context() as m:
        m.setattr(degeneration, "two_faces", lambda atlas, max_len: ([], 0))
        assert cocycle_check(fam, max_len=max_len)
    with pytest.raises(CheckFailed, match="face at cone"):
        cocycle_check(fam, max_len=max_len)


@pytest.mark.parametrize("ed", [A2, B2, A3], ids=["a2", "b2", "a3"])
def test_glue_rings(ed):
    fam = Family(ed)
    assert glue_ring_check_all(fam)
    assert glue_ring_check_all(fam, coefficient_free=True)


def test_glue_ring_single_wall():
    fam = Family(A2)
    assert glue_ring_check(fam, 0, 0)
    assert glue_ring_check(fam, 0, 1, coefficient_free=True)


@pytest.mark.parametrize("ed", list(FINITE_TYPES.values()),
                         ids=list(FINITE_TYPES))
def test_reverse_wall_is_the_key_of_the_stepped_far_record(ed):
    """On every wall of every finite type, with the near coefficient vector
    and with none, the near key negated is the key of the far record that
    ``g_cone_step`` steps, and reversing twice gives the key back."""
    atlas = Family(ed).atlas
    free = (0,) * ed.n
    for src, k in sorted(atlas.adjacency):
        near = atlas.cones[src]
        far = g_cone_step(near, k)
        for c_k, c_far in ((column(near.C, k), column(far.C, k)),
                           (free, free)):
            key = wall_key(near.B, k, c_k)
            assert reverse_wall(key) == wall_key(far.B, k, c_far)
            assert reverse_wall(reverse_wall(key)) == key


def _rule_wall_images(bk, k, c_k, xnames, tnames):
    """The second route to ``family_wall_images``: the Y-seed rule
    ``mutate_y_tuple`` on the coordinate monomials, with the parts
    t^[c_k]+ and t^[-c_k]+ of the coefficient t^c_k."""
    vars = xnames + tnames
    n = len(xnames)
    plus = PosRatFunc.monomial(vars, [0] * n + [max(c, 0) for c in c_k])
    minus = PosRatFunc.monomial(vars, [0] * n + [max(-c, 0) for c in c_k])
    return mutate_y_tuple(variables(vars, range(n)), bk, k, plus, minus)


def _assert_images_follow_the_rule(key):
    """The closed-form images of the wall ``key`` have the rule's units and
    factor dicts, factor order included."""
    xnames, tnames = family_vars(len(key[0]))
    closed = family_wall_images(*key, xnames, tnames)
    rule = _rule_wall_images(*key, xnames, tnames)
    assert ([(f.unit, list(f.factors.items())) for f in closed]
            == [(f.unit, list(f.factors.items())) for f in rule]), key


@pytest.mark.parametrize("ed", list(FINITE_TYPES.values()),
                         ids=list(FINITE_TYPES))
def test_wall_images_follow_the_y_seed_rule(ed):
    """On every wall of every finite type, crossed from either side, with
    the near coefficient vector and with none, the closed form
    X_j * X_k^[b]+ * W^-b equals the Y-seed rule with coefficient t^c_k."""
    atlas = Family(ed).atlas
    free = (0,) * ed.n
    for src, k in sorted(atlas.adjacency):
        near = atlas.cones[src]
        for c_k in (column(near.C, k), free):
            key = wall_key(near.B, k, c_k)
            _assert_images_follow_the_rule(key)
            _assert_images_follow_the_rule(reverse_wall(key))


@settings(max_examples=200, deadline=None)
@given(strategies.integers(1, 5).flatmap(lambda n: strategies.tuples(
    strategies.tuples(*[strategies.integers(-4, 4)] * n),
    strategies.integers(0, n - 1),
    strategies.tuples(*[strategies.integers(-3, 3)] * n))))
def test_wall_images_follow_the_y_seed_rule_on_any_row(key):
    """Any row, direction and coefficient vector, row k's own entry and a
    zero coefficient vector included: the closed form equals the rule."""
    _assert_images_follow_the_rule(key)


def test_wall_images_make_no_sum(monkeypatch):
    """Each image is a monomial times one power of the wall binomial, so
    building both sides of every wall of the a3 fixture, 44 distinct wall
    keys, makes no ``prf_sum`` call."""
    fam = _a3_fixture_family()
    walls = record_calls(monkeypatch, "family_wall_images", degeneration)
    sums = record_calls(monkeypatch, "prf_sum", exact_algebra)
    for src, k in fam.atlas.adjacency:
        fam.wall_images(reverse_wall(fam.transition(src, k).key))
    assert {"walls": len(walls), "sums": len(sums)} == {"walls": 44,
                                                        "sums": 0}


def test_glue_ring_membership_certificates():
    W = wall_binomial(V, 0, (1, 0), 2)
    assert W == LaurentPoly(V, {(0, 0, 0, 0): 1, (1, 0, 1, 0): 1})
    # the localized binomial and the wall coordinate are units
    assert _in_glue_ring(PosRatFunc.from_poly(W, -1), 0, W)
    assert _in_glue_ring(PosRatFunc.monomial(V, (-3, 0, 0, 0)), 0, W)
    assert _in_glue_ring(PosRatFunc.from_poly(W, 2), 0, W)
    # a non-wall binomial denominator is not
    other = LaurentPoly(V, {(0, 0, 0, 0): 1, (1, 0, 0, 0): 1})
    assert not _in_glue_ring(PosRatFunc.from_poly(other, -1), 0, W)
    # a negative power of a non-wall coordinate is not
    assert not _in_glue_ring(PosRatFunc.monomial(V, (0, -1, 0, 0)), 0, W)


def test_glue_ring_reads_the_denominator_left_after_the_binomial():
    """The binomial is divided out only while the denominator has more than
    one term; the monomial left must then be a power of the wall coordinate
    alone."""
    W = wall_binomial(V, 0, (1, 0), 2)
    over = lambda poly, *shifts: PosRatFunc.from_poly(poly, -1).mul(
        PosRatFunc.monomial(V, shifts))
    assert _in_glue_ring(over(W * W, -2, 0, 0, 0), 0, W)
    assert not _in_glue_ring(over(W, 0, -1, 0, 0), 0, W)
    assert not _in_glue_ring(over(W * W, -1, -1, 0, 0), 0, W)
    assert not _in_glue_ring(over(W, 0, 0, -1, 0), 0, W)
    assert not _in_glue_ring(over(W, 1, -1, 0, 0), 0, W)
    # a binomial factor that is not W stops the division
    other = LaurentPoly(V, {(0, 0, 0, 0): 1, (0, 1, 0, 0): 1})
    assert not _in_glue_ring(over(W * other, 0, 0, 0, 0), 0, W)


def test_at_base_point_at_one():
    fam = Family(A2)
    T = fam.transition(0, 1)
    assign = dict.fromkeys(fam.tnames, (1, 1))
    assert tuple(at_base_point(f.expand(), assign) for f in T.images) == (
        (LaurentPoly(V, {(1, 0, 0, 0): 1, (1, 1, 0, 0): 1}),
         LaurentPoly.one(V)),
        (LaurentPoly.one(V), LaurentPoly(V, X2)))


@pytest.mark.parametrize("ed,u,u2", [
    (A2, (1, 1), (2, 3)),
    (A2, (1, 1), (5, 7)),
    (A2, (2, 3), (5, 7)),
    (B2, (1, 1), (2, 3)),
    (A3, (1, 1, 1), (2, 3, 5)),
    (A2, (Fraction(1, 2), -3), (Fraction(-7, 3), Fraction(4, 9))),
    (G2, (Fraction(-5, 2), Fraction(2, 7)), (3, Fraction(-1, 4))),
    (A3, (Fraction(1, 2), -3, Fraction(5, 3)),
     (Fraction(-7, 3), Fraction(4, 9), -2)),
], ids=["a2-23", "a2-57", "a2-2357", "b2", "a3", "a2-signed", "g2-signed",
        "a3-signed"])
def test_fiber_isomorphisms(ed, u, u2):
    assert fiber_iso_check(Family(ed), u, u2)


def test_at_base_point_equals_the_product_of_the_specialized_sides():
    """Scaling the two specialized sides by each other's constant
    denominator gives the exact terms of their quotient: each side's
    numerator times the other side's denominator as a constant polynomial,
    on every A3 wall image at seeded base points and coordinate scales."""
    rng = random.Random(5)
    fam = Family(A3)
    const = lambda c: LaurentPoly(fam.vars, {(0,) * len(fam.vars): c})
    point = lambda: (rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))
    for src, k in sorted(fam.atlas.adjacency):
        assign = {t: point() for t in fam.tnames}
        scales = {x: point() for x in fam.xnames if rng.random() < 0.5}
        for f in fam.transition(src, k).images:
            num, den = f.expand()
            for sc in (None, scales):
                n, cn = substitute_values(num, assign, sc)
                d, cd = substitute_values(den, assign, sc)
                assert at_base_point((num, den), assign, sc) == (
                    n * const(cd), d * const(cn))


def test_at_base_point_refuses_a_vanishing_denominator():
    """X1 / (1 + t1) at t1 = -1."""
    den = LaurentPoly(V, {(0, 0, 0, 0): 1, (0, 0, 1, 0): 1})
    with pytest.raises(ExactAlgebraError, match="zero denominator"):
        at_base_point((LaurentPoly(V, {(1, 0, 0, 0): 1}), den),
                      {"t1": (-1, 1), "t2": (2, 1)})
    assert at_base_point((LaurentPoly(V, {(1, 0, 0, 0): 1}), den),
                         {"t1": (-1, 2), "t2": (2, 1)}) == (
        LaurentPoly(V, {(1, 0, 0, 0): 2}), LaurentPoly.one(V))


def test_fiber_iso_rejects_zero_base_point():
    with pytest.raises(ValueError):
        fiber_iso_check(Family(A2), (1, 1), (0, 1))


@pytest.mark.parametrize("tamper", ["t-factor", "square", "swap"])
def test_fiber_iso_rejects_tampered_transition(tamper):
    """A wall image changed in the family's transition cache breaks the
    intertwining at signed rational points."""
    u, u2 = (Fraction(1, 2), -3), (Fraction(-7, 3), Fraction(4, 9))
    fam = Family(A2)
    assert fiber_iso_check(fam, u, u2)
    T = fam.transition(1, 1)
    images = list(T.images)
    if tamper == "t-factor":
        images[0] = images[0].mul(PosRatFunc.variable(V, "t1"))
    elif tamper == "square":
        images[0] = images[0].power(2)
    else:
        images.reverse()
    fam._trans[(1, 1)] = type(T)(T.near, T.key, images)
    with pytest.raises(CheckFailed):
        fiber_iso_check(fam, u, u2)
    with pytest.raises(CheckFailed):
        fiber_iso_check(fam, u, u2, walls=[(1, 1)])
    assert fiber_iso_check(fam, u, u2, walls=[(0, 0), (0, 1)])


def test_strata_of_every_a2_ray():
    fam = Family(A2)
    for ray in fam.atlas.rays:
        st = strata_consistency_check(fam, [ray])
        assert len(st.proj_cones) == 2
        assert {cols for _, cols in st.proj_cones} == {((1,),), ((-1,),)}
        assert st.restricted.B == ((0,),)
        # the residual family has two patches glued by inversion
        images = family_wall_images(st.restricted.B[0], 0, (1, 0), ("X1",),
                                    ("t1", "t2"))
        assert images == (PosRatFunc.monomial(("X1", "t1", "t2"),
                                              (-1, 0, 0)),)


def test_strata_of_every_a3_ray():
    fam = Family(A3)
    assert set(fam.atlas.rays) == set(A3_STAR_SIZES)
    for ray, size in A3_STAR_SIZES.items():
        st = strata_consistency_check(fam, [ray])
        assert len(st.proj_cones) == size
        if size == 4:
            assert st.restricted.B == ((0, 0), (0, 0))
        else:
            assert sorted(x for row in st.restricted.B
                          for x in row) == [-1, 0, 0, 1]


def test_strata_of_a3_two_dimensional_faces():
    fam = Family(A3)
    gens = fam.atlas.cones[0].generators()
    for a in range(3):
        for b in range(a + 1, 3):
            st = strata_consistency_check(fam, [gens[a], gens[b]])
            assert len(st.proj_cones) == 2
            assert st.restricted.B == ((0,),)


def test_strata_of_a_whole_a3_maximal_cone():
    """The face spanned by all three rays of a maximal cone has the
    zero-dimensional star: one projected cone, no restricted data."""
    fam = Family(A3)
    st = strata_consistency_check(fam, fam.atlas.cones[4].generators())
    assert st.proj_cones == ((4, ()),)
    assert st.quotient_rows == () and st.restricted is None


def test_strata_rejects_non_face():
    with pytest.raises(CheckFailed):
        strata_consistency_check(Family(A3), [(5, 7, 11)])


@pytest.mark.parametrize("carrier", ["unit", "factor"])
def test_strata_rejects_a_transverse_image_with_a_face_variable(carrier):
    """A transverse image multiplied by the face coordinate, or by a factor
    that involves it, no longer lives on the stratum.  The image is changed
    on the first wall the check walks: from the star's base cone in its
    first transverse direction."""
    fam = Family(A3)
    ray = fam.atlas.rays[0]
    st = star(fam.atlas, [ray])
    k, i, face = st.dropped[0], st.dropped[-1], st.kept[0]
    one = [0] * len(fam.vars)
    e = list(one)
    e[face] = 1
    if carrier == "unit":
        extra = PosRatFunc.monomial(fam.vars, e)
    else:
        extra = PosRatFunc.from_poly(
            LaurentPoly(fam.vars, {tuple(one): 1, tuple(e): 1}))
    _corrupt_wall(fam, st.base, k, i, extra)
    with pytest.raises(CheckFailed) as err:
        strata_consistency_check(fam, [ray])
    assert str(err.value) == (
        f"stratum wall in direction {k}: transverse coordinate {i + 1} "
        f"image involves a face variable")


def test_strata_rejects_a_restricted_family_that_disagrees(monkeypatch):
    """The restricted exchange data's own wall images, built in the star's
    variables, are the second route: changing them breaks the
    comparison on the first wall the check walks."""
    fam = Family(A3)
    ray = fam.atlas.rays[0]
    k = star(fam.atlas, [ray]).dropped[0]
    build = degeneration.family_wall_images

    def skewed(bk, k, c_k, xnames, tnames):
        images = build(bk, k, c_k, xnames, tnames)
        if xnames == fam.xnames:
            return images
        t1 = PosRatFunc.variable(xnames + tnames, tnames[0])
        return (images[0].mul(t1),) + images[1:]

    monkeypatch.setattr(degeneration, "family_wall_images", skewed)
    with pytest.raises(CheckFailed) as err:
        strata_consistency_check(fam, [ray])
    assert str(err.value) == (
        f"stratum wall in direction {k}: ambient transition disagrees "
        f"with the restricted family at coordinate {k + 1}")


def _scale_face_image(by):
    """Plant: the face coordinate's image on the first wall the strata walk
    crosses, multiplied by ``by(x)`` for x that coordinate."""
    def plant(fam, st, monkeypatch):
        x = PosRatFunc.variable(fam.vars, fam.xnames[st.kept[0]])
        _corrupt_wall(fam, st.base, st.dropped[0], st.kept[0], by(x))
    return plant


def _far_record_keeps(field):
    """Plant: every record the strata walk steps keeps the near record's
    ``field`` ("C" or "G")."""
    def plant(fam, st, monkeypatch):
        def step(cone, k):
            far = g_cone_step(cone, k)
            setattr(far, field, getattr(cone, field))
            return far
        monkeypatch.setattr(degeneration, "g_cone_step", step)
    return plant


def _drift_restricted_coefficients(fam, st, monkeypatch):
    """Plant: each tropical step of the restricted coefficients inverts the
    first one."""
    mutate = degeneration.mutate_y_tuple

    def drifted(y, bk, k, plus, minus):
        out = mutate(y, bk, k, plus, minus)
        if isinstance(plus, TropMonomial):
            out = (out[0].inv(),) + out[1:]
        return out
    monkeypatch.setattr(degeneration, "mutate_y_tuple", drifted)


@pytest.mark.parametrize("plant, message", [
    pytest.param(_scale_face_image(
                     lambda x: x.add(PosRatFunc.one(x.vars)).inv()),
                 "stratum wall in direction {k}: face coordinate {face} "
                 "image has a face variable in its denominator",
                 id="face-denominator"),
    pytest.param(_scale_face_image(lambda x: x.inv()),
                 "stratum wall in direction {k}: face coordinate {face} "
                 "does not divide its own image", id="face-division"),
    pytest.param(_far_record_keeps("C"),
                 "stratum wall in direction {k}: stratum exponents of "
                 "coordinate {wall} do not express the far coefficient "
                 "vector in the transverse near ones", id="far-c-matrix"),
    pytest.param(_far_record_keeps("G"),
                 "stratum walk did not reach every cone of the star",
                 id="far-generators"),
    pytest.param(_drift_restricted_coefficients,
                 "restricted coefficients drift from the ambient "
                 "coefficient vectors", id="drift"),
])
def test_strata_rejects_a_planted_fault(monkeypatch, plant, message):
    """Each fault, planted on the star of the first A3 ray, is caught by its
    own check: the two face checks and the far record's coefficients on the
    first wall the walk crosses (from the base cone in its first transverse
    direction), the count of cones the walk reaches when no step leaves the
    base cone's generators, and the restricted coefficients one step on."""
    fam = Family(A3)
    ray = fam.atlas.rays[0]
    st = star(fam.atlas, [ray])
    plant(fam, st, monkeypatch)
    k = st.dropped[0]
    with pytest.raises(CheckFailed) as err:
        strata_consistency_check(fam, [ray])
    assert str(err.value) == message.format(k=k, face=st.kept[0] + 1,
                                            wall=k + 1)


def test_strata_builds_each_star_wall_once_per_call(monkeypatch):
    """The restricted family's wall images are built once per wall key of
    the restricted data (row, direction and coefficient vector) within a
    call, and again by the next call: over the nine rays of A3 that is 72
    builds in the star's variables for the 84 walls walked, since the
    walls of an A1 x A1 star share their images in pairs."""
    fam = Family(A3)
    builds = record_calls(monkeypatch, "family_wall_images", degeneration)

    def star_wall_keys(ray):
        builds.clear()
        strata_consistency_check(fam, [ray])
        return [(bk, k, c_k) for (bk, k, c_k, xnames, _), _ in builds
                if xnames != fam.xnames]

    per_ray = []
    for ray in A3_STAR_SIZES:
        keys = star_wall_keys(ray)
        assert len(set(keys)) == len(keys)
        per_ray.append(len(keys))
    assert sum(per_ray) == 72
    assert [len(star_wall_keys(ray)) for ray in A3_STAR_SIZES] == per_ray


def test_family_rejects_frozen_directions():
    ed = ExchangeData(((0, 1, -1), (-1, 0, 0), (1, 0, 0)), 2)
    with pytest.raises(ValueError):
        Family(ed)



# -- caches against fresh computation ----------------------------------------------

@pytest.mark.parametrize("ed", list(FINITE_TYPES.values()),
                         ids=list(FINITE_TYPES))
def test_wall_image_cache_and_shared_memo_agree_with_fresh(ed):
    """On random walks of length 0-6, the family's wall-image cache returns
    what a fresh family_wall_images call builds, for coefficient-true and
    coefficient-free wall data alike; and composing a step's images with one
    memo for the whole tuple equals composing each image on its own."""
    rng = random.Random(7)
    fam = Family(ed)
    n = ed.n
    free = (0,) * n
    for _ in range(12):
        cone = fam.atlas.cones[0]
        images = fam.coordinates()
        for _ in range(rng.randint(0, 6)):
            subst = dict(zip(fam.xnames, images))
            memo = {}
            for k in range(n):
                for c_k in (column(cone.C, k), free):
                    fresh = family_wall_images(cone.B[k], k, c_k, fam.xnames,
                                               fam.tnames)
                    key = wall_key(cone.B, k, c_k)
                    assert fam.wall_images(key) == fresh
                    shared = tuple(img.evaluate(subst, memo)
                                   for img in fam.wall_images(key))
                    assert shared == tuple(img.evaluate(subst)
                                           for img in fresh)
            k = rng.randrange(n)
            images = tuple(img.evaluate(subst) for img in
                           fam.wall_images(_wall_key(cone, k)))
            cone = g_cone_step(cone, k)


def _a3_fixture_family():
    return Family(fixture_exchange("a3.json"))


COUNTED_CHECKS = [
    # cocycle: 42 walls there and back over 34 distinct pairs of wall keys,
    # three coordinates each (102), and on the nine faces of A3 the 42 face
    # steps less the first of each, whose images are taken as they are
    # (99); glue: 21 walls there and back and back and there, again over 34
    # distinct pairs of wall keys (102)
    (lambda fam: cocycle_check(fam, max_len=5), 201),
    (glue_ring_check_all, 102),
    (degree_check, 39),
]


@pytest.mark.parametrize("check, calls", COUNTED_CHECKS,
                         ids=["cocycle", "glue", "degree"])
def test_checks_evaluate_through_posratfunc_evaluate(monkeypatch, check,
                                                     calls):
    """Every composition in the checks goes through PosRatFunc.evaluate,
    the boundary the benchmark's tracer counts.  A wall round trip is
    composed once per pair of wall keys in a Family, so a check pays one
    composition per distinct pair, not one per wall."""
    fam = _a3_fixture_family()
    seen = record_calls(monkeypatch, "evaluate", PosRatFunc)
    assert check(fam)
    assert len(seen) == calls


@pytest.mark.parametrize("check, calls", COUNTED_CHECKS,
                         ids=["cocycle", "glue", "degree"])
def test_a_second_family_pays_as_much_as_the_first(monkeypatch, check,
                                                   calls):
    """No memo outlives its Family: a second Family on the same atlas
    composes as often as the first."""
    first = _a3_fixture_family()
    seen = record_calls(monkeypatch, "evaluate", PosRatFunc)
    assert check(first)
    assert check(Family(first.ed, atlas=first.atlas))
    assert len(seen) == 2 * calls


def test_family_checks_on_a3_make_pinned_counts(monkeypatch):
    """Exact work counts over one fixed A3 case list: every check of the
    glued family on the a3 fixture's atlas.  Expansions, exact divisions
    (and how many fail), wall-image builds, polynomial products (and how
    many have a one-term side), sums whose parts are all monomials and
    t = 0 limits are read from the recorded calls; each count is the same
    for every hash seed.  No monomial sum builds a wall image: each image
    is built in closed form.
    A change that moves a count re-records it here on purpose."""
    expand = record_calls(monkeypatch, "expand", PosRatFunc)
    divisions = record_calls(monkeypatch, "poly_exact_div", exact_algebra,
                             degeneration)
    walls = record_calls(monkeypatch, "family_wall_images", degeneration)
    products = record_calls(monkeypatch, "__mul__", LaurentPoly)
    sums = record_calls(monkeypatch, "prf_sum", exact_algebra)
    limits = record_calls(monkeypatch, "limit_t_zero", degeneration)
    fam = _a3_fixture_family()
    assert degree_check(fam) and limit_check(fam)
    assert glue_ring_check_all(fam)
    assert glue_ring_check_all(fam, coefficient_free=True)
    assert fiber_iso_check(fam, (1, 2, -3), (Fraction(1, 2), 5,
                                             Fraction(-7, 3)))
    for ray in fam.atlas.rays:
        strata_consistency_check(fam, [ray])
    assert central_fiber_toric_check(fam)
    assert cocycle_check(fam, max_len=5)
    counts = {"expand": len(expand), "divisions": len(divisions),
              "inexact": sum(isinstance(raised, InexactDivision)
                             for _, raised in divisions),
              "walls": len(walls), "products": len(products),
              "one_term_products": sum(len(a.terms) == 1 or len(b.terms) == 1
                                       for (a, b), _ in products),
              "monomial_sums": sum(not any(f.factors for _, f in parts)
                                   for (parts,), _ in sums),
              "limits": len(limits)}
    assert counts == {"expand": 288, "divisions": 59, "inexact": 9,
                      "walls": 151, "products": 422, "one_term_products": 422,
                      "monomial_sums": 78, "limits": 74}


# -- verdict memos shared between checks -------------------------------------------

def _corrupt_wall(fam, rec, k, i, by):
    """Replace image i of a record's wall in direction k, in the family's
    wall cache, by its product with ``by``."""
    key = _wall_key(rec, k)
    images = list(fam.wall_images(key))
    images[i] = images[i].mul(by)
    fam._walls[key] = tuple(images)


@pytest.mark.parametrize("cocycle_first", [True, False],
                         ids=["cocycle-first", "glue-first"])
def test_shared_round_trip_verdicts_keep_each_checks_failure(cocycle_first):
    """A wall image scaled by t1 stays in its wall ring, so both checks
    reach the round trip of that wall, which the Family decides once; each
    check still fails, with its own message, in either order."""
    fam = Family(A2)
    t1 = PosRatFunc.variable(fam.vars, "t1")
    _corrupt_wall(fam, fam.atlas.cones[0], 0, 1, t1)
    checks = [
        (lambda: cocycle_check(fam),
         "wall (0,0): there-and-back composite moves coordinate 2"),
        (lambda: glue_ring_check(fam, 0, 0),
         "wall (0,0): composite is not the identity"),
    ]
    for check, message in (checks if cocycle_first else checks[::-1]):
        with pytest.raises(CheckFailed) as err:
            check()
        assert str(err.value) == message


def test_glue_ring_names_the_reverse_composite_first_when_it_moves_less():
    """Scaling the far image of the wall coordinate X2 by t1 moves only X2
    when crossing there and back, but X1 too when crossing back and there,
    through X1's binomial in X2; the lower coordinate names the reverse
    composite."""
    fam = Family(A2)
    t1 = PosRatFunc.variable(fam.vars, "t1")
    _corrupt_wall(fam, g_cone_step(fam.atlas.cones[0], 1), 1, 1, t1)
    with pytest.raises(CheckFailed) as err:
        glue_ring_check(fam, 0, 1)
    assert str(err.value) == (
        "wall (0,1): reverse composite is not the identity")


@pytest.mark.parametrize("near_i, far_i, message", [
    (1, 0, "reverse image of coordinate 1 leaves the far wall ring"),
    (0, 1, "image of coordinate 1 leaves the near wall ring"),
    (1, 1, "image of coordinate 2 leaves the near wall ring"),
], ids=["far-lower", "near-lower", "tie"])
def test_ring_exits_report_the_lowest_coordinate_near_first(near_i, far_i,
                                                           message):
    """When images on both sides of a wall leave their rings, the lowest
    coordinate is named, and the near side at a tie."""
    fam = Family(A2)
    near = fam.atlas.cones[0]
    x2_inv_sq = PosRatFunc.variable(fam.vars, "X2").power(-2)
    _corrupt_wall(fam, near, 0, near_i, x2_inv_sq)
    _corrupt_wall(fam, g_cone_step(near, 0), 0, far_i, x2_inv_sq)
    with pytest.raises(CheckFailed) as err:
        glue_ring_check(fam, 0, 0)
    assert str(err.value) == f"wall (0,0): {message}"


@pytest.mark.parametrize("central_first", [True, False],
                         ids=["central-first", "strata-first"])
def test_shared_limit_verdicts_keep_each_checks_failure(monkeypatch,
                                                        central_first):
    """The A2 walls in direction 0 at coefficient vector (1, 0), from cones
    0 and 2, have their wall coordinate's image X1^-1 scaled by t1 + t2,
    in the family and in the stars alike, so that it has no monomial limit
    at t = 0.  The Family decides that limit once, and X1^-1 at the other
    walls in direction 0 keeps its limit: the central fibre check fails at
    wall (0,0), and the strata check fails on exactly the rays whose stars
    hold those walls, each with its own message, in either order."""
    build = degeneration.family_wall_images

    def scaled(bk, k, c_k, xnames, tnames):
        images = build(bk, k, c_k, xnames, tnames)
        if xnames[k] != "X1" or tuple(c_k) != (1, 0):
            return images
        t1, t2 = (PosRatFunc.variable(xnames + tnames, t) for t in tnames)
        return (images[0].mul(t1.add(t2)),) + images[1:]

    monkeypatch.setattr(degeneration, "family_wall_images", scaled)
    fam = Family(A2)
    reason = ("has no monomial limit (factor t1 + t2 vanishes at t=0 after "
              "content removal)")

    def central():
        with pytest.raises(CheckFailed) as err:
            central_fiber_toric_check(fam)
        assert str(err.value) == f"wall (0,0): coordinate 1 {reason}"

    def strata():
        for ray in fam.atlas.rays:
            if ray in ((0, 1), (0, -1)):
                with pytest.raises(CheckFailed) as err:
                    strata_consistency_check(fam, [ray])
                assert str(err.value) == (
                    f"stratum wall in direction 0: transverse coordinate 1 "
                    f"{reason}")
            else:
                strata_consistency_check(fam, [ray])

    for check in ((central, strata) if central_first else (strata, central)):
        check()
