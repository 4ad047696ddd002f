"""Worked examples wired to the engine, with their expected artifacts.

Three groups, each with a ``run_*`` verifier that recomputes everything from
the engine and compares against the stored expectations:

* the rank-2 pentagon walk, once with coefficients kept in the
  subtraction-free rational functions on the initial coefficient tuple
  (``run_a2_tables``, first table) and once as the coefficient-true
  coordinate family over the polynomial base (second table);
* the Pluecker seed of the Grassmannian of 2-planes in 5-space: a rank-2
  mutable part with five frozen Pluecker directions, the flow-polynomial
  dictionary identifying the two torus models, and the homogenizations of
  the non-monomial flows (``run_gr25``);
* the degree-five del Pezzo pentagon algebra: the five exchange relations
  with principal coefficients, their homogenized form, and the reflexive
  polygon with its polar dual (``run_dp5``).

The rendered pentagon and Pluecker tables are stored once, as the bytes of
``golden/*.txt``, and their verifiers compare the engine's text with them
line by line.  The fixture data the engine reads (flows, dictionary,
pullbacks, boundary functions, relations, polygon) are plain exponent
tuples and dictionaries next to the code that consumes them; everything is
exact integer arithmetic.
"""

import os
from itertools import zip_longest

from .exact_algebra import (
    LaurentPoly,
    PosRatFunc,
    degree_of,
    poly_exact_div,
    prf_sum,
    rat_equal,
)
from .semifields import TropMonomial, tropicalize, tropicalize_poly
from .seeds import (
    ClusterSeedCoeff,
    ExchangeData,
    YSeedCoeff,
    mutate_cluster_seed,
    mutate_y_seed,
    p_star_pullback,
    p_vars,
    principal_extension,
)
from .invariants import CheckFailed, mat_identity, principal_grading
from .gfan import (
    ConeRecord,
    enumerate_gfan,
    g_cone_step,
    normal_fan_of_polygon,
    polytope_P,
)
from .degeneration import column, composer, family_vars, family_wall_images


# -- fixture exchange data ----------------------------------------------------

def a2_exchange():
    """Rank-2 pattern with a single arrow 1 -> 2."""
    return ExchangeData(((0, 1), (-1, 0)), 2)


#: The pentagon mutation walk 2,1,2,1,2 (0-based directions).
PENTAGON_PATH = (1, 0, 1, 0, 1)


# -- coefficient mutation in the subtraction-free rational functions ----------

def universal_y_walk(ed, path):
    """Rows (matrix, coefficients, Y-variables) along a mutation walk, with
    the coefficients living in the subtraction-free rational functions on
    the initial coefficient tuple.  Each step is ``mutate_y_seed``, which
    leaves the entries it multiplied by a binomial ``reduced()``.  Exchange
    data with frozen directions raise ``ValueError``, as for any Y-seed."""
    pv = p_vars(ed.n)
    seed = YSeedCoeff.initial(ed, tuple(PosRatFunc.variable(pv, v)
                                        for v in pv))
    rows = [(ed.B, seed.p, seed.y)]
    for k in path:
        seed = mutate_y_seed(seed, k)
        rows.append((seed.exchange.B, seed.p, seed.y))
    return rows


def tropical_specialization(f, coeff_vars):
    """Collapse every factor supported purely on the coefficient variables
    to its tropical monomial image, leaving mixed factors alone."""
    cset = set(coeff_vars)
    unit = list(f.unit)
    factors = {}
    for poly, k in f.factors.items():
        pure = all(
            all(x == 0 for v, x in zip(poly.vars, e) if v not in cset)
            for e in poly.terms)
        if pure:
            m = tropicalize_poly(poly)
            for i, x in enumerate(m.exps):
                unit[i] += x * k
        else:
            factors[poly] = factors.get(poly, 0) + k
    return PosRatFunc(f.vars, unit, factors)


def principal_family_walk(ed, path):
    """Rows (matrix, coefficient matrix, coordinate pullbacks) along a
    mutation walk of the coefficient-true coordinate family, every pullback
    written in the initial chart."""
    n = ed.n
    if ed.m:
        raise ValueError("the family walk needs fully mutable data")
    xn, tn = family_vars(n)
    names = xn + tn
    images = tuple(PosRatFunc.variable(names, v) for v in xn)
    cone = ConeRecord.initial(ed)
    rows = [(cone.B, cone.C, images)]
    for k in path:
        images = composer(xn, images)(
            family_wall_images(cone.B, k, column(cone.C, k), xn, tn))
        cone = g_cone_step(cone, k)
        rows.append((cone.B, cone.C, images))
    return rows


# -- golden text ----------------------------------------------------------------

def _golden_path(name):
    return os.path.join(os.path.dirname(__file__), "golden", name)


def read_golden(name):
    with open(_golden_path(name), encoding="utf-8") as fh:
        return fh.read()


def mat_text(M):
    """Integer matrix as nested bracketed rows, as tables and the CLI print it."""
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]"
                           for row in M) + "]"


def check_golden(name, text):
    """Compare a rendered table with its golden file line by line.  At the
    first line that differs, or that one side lacks (shown as ``''``),
    raises ``CheckFailed`` naming the file, the line number and both
    lines, each with its line ending."""
    want = read_golden(name).splitlines(keepends=True)
    got = text.splitlines(keepends=True)
    for i, (w, g) in enumerate(zip_longest(want, got, fillvalue=""), 1):
        if w != g:
            raise CheckFailed(
                f"golden file {name} line {i}: expected {w!r}, got {g!r}")


def _a2_text(rows):
    lines = ["pentagon walk with coefficients, directions 2,1,2,1,2", ""]
    for idx, (B, p, y) in enumerate(rows):
        lines.append(f"row {idx}")
        lines.append(f"  matrix: {mat_text(B)}")
        for j, f in enumerate(p):
            lines.append(f"  p{j + 1}: {f.to_text()}")
        for j, f in enumerate(y):
            lines.append(f"  Y{j + 1}: {f.to_text()}")
    return "\n".join(lines) + "\n"


def _a2_principal_text(rows):
    n = 2
    tn = family_vars(n)[1]
    lines = ["pentagon walk of the coordinate family, directions 2,1,2,1,2",
             ""]
    for idx, (B, C, images) in enumerate(rows):
        lines.append(f"row {idx}")
        lines.append(f"  matrix: {mat_text(B)}")
        lines.append(f"  c-matrix: {mat_text(C)}")
        for j in range(n):
            col = TropMonomial(tn, [C[r][j] for r in range(n)])
            lines.append(f"  t{j + 1}: {col.to_text()}")
        for j, f in enumerate(images):
            lines.append(f"  X{j + 1}: {f.to_text()}")
    return "\n".join(lines) + "\n"


def a2_table_text():
    """Deterministic text of the pentagon coefficient walk."""
    return _a2_text(universal_y_walk(a2_exchange(), PENTAGON_PATH))


def a2_principal_table_text():
    """Deterministic text of the pentagon family walk with one coefficient
    per direction."""
    return _a2_principal_text(principal_family_walk(a2_exchange(),
                                                    PENTAGON_PATH))


def run_a2_tables():
    """Walk both pentagons once, check the coefficient walk against the
    walk in the tropical semifield, and compare both rendered tables with
    their golden files.  ``entries`` counts the coefficient, Y-variable and
    coordinate lines compared."""
    ed = a2_exchange()
    pv = p_vars(2)
    rows = universal_y_walk(ed, PENTAGON_PATH)
    # tropical route: collapsing the coefficient sums must reproduce the
    # walk in the tropical semifield
    trop = YSeedCoeff.initial_principal(ed)
    for idx, (_, p, y) in enumerate(rows):
        for j in range(2):
            if tropicalize(p[j], pv).exps != trop.p[j].exps:
                raise CheckFailed(f"row {idx}: tropical coefficient {j + 1}")
            if not rat_equal(tropical_specialization(y[j], pv), trop.y[j]):
                raise CheckFailed(f"row {idx}: tropical Y-variable {j + 1}")
        if idx < len(PENTAGON_PATH):
            trop = mutate_y_seed(trop, PENTAGON_PATH[idx])

    fam_rows = principal_family_walk(ed, PENTAGON_PATH)
    check_golden("a2.txt", _a2_text(rows))
    check_golden("a2_principal.txt", _a2_principal_text(fam_rows))
    entries = (sum(len(p) + len(y) for _, p, y in rows)
               + sum(len(images) for _, _, images in fam_rows))
    return {"ok": True, "rows": len(rows), "entries": entries,
            "golden": {"a2.txt": True, "a2_principal.txt": True}}


# -- the Grassmannian Pluecker fixture -------------------------------------------

#: Seed variable order: two mutable Pluecker coordinates, then five frozen.
GR25_VARS = ("p13", "p14", "p12", "p23", "p34", "p45", "p15")

#: Torus coordinates of the seed, one per Pluecker direction.
GR25_XVARS = ("x13", "x14", "x12", "x23", "x34", "x45", "x15")

#: Quiver arrows between Pluecker directions.
GR25_ARROWS = (
    ("p13", "p12"), ("p14", "p13"), ("p15", "p14"), ("p23", "p13"),
    ("p34", "p14"), ("p13", "p34"), ("p14", "p45"),
)


def gr25_exchange():
    """Exchange data of the Pluecker seed: skew matrix from the quiver
    arrows, first two directions mutable."""
    N = len(GR25_VARS)
    pos = {v: i for i, v in enumerate(GR25_VARS)}
    B = [[0] * N for _ in range(N)]
    for a, b in GR25_ARROWS:
        B[pos[a]][pos[b]] += 1
        B[pos[b]][pos[a]] -= 1
    return ExchangeData(B, 2)


def gr25_seed():
    """Initial cluster seed on the Pluecker coordinates with trivial
    coefficients (the frozen directions live inside the matrix)."""
    ed = gr25_exchange()
    x = tuple(PosRatFunc.variable(GR25_VARS, v) for v in GR25_VARS)
    p = (TropMonomial.one(()),) * ed.n
    return ClusterSeedCoeff(ed, x, p)


#: Flow model coordinates, indexed by the rectangular shapes in a 2x3 box:
#: one-row rectangles u1, u2, u3 and two-row rectangles u11, u22, u33.
FLOW_VARS = ("u1", "u2", "u3", "u11", "u22", "u33")

#: Flow polynomials of the ten Pluecker coordinates (p12 normalized to 1).
GR25_FLOW = {
    "p12": {(0, 0, 0, 0, 0, 0): 1},
    "p13": {(0, 0, 0, 0, 0, 1): 1},
    "p14": {(0, 0, 0, 0, 1, 1): 1},
    "p15": {(0, 0, 0, 1, 1, 1): 1},
    "p23": {(0, 0, 1, 0, 0, 1): 1},
    "p24": {(0, 0, 1, 0, 1, 1): 1, (0, 1, 1, 0, 1, 1): 1},
    "p25": {(0, 0, 1, 1, 1, 1): 1, (0, 1, 1, 1, 1, 1): 1,
            (1, 1, 1, 1, 1, 1): 1},
    "p34": {(0, 1, 1, 0, 1, 2): 1},
    "p35": {(0, 1, 1, 1, 1, 2): 1, (1, 1, 1, 1, 1, 2): 1},
    "p45": {(1, 1, 1, 1, 2, 2): 1},
}

#: Identification of the flow coordinates with monomials in the seed torus
#: coordinates (exponents over GR25_XVARS).
GR25_DICT = {
    "u1": (0, 1, 0, 0, 0, 0, 0),
    "u2": (1, 0, 0, 0, 0, 0, 0),
    "u3": (-1, -1, 0, 0, 0, 0, -1),
    "u11": (0, -1, 0, 0, -1, 0, 0),
    "u22": (-1, 0, 0, -1, 0, 0, 0),
    "u33": (0, 0, -1, 0, 0, 0, 0),
}

#: Monomial pullbacks of the torus coordinates to the Pluecker chart
#: (exponents over GR25_VARS).  The mutable two are forced by the matrix;
#: the frozen five pin the lift of the pullback map on the coefficient
#: directions, chosen so the boundary functions below match the flow model.
GR25_PULLBACK = {
    "x13": (0, -1, 1, -1, 1, 0, 0),
    "x14": (1, 0, 0, 0, -1, 1, -1),
    "x12": (-1, 0, 1, 0, 0, 0, 0),
    "x23": (1, 0, -1, 1, -1, 0, 0),
    "x34": (-1, 1, 0, 0, 1, -1, 0),
    "x45": (0, -1, 0, 0, 0, 1, 0),
    "x15": (0, 1, -1, 0, 0, -1, 1),
}

#: Boundary functions attached to the frozen directions, as sums of torus
#: monomials (exponents over GR25_XVARS), paired with the Pluecker ratio
#: (numerator, denominator) they must pull back to.
GR25_BOUNDARY = (
    ("x12", ((0, 0, -1, 0, 0, 0, 0),), ("p13", "p12")),
    ("x23", ((0, 0, 0, -1, 0, 0, 0), (-1, 0, 0, -1, 0, 0, 0)),
     ("p24", "p23")),
    ("x34", ((0, 0, 0, 0, -1, 0, 0), (0, -1, 0, 0, -1, 0, 0)),
     ("p35", "p34")),
    ("x45", ((0, 0, 0, 0, 0, -1, 0),), ("p14", "p45")),
    ("x15", ((0, 0, 0, 0, 0, 0, -1), (0, -1, 0, 0, 0, 0, -1),
             (-1, -1, 0, 0, 0, 0, -1)), ("p25", "p15")),
)

#: The same boundary functions through the flow dictionary (exponents over
#: FLOW_VARS).
GR25_FLOW_W = {
    "x12": {(0, 0, 0, 0, 0, 1): 1},
    "x23": {(0, 0, 0, 0, 1, 0): 1, (0, 1, 0, 0, 1, 0): 1},
    "x34": {(0, 0, 0, 1, 0, 0): 1, (1, 0, 0, 1, 0, 0): 1},
    "x45": {(-1, -1, -1, -1, -1, -1): 1},
    "x15": {(0, 0, 1, 0, 0, 0): 1, (0, 1, 1, 0, 0, 0): 1,
            (1, 1, 1, 0, 0, 0): 1},
}

#: Three-term Pluecker relations among the walk variables.
GR25_RELATIONS = (
    ("p13", "p24", ("p12", "p34"), ("p14", "p23")),
    ("p14", "p25", ("p12", "p45"), ("p24", "p15")),
    ("p24", "p35", ("p23", "p45"), ("p34", "p25")),
    ("p13", "p25", ("p12", "p35"), ("p15", "p23")),
    ("p14", "p35", ("p13", "p45"), ("p15", "p34")),
)


def principal_homogenization(poly, directions, tnames):
    """Homogenize a Laurent polynomial by one coefficient variable per
    listed direction: each term is multiplied by t to the excess of its
    exponent over the componentwise minimum in those directions."""
    idx = [poly.vars.index(v) for v in directions]
    if poly.is_zero():
        raise ValueError("cannot homogenize the zero polynomial")
    mins = [min(e[i] for e in poly.terms) for i in idx]
    out_vars = poly.vars + tuple(tnames)
    terms = {}
    for e, c in poly.terms.items():
        extra = tuple(e[i] - m for i, m in zip(idx, mins))
        terms[tuple(e) + extra] = c
    return LaurentPoly(out_vars, terms)


def gr25_extensions():
    """Each non-monomial flow, by name: its image under the dictionary,
    times the product of all torus coordinates (which pulls back to 1),
    homogenized by one coefficient per mutable direction, and the degree
    of that extension over the GR25_XVARS slots."""
    N = len(GR25_XVARS)
    all_ones = LaurentPoly.monomial(GR25_XVARS, (1,) * N)
    tnames = ("t13", "t14")
    grading = principal_grading(GR25_XVARS, tnames, mat_identity(N))
    out = {}
    for name in sorted(GR25_FLOW):
        if len(GR25_FLOW[name]) > 1:
            flow = LaurentPoly(FLOW_VARS, GR25_FLOW[name])
            rep = flow.substitute_monomials(GR25_DICT, GR25_XVARS) * all_ones
            ext = principal_homogenization(rep, ("x13", "x14"), tnames)
            out[name] = (ext, grading.poly_degree(ext))
    return out


def pentagon_cluster_walk(seed):
    """The three new cluster variables of the pentagon walk 1,2,1,2,1 from
    a rank-2 cluster seed, in the order the walk makes them.  The last two
    steps must bring back the two initial variables, exchanged; otherwise
    raises ``CheckFailed`` naming the variable that did not return."""
    x = seed.x
    new = []
    for step, k in enumerate((0, 1, 0, 1, 0)):
        seed = mutate_cluster_seed(seed, k)
        if step < 3:
            new.append(seed.x[k])
        elif not rat_equal(seed.x[k], x[1 - k]):
            raise CheckFailed("pentagon walk did not return the initial "
                              f"variable {seed.vars[1 - k]}")
    return new


def gr25_engine_pluckers():
    """Walk the pentagon on the Pluecker seed and name the three new cluster
    variables p24, p25 and p35."""
    out = {v: PosRatFunc.variable(GR25_VARS, v) for v in GR25_VARS}
    out.update(zip(("p24", "p25", "p35"), pentagon_cluster_walk(gr25_seed())))
    return out


def run_gr25():
    """Recompute the Pluecker fixture from the engine and compare against
    the stored flow data, boundary functions, and homogenizations."""
    ed = gr25_exchange()
    # the frozen block of the quiver matrix is zero; skew by construction
    N = ed.size
    for i in range(N):
        for j in range(N):
            if i >= ed.n and j >= ed.n and ed.B[i][j]:
                raise CheckFailed("frozen block of the quiver matrix is nonzero")

    pullback = {v: PosRatFunc.monomial(GR25_VARS, e)
                for v, e in GR25_PULLBACK.items()}
    # the mutable pullbacks are the matrix rows
    for i, f in enumerate(p_star_pullback(ed, GR25_VARS)):
        if pullback[GR25_XVARS[i]] != f:
            raise CheckFailed(f"pullback of {GR25_XVARS[i]} is not row {i}")
    # the frozen pullbacks differ from their matrix rows only on frozen slots
    for i in range(ed.n, N):
        row = ed.B[i]
        lift = GR25_PULLBACK[GR25_XVARS[i]]
        for j in range(ed.n):
            if lift[j] != row[j]:
                raise CheckFailed(
                    f"lift of {GR25_XVARS[i]} changes a mutable exponent")
    # the lift lands in the degree-zero coset: all pullbacks multiply to 1
    total = [0] * N
    for e in GR25_PULLBACK.values():
        total = [a + b for a, b in zip(total, e)]
    if any(total):
        raise CheckFailed("pullback monomials do not multiply to 1")

    engine = gr25_engine_pluckers()
    p12_inv = PosRatFunc.variable(GR25_VARS, "p12").inv()

    # (a) every flow polynomial, through the dictionary and the pullback,
    # equals the engine's cluster variable divided by p12
    flow_count = 0
    for name, terms in GR25_FLOW.items():
        flow = LaurentPoly(FLOW_VARS, terms)
        in_torus = flow.substitute_monomials(GR25_DICT, GR25_XVARS)
        value = PosRatFunc.from_poly(in_torus).evaluate(pullback)
        if not rat_equal(value, engine[name].mul(p12_inv)):
            raise CheckFailed(f"flow of {name} does not match the engine")
        flow_count += 1

    # Pluecker three-term relations hold for the engine variables
    for a, b, (c1, c2), (d1, d2) in GR25_RELATIONS:
        lhs = engine[a].mul(engine[b])
        rhs = prf_sum([(1, engine[c1].mul(engine[c2])),
                       (1, engine[d1].mul(engine[d2]))])
        if not rat_equal(lhs, rhs):
            raise CheckFailed(f"relation {a}*{b} failed")

    # (b) the rendered artifacts, extensions and degrees included, are the
    # golden text
    check_golden("gr25.txt", gr25_table_text())

    # (c) boundary functions: flow ratios and pullbacks agree
    for xname, monos, (num, den) in GR25_BOUNDARY:
        theta = prf_sum([(1, PosRatFunc.monomial(GR25_XVARS, e))
                         for e in monos])
        ratio = poly_exact_div(LaurentPoly(FLOW_VARS, GR25_FLOW[num]),
                               LaurentPoly(FLOW_VARS, GR25_FLOW[den]))
        if ratio != LaurentPoly(FLOW_VARS, GR25_FLOW_W[xname]):
            raise CheckFailed(f"flow ratio for {xname} mismatch")
        engine_ratio = engine[num].mul(engine[den].inv())
        theta_pulled = theta.evaluate(pullback)
        if not rat_equal(theta_pulled, engine_ratio):
            raise CheckFailed(f"boundary function at {xname} mismatch")

    return {"ok": True, "flows": flow_count,
            "extensions": sorted(gr25_extensions()),
            "boundary": [b[0] for b in GR25_BOUNDARY]}


def gr25_table_text():
    """Deterministic text of the Pluecker fixture artifacts."""
    lines = ["Pluecker seed: flow polynomials, pullbacks, extensions", ""]
    lines.append("flow polynomials")
    for name in sorted(GR25_FLOW):
        lines.append(f"  {name}: "
                     f"{LaurentPoly(FLOW_VARS, GR25_FLOW[name]).to_text()}")
    lines.append("dictionary")
    for v in FLOW_VARS:
        m = LaurentPoly.monomial(GR25_XVARS, GR25_DICT[v])
        lines.append(f"  {v}: {m.to_text()}")
    lines.append("pullbacks")
    for v in GR25_XVARS:
        m = PosRatFunc.monomial(GR25_VARS, GR25_PULLBACK[v])
        lines.append(f"  {v}: {m.to_text()}")
    lines.append("extensions")
    for name, (ext, degree) in gr25_extensions().items():
        lines.append(f"  {name}: {ext.to_text()}")
        lines.append(f"  degree {name}: " + mat_text((degree,))[1:-1])
    return "\n".join(lines) + "\n"


# -- the degree-five del Pezzo pentagon algebra ----------------------------------

#: Lattice points of the pentagon: the five vertices (counterclockwise from
#: (1, 0)) carrying the generators 1..5, and the interior origin carrying
#: the homogenizer 0.
DP5_VERTICES = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, -1))

#: Polar dual pentagon vertices.
DP5_POLAR = ((1, 1), (-1, 1), (-1, -1), (0, -1), (1, 0))

#: Exchange relations among the degree-1 generators: entry
#: (a, b, t_mid, mid, t_const) encodes v_a * v_b = t^t_mid * v0 * v_mid
#: + t^t_const * v0^2.
DP5_RELATIONS = (
    (1, 3, (1, 0), 2, (0, 0)),
    (2, 4, (0, 1), 3, (0, 0)),
    (3, 5, (0, 0), 4, (1, 0)),
    (4, 1, (0, 0), 5, (1, 1)),
    (5, 2, (0, 0), 1, (0, 1)),
)


def dp5_exchange():
    """The rank-2 pattern with the arrow reversed, 2 -> 1."""
    return ExchangeData(((0, -1), (1, 0)), 2)


def dp5_thetas():
    """The five degree-1 generators beyond the homogenizer, as cluster
    variables with one coefficient per direction, indexed 1..5 by their
    pentagon vertex."""
    ed = principal_extension(dp5_exchange())
    names = ("a1", "a2", "t1", "t2")
    x = tuple(PosRatFunc.variable(names, v) for v in names)
    seed = ClusterSeedCoeff(ed, x, (TropMonomial.one(()),) * 2)
    return dict(enumerate(x[:2] + tuple(pentagon_cluster_walk(seed)), 1))


def dp5_grading():
    """Degrees on the generator chart: chart variables at the unit vectors,
    coefficients at minus the matrix columns."""
    return principal_grading(("a1", "a2"), ("t1", "t2"),
                             tuple(zip(*dp5_exchange().B)))


def run_dp5():
    """Verify the pentagon algebra relations, their homogenized degrees,
    and the polygon with its polar dual.  At t = 1 the relations are the
    cyclic three-term recurrences a_(i-1) a_(i+1) = a_i + 1, since
    evaluation is a ring map, so they need no check of their own."""
    th = dp5_thetas()
    names = th[1].vars
    grading = dp5_grading()

    def t_mono(exps):
        return PosRatFunc.monomial(names, (0, 0) + tuple(exps))

    def t_degree(exps):
        return grading.term_degree(("t1", "t2"), exps)

    relation_count = 0
    for a, b, t_mid, mid, t_const in DP5_RELATIONS:
        lhs = th[a].mul(th[b])
        rhs = prf_sum([(1, t_mono(t_mid).mul(th[mid])), (1, t_mono(t_const))])
        if not rat_equal(lhs, rhs):
            raise CheckFailed(f"relation {a},{b} fails")
        # homogenized by the interior generator: every term must sit in
        # degree deg(v_a) + deg(v_b), with the homogenizer at degree 0
        want = tuple(x + y for x, y in zip(DP5_VERTICES[a - 1],
                                           DP5_VERTICES[b - 1]))
        mid_deg = tuple(x + y for x, y in zip(DP5_VERTICES[mid - 1],
                                              t_degree(t_mid)))
        if not (mid_deg == want and t_degree(t_const) == want):
            raise CheckFailed(f"relation {a},{b} is not degree homogeneous")
        relation_count += 1

    # each generator is homogeneous with degree at its pentagon vertex
    for i in range(1, 6):
        if degree_of(th[i], grading) != DP5_VERTICES[i - 1]:
            raise CheckFailed(f"generator {i} degree mismatch")

    # the polygon of the fan: vertices, reflexivity, polar
    atlas = enumerate_gfan(dp5_exchange())
    pol = polytope_P(atlas)
    if set(pol["vertices"]) != set(DP5_VERTICES):
        raise CheckFailed("polygon vertices mismatch")
    if not pol["reflexive"]:
        raise CheckFailed("polygon is not reflexive")
    if set(pol["polar_vertices"]) != set(DP5_POLAR):
        raise CheckFailed("polar dual vertices mismatch")
    if not pol["face_fan_matches"]:
        raise CheckFailed("face fan of the polygon is not the fan")
    dual_normal = normal_fan_of_polygon(pol["polar_vertices"])
    if dual_normal != {frozenset(c.generators()) for c in atlas.cones}:
        raise CheckFailed("normal fan of the polar dual is not the fan")

    return {"ok": True, "relations": relation_count,
            "vertices": list(pol["vertices"]),
            "polar_vertices": list(pol["polar_vertices"])}


def dp5_table_text():
    """Deterministic text of the pentagon algebra artifacts."""
    th = dp5_thetas()
    lines = ["degree-five del Pezzo pentagon algebra", ""]
    lines.append("generators")
    for i in range(1, 6):
        v = DP5_VERTICES[i - 1]
        lines.append(f"  v{i} at ({v[0]}, {v[1]}): {th[i].to_text()}")
    lines.append("relations")
    for a, b, t_mid, mid, t_const in DP5_RELATIONS:
        def tt(exps):
            m = LaurentPoly.monomial(("t1", "t2"), exps)
            return "" if m.is_one() else m.to_text() + "*"
        lines.append(f"  v{a}*v{b} = {tt(t_mid)}v0*v{mid} + {tt(t_const)}v0^2")
    lines.append("polygon")
    lines.append("  vertices: " + ", ".join(f"({x}, {y})"
                                            for x, y in DP5_VERTICES))
    # the one interior lattice point: each facet of a reflexive polygon
    # lies at distance 1, and the facet normals span the plane positively
    lines.append("  interior: (0, 0)")
    lines.append("  polar: " + ", ".join(f"({x}, {y})" for x, y in DP5_POLAR))
    return "\n".join(lines) + "\n"
