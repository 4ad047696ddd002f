"""Worked-example verifiers: pentagon tables, the Grassmannian Pluecker
fixture, and the del Pezzo pentagon algebra, against the engine's second
routes and the golden files."""

import pytest

from cluster_forge import corpus
from cluster_forge.corpus import (
    DP5_VERTICES,
    GR25_FLOW,
    GR25_PULLBACK,
    PENTAGON_PATH,
    a2_exchange,
    a2_principal_table_text,
    a2_table_text,
    dp5_grading,
    dp5_table_text,
    dp5_thetas,
    gr25_engine_pluckers,
    gr25_exchange,
    gr25_extensions,
    gr25_table_text,
    principal_family_walk,
    read_golden,
    run_a2_tables,
    run_dp5,
    run_gr25,
    tropical_specialization,
    universal_y_walk,
)
from cluster_forge.exact_algebra import (
    LaurentPoly,
    PosRatFunc,
    degree_of,
    prf_sum,
    rat_equal,
)
from cluster_forge.invariants import CheckFailed
from cluster_forge.seeds import (
    ClusterSeedCoeff,
    YSeedCoeff,
    mutate_cluster_seed,
    mutate_y_seed,
    p_vars,
)
from cluster_forge.semifields import tropicalize


def test_run_a2_tables_report():
    report = run_a2_tables()
    assert report["ok"]
    assert report["rows"] == 6
    assert report["entries"] == 36
    assert all(report["golden"].values())


def test_universal_walk_closes_with_swap():
    rows = universal_y_walk(a2_exchange(), PENTAGON_PATH)
    _, p0, y0 = rows[0]
    B5, p5, y5 = rows[-1]
    assert B5 == ((0, -1), (1, 0))
    assert rat_equal(p5[0], p0[1]) and rat_equal(p5[1], p0[0])
    assert rat_equal(y5[0], y0[1]) and rat_equal(y5[1], y0[0])


def test_universal_walk_tropicalizes_to_tropical_walk():
    ed = a2_exchange()
    pv = p_vars(2)
    rows = universal_y_walk(ed, PENTAGON_PATH)
    trop = YSeedCoeff.initial_principal(ed)
    for idx, (B, p, y) in enumerate(rows):
        assert B == trop.exchange.B
        for j in range(2):
            assert tropicalize(p[j], pv) == trop.p[j]
            assert rat_equal(tropical_specialization(y[j], pv), trop.y[j])
        if idx < len(PENTAGON_PATH):
            trop = mutate_y_seed(trop, PENTAGON_PATH[idx])


def test_family_walk_coefficient_columns_are_tropical_coefficients():
    ed = a2_exchange()
    trop = YSeedCoeff.initial_principal(ed)
    for idx, (B, C, _) in enumerate(principal_family_walk(ed, PENTAGON_PATH)):
        for j in range(2):
            assert tuple(C[r][j] for r in range(2)) == trop.p[j].exps
        if idx < len(PENTAGON_PATH):
            trop = mutate_y_seed(trop, PENTAGON_PATH[idx])


def test_golden_a2_bytes():
    assert read_golden("a2.txt") == a2_table_text()


def test_golden_a2_principal_bytes():
    assert read_golden("a2_principal.txt") == a2_principal_table_text()


def test_golden_gr25_bytes():
    assert read_golden("gr25.txt") == gr25_table_text()


def test_golden_dp5_bytes():
    assert read_golden("dp5.txt") == dp5_table_text()


def test_table_text_is_deterministic():
    for fn in (a2_table_text, a2_principal_table_text, gr25_table_text,
               dp5_table_text):
        assert fn() == fn()


def _faulty_at(fn, bad):
    """``fn`` with its result inverted on call number ``bad`` (from 0)."""
    calls = []

    def faulty(*args):
        out = fn(*args)
        calls.append(None)
        return out.inv() if len(calls) - 1 == bad else out
    return faulty


def test_a2_tables_reject_a_wrong_tropical_coefficient(monkeypatch):
    """Coefficients are tropicalized row by row, two per row; the eighth
    is coefficient 2 of row 3."""
    monkeypatch.setattr(corpus, "tropicalize",
                        _faulty_at(corpus.tropicalize, 7))
    with pytest.raises(CheckFailed) as exc:
        run_a2_tables()
    assert str(exc.value) == "row 3: tropical coefficient 2"


def test_a2_tables_reject_a_wrong_tropical_y_variable(monkeypatch):
    """Y-variables are specialized row by row, two per row; the fifth is
    Y-variable 1 of row 2."""
    monkeypatch.setattr(corpus, "tropical_specialization",
                        _faulty_at(corpus.tropical_specialization, 4))
    with pytest.raises(CheckFailed) as exc:
        run_a2_tables()
    assert str(exc.value) == "row 2: tropical Y-variable 1"


def test_a2_tables_reject_a_changed_golden_line(monkeypatch):
    def golden(name):
        return read_golden(name).replace("  p2: 1 / p2\n", "  p2: p2\n")

    monkeypatch.setattr(corpus, "read_golden", golden)
    with pytest.raises(CheckFailed) as exc:
        run_a2_tables()
    assert str(exc.value) == ("golden file a2.txt line 12: expected "
                              "'  p2: p2\\n', got '  p2: 1 / p2\\n'")


def test_a2_tables_reject_a_golden_file_missing_its_last_line(monkeypatch):
    def golden(name):
        text = read_golden(name)
        if name != "a2_principal.txt":
            return text
        return text[:text.rindex("  X2: X1\n")]

    monkeypatch.setattr(corpus, "read_golden", golden)
    with pytest.raises(CheckFailed) as exc:
        run_a2_tables()
    assert str(exc.value) == ("golden file a2_principal.txt line 44: "
                              "expected '', got '  X2: X1\\n'")


# -- Grassmannian fixture ------------------------------------------------------

GR25_MATRIX = (
    (0, -1, 1, -1, 1, 0, 0),
    (1, 0, 0, 0, -1, 1, -1),
    (-1, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0, 0),
    (0, -1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 0),
)


def test_gr25_quiver_matrix():
    ed = gr25_exchange()
    assert ed.B == GR25_MATRIX
    assert ed.n == 2 and ed.m == 5


def test_gr25_report():
    report = run_gr25()
    assert report["ok"]
    assert report["flows"] == 10
    assert report["extensions"] == ["p24", "p25", "p35"]
    assert report["boundary"] == ["x12", "x23", "x34", "x45", "x15"]


def test_gr25_engine_exchange_relation():
    eng = gr25_engine_pluckers()
    lhs = eng["p13"].mul(eng["p24"])
    rhs = prf_sum([(1, eng["p14"].mul(eng["p23"])),
                   (1, eng["p12"].mul(eng["p34"]))])
    assert rat_equal(lhs, rhs)


def test_gr25_pullbacks_multiply_to_one():
    total = [0] * 7
    for e in GR25_PULLBACK.values():
        total = [a + b for a, b in zip(total, e)]
    assert not any(total)


def test_gr25_flow_polynomials_are_positive():
    for terms in GR25_FLOW.values():
        poly = LaurentPoly(("u1", "u2", "u3", "u11", "u22", "u33"), terms)
        assert poly.all_coefs_positive()
        assert poly.integer_content() == 1


def test_gr25_extension_degree_vectors():
    # each computed degree vector has a single positive slot and support
    # only on the first two (mutable) plus frozen slots, never on the last
    # coordinate
    extensions = gr25_extensions()
    assert list(extensions) == ["p24", "p25", "p35"]
    for name, (_, vec) in extensions.items():
        assert len(vec) == 7
        assert vec[5] == 1
        assert vec[6] == 0


# -- del Pezzo pentagon algebra -------------------------------------------------

DP5_NAMES = ("a1", "a2", "t1", "t2")

DP5_THETA_FORMS = {
    3: ({(0, 1, 1, 0): 1, (0, 0, 0, 0): 1}, {(1, 0, 0, 0): 1}),
    4: ({(0, 1, 1, 1): 1, (0, 0, 0, 1): 1, (1, 0, 0, 0): 1},
        {(1, 1, 0, 0): 1}),
    5: ({(1, 0, 0, 0): 1, (0, 0, 0, 1): 1}, {(0, 1, 0, 0): 1}),
}


def _form(pair):
    num, den = pair
    f = PosRatFunc.from_poly(LaurentPoly(DP5_NAMES, num))
    return f.mul(PosRatFunc.from_poly(LaurentPoly(DP5_NAMES, den)).inv())


def test_dp5_theta_laurent_forms():
    th = dp5_thetas()
    for i, pair in DP5_THETA_FORMS.items():
        assert rat_equal(th[i], _form(pair))


def test_dp5_generator_degrees_are_pentagon_vertices():
    th = dp5_thetas()
    grading = dp5_grading()
    for i in range(1, 6):
        assert degree_of(th[i], grading) == DP5_VERTICES[i - 1]


def test_dp5_report():
    report = run_dp5()
    assert report["ok"]
    assert report["relations"] == 5
    assert set(report["vertices"]) == set(DP5_VERTICES)


@pytest.mark.parametrize("walk, bad, name", [
    (gr25_engine_pluckers, 3, "p13"), (gr25_engine_pluckers, 4, "p14"),
    (dp5_thetas, 3, "a1"), (dp5_thetas, 4, "a2")])
def test_pentagon_walk_names_the_variable_that_does_not_return(
        monkeypatch, walk, bad, name):
    """The walk squares the variable that one of its last two steps makes;
    the check names the initial variable that step should bring back."""
    calls = []

    def mutate(seed, k):
        out = mutate_cluster_seed(seed, k)
        calls.append(k)
        if len(calls) - 1 != bad:
            return out
        x = list(out.x)
        x[k] = x[k].mul(x[k])
        return ClusterSeedCoeff(out.exchange, x, out.p)

    monkeypatch.setattr(corpus, "mutate_cluster_seed", mutate)
    with pytest.raises(CheckFailed) as exc:
        walk()
    assert str(exc.value) == (
        f"pentagon walk did not return the initial variable {name}")
    assert calls == [0, 1, 0, 1, 0][:bad + 1]


# -- planted faults ------------------------------------------------------------

def _report_with(**entries):
    """A fault for ``polytope_P``: its report with ``entries`` changed."""
    return lambda polytope: lambda atlas: {**polytope(atlas), **entries}


#: One fault per check of ``run_gr25``: the name of ``corpus`` it replaces,
#: the replacement as a function of the real value, and the full message of
#: the one check that must catch it.
GR25_FAULTS = [
    pytest.param("GR25_ARROWS", lambda arrows: arrows + (("p12", "p23"),),
                 "frozen block of the quiver matrix is nonzero",
                 id="frozen-arrow"),
    pytest.param("GR25_PULLBACK",
                 lambda pb: {**pb, "x13": (0, -1, 1, -1, 1, 0, 1)},
                 "pullback of x13 is not row 0", id="mutable-pullback"),
    pytest.param("GR25_PULLBACK",
                 lambda pb: {**pb, "x12": (0, 0, 1, 0, 0, 0, 0)},
                 "lift of x12 changes a mutable exponent", id="lift"),
    pytest.param("GR25_PULLBACK",
                 lambda pb: {**pb, "x12": (-1, 0, 2, 0, 0, 0, 0)},
                 "pullback monomials do not multiply to 1", id="coset"),
    pytest.param("GR25_DICT",
                 lambda d: {**d, "u33": (0, 0, -1, 0, 0, 0, 1)},
                 "flow of p13 does not match the engine", id="dictionary"),
    pytest.param("GR25_RELATIONS",
                 lambda rels: ((rels[0][:3] + (("p14", "p25"),),)
                               + rels[1:]),
                 "relation p13*p24 failed", id="relation"),
    pytest.param("GR25_FLOW_W",
                 lambda w: {**w, "x12": {(0, 0, 0, 0, 0, 2): 1}},
                 "flow ratio for x12 mismatch", id="flow-ratio"),
    pytest.param("GR25_BOUNDARY",
                 lambda bd: (("x12", ((0, 0, -2, 0, 0, 0, 0),),
                              ("p13", "p12")),) + bd[1:],
                 "boundary function at x12 mismatch", id="boundary"),
]

#: The same for ``run_dp5``.
DP5_FAULTS = [
    pytest.param("DP5_RELATIONS",
                 lambda rels: ((1, 3, (0, 0), 2, (0, 0)),) + rels[1:],
                 "relation 1,3 fails", id="relation"),
    pytest.param("DP5_VERTICES", lambda vs: ((2, 0),) + vs[1:],
                 "relation 1,3 is not degree homogeneous",
                 id="homogeneity"),
    pytest.param("degree_of",
                 lambda degree: lambda f, grading: degree(f, grading)[::-1],
                 "generator 1 degree mismatch", id="generator-degree"),
    pytest.param("polytope_P",
                 _report_with(vertices=[(1, 0), (0, 1), (-1, 0), (0, -1)]),
                 "polygon vertices mismatch", id="vertices"),
    pytest.param("polytope_P", _report_with(reflexive=False),
                 "polygon is not reflexive", id="reflexive"),
    pytest.param("polytope_P",
                 _report_with(polar_vertices=[(-1, -1), (1, -1), (1, 1),
                                              (0, 1), (-1, 0)]),
                 "polar dual vertices mismatch", id="polar"),
    pytest.param("polytope_P", _report_with(face_fan_matches=False),
                 "face fan of the polygon is not the fan", id="face-fan"),
    pytest.param("normal_fan_of_polygon",
                 lambda normal_fan: lambda vertices: normal_fan(
                     vertices[::-1]),
                 "normal fan of the polar dual is not the fan",
                 id="normal-fan"),
]


@pytest.mark.parametrize("name, fault, message", GR25_FAULTS)
def test_gr25_rejects_a_planted_fault(monkeypatch, name, fault, message):
    """Each fault is caught by its own check, with its own message."""
    monkeypatch.setattr(corpus, name, fault(getattr(corpus, name)))
    with pytest.raises(CheckFailed) as exc:
        run_gr25()
    assert str(exc.value) == message


@pytest.mark.parametrize("name, fault, message", DP5_FAULTS)
def test_dp5_rejects_a_planted_fault(monkeypatch, name, fault, message):
    """Each fault is caught by its own check, with its own message."""
    monkeypatch.setattr(corpus, name, fault(getattr(corpus, name)))
    with pytest.raises(CheckFailed) as exc:
        run_dp5()
    assert str(exc.value) == message
