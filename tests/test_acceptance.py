"""Acceptance gate: one test per shipped guarantee, each printing a single
pass/fail line with its runtime against the stated budget.

Run with output visible:  python3 -m pytest tests/test_acceptance.py -v -s
"""

import json
import os
import random
import time
from fractions import Fraction

from cluster_forge.corpus import (
    a2_exchange,
    run_a2_tables,
    run_dp5,
    run_gr25,
)
from cluster_forge.degeneration import (
    Family,
    central_fiber_toric_check,
    cocycle_check,
    degree_check,
    family_wall_images,
    fiber_iso_check,
    glue_ring_check_all,
    limit_check,
    strata_consistency_check,
)
from cluster_forge.exact_algebra import PosRatFunc, limit_t_zero, rat_equal
from cluster_forge.gfan import enumerate_gfan
from cluster_forge.invariants import (
    c_matrix,
    check_sign_coherence,
    g_matrix_degrees,
    mat_det,
    mat_identity,
    mat_mul,
    mat_transpose,
    separation_check,
)
from cluster_forge.seeds import (
    ClusterSeedCoeff,
    ExchangeData,
    YSeedCoeff,
    langlands_dual,
    mutate_cluster_seed,
    mutate_y_seed,
    seed_from_json,
)
from cluster_forge.semifields import TropMonomial

RNG_SEED = 20260815

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src",
                        "cluster_forge", "fixtures")


def _fixture_exchange(name):
    """The exchange data of a shipped seed file."""
    with open(os.path.join(FIXTURES, f"{name}.json"), encoding="utf-8") as fh:
        return seed_from_json(json.load(fh))[0]


def b2_exchange():
    """Rank-2 pattern with a doubled arrow and multipliers (2, 1)."""
    return _fixture_exchange("b2")


def a3_exchange():
    """Rank-3 path quiver 1 -> 2 -> 3."""
    return _fixture_exchange("a3")


# expected monomial transition maps of the two-directions atlas at t = 0,
# one image pair per directed wall (cone index, direction)
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


def _run(num, label, budget, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"\nacceptance {num:02d} {label}: FAIL", flush=True)
        raise
    dt = time.perf_counter() - t0
    if budget is None:
        verdict = f"PASS ({dt:.2f}s)"
    elif dt < budget:
        verdict = f"PASS ({dt:.2f}s < {budget}s)"
    else:
        verdict = f"FAIL ({dt:.2f}s >= {budget}s)"
    print(f"\nacceptance {num:02d} {label}: {verdict}", flush=True)
    if budget is not None:
        assert dt < budget, f"runtime {dt:.2f}s exceeds budget {budget}s"


# -- shared random generators -------------------------------------------------------

def _random_exchange(rng, max_rank=3):
    """Uniformly pick tame exchange data of rank 1..max_rank: rank two with
    multiplier up to three, rank three skew-symmetric with unit entries."""
    n = rng.randint(1, max_rank)
    if n == 1:
        return ExchangeData(((0,),), 1)
    if n == 2:
        b = rng.randint(1, 3)
        s = rng.choice((1, -1))
        if b == 1:
            return ExchangeData(((0, s), (-s, 0)), 2)
        return ExchangeData(((0, -s), (s * b, 0)), 2, (b, 1))
    while True:
        B = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                v = rng.randint(-1, 1)
                B[i][j] = v
                B[j][i] = -v
        if any(any(row) for row in B):
            return ExchangeData(tuple(tuple(row) for row in B), 3)


def _random_rank3(rng):
    while True:
        ed = _random_exchange(rng)
        if ed.n == 3:
            return ed


def _random_path(rng, n, max_len, min_len=1):
    length = rng.randint(min_len, max_len)
    path, prev = [], -1
    for _ in range(length):
        k = rng.randrange(n)
        while n > 1 and k == prev:
            k = rng.randrange(n)
        path.append(k)
        prev = k
    return tuple(path)


# -- criteria -----------------------------------------------------------------------

def test_01_pentagon_coefficient_tables():
    def body():
        report = run_a2_tables()
        assert report["ok"]
        assert report["rows"] == 6
        assert report["entries"] == 36
        assert report["golden"] == {"a2.txt": True, "a2_principal.txt": True}

    _run(1, "pentagon coefficient tables", 1, body)


def test_02_separation_random_suite():
    def body():
        rng = random.Random(RNG_SEED)
        for _ in range(200):
            ed = _random_exchange(rng)
            r = rng.randint(1, 3)
            pv = tuple(f"p{i + 1}" for i in range(r))
            p0 = tuple(
                TropMonomial(pv, tuple(rng.randint(-2, 2) for _ in range(r)))
                for _ in range(ed.n))
            assert separation_check(ed, p0, _random_path(rng, ed.n, 8))

    _run(2, "separation on 200 random paths", 60, body)


def test_03_duality_and_sign_coherence():
    def body():
        for ed, cones in ((a2_exchange(), 5), (a3_exchange(), 14),
                          (b2_exchange(), 6)):
            atlas = enumerate_gfan(ed)
            assert len(atlas.cones) == cones
            dual = langlands_dual(ed)
            for cone in atlas.cones:
                G = g_matrix_degrees(ed, cone.path)
                Cd = c_matrix(dual, cone.path)
                assert mat_mul(mat_transpose(G), Cd) == mat_identity(ed.n)
                assert abs(mat_det(G)) == 1
                assert check_sign_coherence(c_matrix(ed, cone.path))

    _run(3, "duality and sign coherence on full atlases", 5, body)


def test_04_degeneration_suite():
    def body():
        for ed in (a2_exchange(), a3_exchange(), b2_exchange()):
            fam = Family(ed)
            assert degree_check(fam)
            assert limit_check(fam)
            assert cocycle_check(fam, max_len=8)
            assert central_fiber_toric_check(fam)
        fam = Family(a2_exchange())
        for (src, k), expected in T_ZERO_MAPS.items():
            T = fam.transition(src, k)
            got = tuple(limit_t_zero(f, fam.tnames).to_text()
                        for f in T.images)
            assert got == expected, ((src, k), got, expected)

    _run(4, "degeneration degree/limit/cocycle/central-fiber", 120, body)


def test_05_fiber_isomorphisms():
    def body():
        fam = Family(a2_exchange())
        assert fiber_iso_check(fam, (1, 1), (2, 3))
        assert fiber_iso_check(fam, (1, 1), (5, 7))
        fam3 = Family(a3_exchange())
        rng = random.Random(RNG_SEED)

        def point():
            return tuple(
                Fraction(rng.randint(1, 5), rng.randint(1, 5))
                * rng.choice((1, -1)) for _ in range(3))

        for _ in range(3):
            assert fiber_iso_check(fam3, point(), point())

    _run(5, "fibre isomorphisms away from the centre", 30, body)


def test_06_completion_gluing_rings():
    def body():
        for ed in (a2_exchange(), a3_exchange()):
            fam = Family(ed)
            assert glue_ring_check_all(fam, coefficient_free=True)
            assert glue_ring_check_all(fam, coefficient_free=False)

    _run(6, "completion gluing rings on every wall", None, body)


def test_07_ray_strata():
    def body():
        for ed in (a2_exchange(), a3_exchange()):
            fam = Family(ed)
            for ray in fam.atlas.rays:
                assert strata_consistency_check(fam, [ray])
        fam = Family(a2_exchange())
        for ray in fam.atlas.rays:
            st = strata_consistency_check(fam, [ray])
            assert len(st.proj_cones) == 2
            assert {cols for _, cols in st.proj_cones} == {((1,),), ((-1,),)}
            assert st.restricted.B == ((0,),)
            images = family_wall_images(st.restricted.B, 0, (1, 0), ("X1",),
                                        ("t1", "t2"))
            inverse = PosRatFunc.monomial(("X1", "t1", "t2"), (-1, 0, 0))
            assert images == (inverse,)

    _run(7, "ray strata are one-lower glued families", None, body)


def test_08_grassmannian_flow_fixture():
    def body():
        report = run_gr25()
        assert report["ok"]
        assert report["flows"] == 10
        assert report["extensions"] == ["p24", "p25", "p35"]
        assert report["boundary"] == ["x12", "x23", "x34", "x45", "x15"]

    _run(8, "grassmannian flow-polynomial fixture", None, body)


def test_09_del_pezzo_fixture():
    def body():
        report = run_dp5()
        assert report["ok"]
        assert report["relations"] == 5
        assert len(report["vertices"]) == 5
        assert len(report["polar_vertices"]) == 5

    _run(9, "del pezzo relations and polytope fixture", None, body)


def test_10_involution_and_laurent():
    def body():
        rng = random.Random(RNG_SEED)
        for _ in range(500):
            ed = _random_rank3(rng)
            walk = _random_path(rng, 3, 4, min_len=0)
            ys = YSeedCoeff.initial_principal(ed)
            cs = ClusterSeedCoeff.initial_principal(ed)
            for k in walk:
                ys = mutate_y_seed(ys, k)
                cs = mutate_cluster_seed(cs, k)
            k = rng.randrange(3)
            ys2 = mutate_y_seed(mutate_y_seed(ys, k), k)
            cs2 = mutate_cluster_seed(mutate_cluster_seed(cs, k), k)
            assert ys2.exchange.B == ys.exchange.B
            assert all(rat_equal(a, b) for a, b in zip(ys.y, ys2.y))
            assert all(a.exps == b.exps for a, b in zip(ys.p, ys2.p))
            assert all(rat_equal(a, b) for a, b in zip(cs.x, cs2.x))
            assert all(a.exps == b.exps for a, b in zip(cs.p, cs2.p))
        for _ in range(100):
            ed = _random_rank3(rng)
            seed = ClusterSeedCoeff.initial_principal(ed)
            for k in _random_path(rng, 3, 8):
                seed = mutate_cluster_seed(seed, k)
            for f in seed.x:
                num, den = f.reduced().expand()
                assert den.num_terms() == 1, "denominator is not a monomial"

    _run(10, "mutation involution and laurent property", 60, body)
