"""The three workloads: their inputs, their cases and the checks on them.

A workload builds every input from its seed when it is created (the set-up
that ``setup_s`` times), and then hands out the same ordered case list for
every round.  A case is one call into the program and returns a plain value
that later rounds must reproduce; its check runs after the case's timed
span has closed.  ``start_round`` gives each round cold
program state, so a later round does not reuse caches filled by an earlier
one, and ``end_round`` runs the checks that need the whole round.
"""

import csv
import io
import itertools
import json
import os
import random
import shutil
from fractions import Fraction

from click.testing import CliRunner

from cluster_forge import cli, degeneration, gfan, invariants, seeds
from cluster_forge.semifields import TropMonomial

import oracles
from oracles import OracleMismatch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cluster_forge")


class Case:
    """``run`` calls the program; ``check`` (None: the result must be True)
    runs the oracles on its result."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


class Workload:
    """Inputs and cases of one workload; ``cases`` is set by __init__."""

    def start_round(self):
        pass

    def end_round(self):
        pass

    def close(self):
        pass


def _rational(rng, signed=False):
    q = Fraction(rng.randint(1, 7), rng.randint(1, 7))
    return -q if signed and rng.random() < 0.5 else q


def _reduced_path(rng, n, length):
    """Random path with no direction repeated twice in a row (a repeat
    would undo the step)."""
    path, prev = [], -1
    for _ in range(length):
        k = rng.randrange(n)
        while n > 1 and k == prev:
            k = rng.randrange(n)
        path.append(k)
        prev = k
    return tuple(path)


# -- finite types ------------------------------------------------------------------


def _linear(n):
    """Exchange matrix of the linearly oriented path diagram."""
    B = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        B[i][i + 1] = 1
        B[i + 1][i] = -1
    return B, [1] * n


def _d_type(n):
    B, d = _linear(n - 1)
    B = [row + [0] for row in B] + [[0] * n]
    B[n - 3][n - 1], B[n - 1][n - 3] = 1, -1
    return B, [1] * n


#: (B, d) per finite type; the types with multiple edges carry their
#: skew-symmetrizers.
FINITE_TYPES = {
    "A2": _linear(2),
    "B2": ([[0, -1], [2, 0]], [2, 1]),
    "G2": ([[0, -1], [3, 0]], [3, 1]),
    "A3": _linear(3),
    "B3": ([[0, 1, 0], [-1, 0, 1], [0, -2, 0]], [2, 2, 1]),
    "C3": ([[0, 1, 0], [-1, 0, 2], [0, -1, 0]], [1, 1, 2]),
    "A4": _linear(4),
    "D4": _d_type(4),
    "A5": _linear(5),
}


def _exchange(type_name):
    B, d = FINITE_TYPES[type_name]
    return seeds.ExchangeData(B, len(B), d)


def _positive_point(rng, names):
    return {v: _rational(rng) for v in names}


def _value_of(f, point):
    """A PosRatFunc of the program evaluated factor by factor."""
    return oracles.factored_value(
        f.vars, f.unit, [(p.terms, e) for p, e in f.factors.items()], point)


# -- separation ----------------------------------------------------------------------


class Separation(Workload):
    """``separation_check`` on exchange data of rank 1-3 with random
    tropical coefficient tuples of rank 1-3.

    The rank-3 acyclic triangle is mutation-infinite: a random path of
    length 8 on it can cost seconds or minutes, so random paths would make
    the total the time of one or two giants that differ from seed to seed.
    It contributes every path of length 1-5 without immediate repeats
    instead (93 paths, the longest ones mid-sized), on a seeded orientation
    and with seeded coefficients.  The finite-type data get random paths of
    length 1-8, in fixed numbers per type and with lengths and coefficient
    ranks taken in turn, since in rank 2 the length fixes the cost.
    """

    name = "separation"
    INFINITE_MAX_LEN = 5
    FINITE = (("A1", 10), ("A2", 20), ("B2", 20), ("G2", 20),
              ("A3-linear", 30), ("A3-cyclic", 30), ("A1xA2", 20))

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.items = []
        B = self._relabel(rng, ((0, 1, 1), (-1, 0, 1), (-1, -1, 0)))
        ed = seeds.ExchangeData(B, 3)
        for length in range(1, self.INFINITE_MAX_LEN + 1):
            for path in itertools.product(range(3), repeat=length):
                if all(a != b for a, b in zip(path, path[1:])):
                    self._add(rng, ed, path)
        for kind, count in self.FINITE:
            for i in range(count):
                ed = self._finite(rng, kind)
                self._add(rng, ed, _reduced_path(rng, ed.n, 1 + i % 8))
        self.cases = [self._case(*item) for item in self.items]

    @staticmethod
    def _relabel(rng, B):
        perm = list(range(len(B)))
        rng.shuffle(perm)
        s = rng.choice((1, -1))
        return tuple(tuple(s * B[perm[i]][perm[j]] for j in range(len(B)))
                     for i in range(len(B)))

    def _finite(self, rng, kind):
        s = rng.choice((1, -1))
        if kind == "A1":
            return seeds.ExchangeData(((0,),), 1)
        if kind in ("A2", "B2", "G2"):
            b = {"A2": 1, "B2": 2, "G2": 3}[kind]
            if b == 1:
                return seeds.ExchangeData(((0, s), (-s, 0)), 2)
            return seeds.ExchangeData(((0, -s), (s * b, 0)), 2, (b, 1))
        base = {"A3-linear": ((0, 1, 0), (-1, 0, 1), (0, -1, 0)),
                "A3-cyclic": ((0, 1, -1), (-1, 0, 1), (1, -1, 0)),
                "A1xA2": ((0, 1, 0), (-1, 0, 0), (0, 0, 0))}[kind]
        return seeds.ExchangeData(self._relabel(rng, base), 3)

    def _add(self, rng, ed, path):
        r = 1 + len(self.items) % 3
        pv = tuple(f"p{i + 1}" for i in range(r))
        p0 = tuple(tuple(rng.randint(-2, 2) for _ in range(r))
                   for _ in range(ed.n))
        point = _positive_point(rng, [f"y{i + 1}" for i in range(ed.n)] + list(pv))
        self.items.append((ed, pv, p0, path, point))

    def _case(self, ed, pv, p0, path, point):
        p_trop = tuple(TropMonomial(pv, e) for e in p0)

        def run():
            return invariants.separation_check(ed, p_trop, path)

        def check(result):
            if result is not True:
                raise OracleMismatch(f"separation_check returned {result!r}")
            seed = seeds.YSeedCoeff.initial(ed, p_trop)
            for k in path:
                seed = seeds.mutate_y_seed(seed, k)
            y = [point[f"y{i + 1}"] for i in range(ed.n)]
            oracles.check_y_seed(
                ed.B, p0, path, y, [point[v] for v in pv],
                seed.exchange.B, [m.exps for m in seed.p],
                [_value_of(f, point) for f in seed.y])

        return Case(f"rank{ed.n}", run, check)


# -- family ----------------------------------------------------------------------------


class FamilyWorkload(Workload):
    """The checks of the glued family, one cone, wall or ray per case, over
    the complete atlases of eight finite types.  The atlases are inputs;
    every round builds fresh ``Family`` objects on them, so each round
    recomputes transitions and pullbacks from scratch."""

    name = "family"
    TYPES = ("A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4")

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.atlases = {}
        self.points = {}
        self.fams = {}
        self.cases = []
        for t in self.TYPES:
            ed = _exchange(t)
            atlas = gfan.enumerate_gfan(ed)
            oracles.check_counts(t, len(atlas.cones), len(atlas.rays))
            self.atlases[t] = atlas
            n = ed.n
            names = [f"X{i + 1}" for i in range(n)] + [f"t{i + 1}" for i in range(n)]
            self.points[t] = {w: _positive_point(rng, names)
                              for w in sorted(atlas.adjacency)}
            u = tuple(_rational(rng, signed=True) for _ in range(n))
            u2 = tuple(_rational(rng, signed=True) for _ in range(n))
            self._cases_for(t, atlas, u, u2)

    def _cases_for(self, t, atlas, u, u2):
        fam = lambda: self.fams[t]
        D = degeneration
        add = self.cases.append
        for idx in range(len(atlas.cones)):
            add(Case("degree", lambda i=idx: D.degree_check(fam(), [i]), None))
            add(Case("limit", lambda i=idx: D.limit_check(fam(), [i]), None))
        for (src, k), dst in sorted(atlas.adjacency.items()):
            if src < dst:
                for free in (True, False):
                    add(Case("glue", lambda s=src, k=k, f=free:
                             D.glue_ring_check(fam(), s, k, f), None))
        for wall in sorted(atlas.adjacency):
            add(Case("fiber", lambda w=wall:
                     D.fiber_iso_check(fam(), u, u2, walls=[w]), None))
        for ray in atlas.rays:
            add(Case("strata", lambda r=ray:
                     D.strata_consistency_check(fam(), [r]).proj_cones,
                     lambda proj, r=ray: self._check_star(t, r, proj)))
        add(Case("central", lambda: D.central_fiber_toric_check(fam()), None))
        max_len = 8 if atlas.ed.n == 2 else 5
        add(Case("cocycle", lambda: D.cocycle_check(fam(), max_len=max_len),
                 None))

    def _check_star(self, t, ray, proj):
        holding = sum(1 for c in self.atlases[t].cones
                      if ray in c.generators())
        if len(proj) != holding:
            raise OracleMismatch(
                f"{t} ray {ray}: star has {len(proj)} cones, "
                f"{holding} maximal cones hold the ray")

    def start_round(self):
        self.fams = {t: degeneration.Family(a.ed, atlas=a)
                     for t, a in self.atlases.items()}

    def end_round(self):
        """Each wall transition agrees with the reference crossing at a
        seeded positive rational point, and crossing back returns."""
        for t, fam in self.fams.items():
            atlas = self.atlases[t]
            n = atlas.ed.n
            for (src, k), point in self.points[t].items():
                cone = atlas.cones[src]
                C = oracles.c_matrix_by_recurrence(atlas.ed.B, cone.path)
                x = [point[f"X{i + 1}"] for i in range(n)]
                tv = [point[f"t{i + 1}"] for i in range(n)]
                images = fam.transition(src, k).images
                oracles.check_wall(cone.B, k, [C[i][k] for i in range(n)], x,
                                   tv, [_value_of(f, point) for f in images])


# -- cli -------------------------------------------------------------------------------------


class CliWorkload(Workload):
    """The ``cluster-forge`` subcommands, called in-process through the
    click entry point, one command per case."""

    name = "cli"
    FIXTURES = ("a2", "b2", "a3", "a3_rev", "dp5")
    FIXTURE_TYPE = {"a2": "A2", "b2": "B2", "a3": "A3", "a3_rev": "A3",
                    "dp5": "A2"}
    TYPES = ("A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4", "A5")
    STAR_SAMPLE = {"A5": 1}

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.runner = CliRunner()
        self.cases = []
        for fx in self.FIXTURES:
            self._mutate_cases(rng, fx)
        for fx in self.FIXTURES:
            self._degenerate_cases(rng, fx)
        for t in self.TYPES:
            self._fan_cases(rng, t)
        self._table_cases()

    def _add(self, kind, args, check):
        """A command case: it fails when the command exits other than 0,
        and its result is the command's standard output."""
        def run():
            r = self.runner.invoke(cli.main, args)
            if r.exit_code != 0:
                raise RuntimeError(f"{' '.join(args)} exited {r.exit_code} "
                                   f"({r.exception!r}): {r.output[-300:]}")
            return r.stdout
        self.cases.append(Case(kind, run, check))

    # mutate: every coefficient mode, random paths and there-and-back paths
    def _mutate_cases(self, rng, fx):
        path_file = os.path.join(PACKAGE, "fixtures", f"{fx}.json")
        with open(path_file, encoding="utf-8") as fh:
            obj = json.load(fh)
        B, n = obj["B"], obj["n"]
        modes = [None, "principal", "none"]
        if len(obj["p"]) == n:
            modes.append(f"trop:{obj['coeff_rank']}")
        for mode in modes:
            if mode == "principal":
                p0 = [[int(i == j) for i in range(n)] for j in range(n)]
            elif mode == "none" or len(obj["p"]) != n:
                p0 = [[] for _ in range(n)]
            else:
                p0 = obj["p"]
            pv = [f"p{i + 1}" for i in range(len(p0[0]))]
            # lengths and output formats are taken in turn, directions drawn
            paths = [_reduced_path(rng, n, length) for length in (2, 4, 6)]
            there = _reduced_path(rng, n, 1 + len(self.cases) % 4)
            paths.append(there + there[::-1])
            for i, path in enumerate(paths):
                as_json = i % 2 == 1
                args = ["mutate", "--seed", path_file,
                        "--path", ",".join(str(k + 1) for k in path)]
                if mode:
                    args += ["--with-coeffs", mode]
                if as_json:
                    args.append("--json")
                point = _positive_point(rng, [f"y{i + 1}" for i in range(n)] + pv)
                self._add("mutate", args, lambda out, path=path, p0=p0, pv=pv,
                          point=point, as_json=as_json:
                          self._check_mutate(B, p0, pv, path, point, out,
                                             as_json))

    @staticmethod
    def _check_mutate(B, p0, pv, path, point, out, as_json):
        n = len(B)
        if as_json:
            obj = json.loads(out)
            got_B, p_texts, y_texts = obj["B"], obj["p"], obj["y"]
        else:
            lines = out.splitlines()
            got_B = json.loads(lines[0].partition(": ")[2])
            p_texts = [l.partition(": ")[2] for l in lines[1:1 + n]]
            y_texts = [l.partition(": ")[2] for l in lines[1 + n:1 + 2 * n]]
        y = [point[f"y{i + 1}"] for i in range(n)]
        oracles.check_y_seed(
            B, p0, path, y, [point[v] for v in pv], got_B,
            [oracles.monomial_exponents(t, pv) for t in p_texts],
            [oracles.evaluate_text(t, point) for t in y_texts])

    # degenerate: the central point and positive rational points
    def _degenerate_cases(self, rng, fx):
        path_file = os.path.join(PACKAGE, "fixtures", f"{fx}.json")
        with open(path_file, encoding="utf-8") as fh:
            n = json.load(fh)["n"]
        points = [(0,) * n] + [tuple(_rational(rng) for _ in range(n))
                               for _ in range(3)]
        cones = oracles.FINITE_TYPE_COUNTS[self.FIXTURE_TYPE[fx]][0]
        for u in points:
            x = [Fraction(v, v + 1) for v in rng.sample(range(1, 50), n)]

            def check(out, x=x):
                walls = oracles.parse_degenerate_text(out)
                if len(walls) != cones * n:
                    raise OracleMismatch(
                        f"{fx}: {len(walls)} walls, expected {cones * n}")
                oracles.check_round_trips(walls, x)

            self._add("degenerate", ["degenerate", "--seed", path_file, "--at",
                                     ",".join(str(v) for v in u)], check)

    # fan, star on its rays, verify duality and sign coherence
    def _fan_cases(self, rng, t):
        B, d = FINITE_TYPES[t]
        n = len(B)
        seed_file = os.path.join(self.workdir, f"{t}.json")
        fan_file = os.path.join(self.workdir, f"{t}.fan.json")
        with open(seed_file, "w", encoding="utf-8") as fh:
            json.dump({"B": B, "n": n, "d": d}, fh)
        cones, rays = oracles.FINITE_TYPE_COUNTS[t]

        def check_fan(out):
            if out != f"{cones} cones, {rays} rays -> {fan_file}\n":
                raise OracleMismatch(f"fan {t}: printed {out!r}")
            with open(fan_file, encoding="utf-8") as fh:
                oracles.check_fan_file(t, json.load(fh), n)

        self._add("fan", ["fan", "--seed", seed_file, "--out", fan_file],
                  check_fan)
        which = list(range(1, rays + 1))
        if t in self.STAR_SAMPLE:
            which = sorted(rng.sample(which, self.STAR_SAMPLE[t]))
        for i in which:
            self._add("star", ["star", "--fan", fan_file, "--tau", f"ray:{i}",
                               "--json"],
                      lambda out, i=i: self._check_star(fan_file, i, n, out))
        for suite in ("duality", "signcoherence"):
            want = f"verify {suite}: {cones}/{cones} ok"

            def check_verify(out, want=want):
                lines = out.splitlines()
                if lines[-1] != want or len(lines) != cones + 1 or \
                        not all(l.endswith(": ok") for l in lines[:-1]):
                    raise OracleMismatch(f"{t}: {lines[-1]!r}, expected {want!r}")

            self._add("verify", ["verify", suite, "--seed", seed_file],
                      check_verify)

    @staticmethod
    def _check_star(fan_file, i, n, out):
        with open(fan_file, encoding="utf-8") as fh:
            fan = json.load(fh)
        data = json.loads(out)
        if data["ray"] != fan["rays"][i - 1]:
            raise OracleMismatch(f"star ray:{i} reports ray {data['ray']}")
        holding = sum(1 for c in fan["maximal_cones"] if i - 1 in c)
        proj = data["projected_cones"]
        if len(proj) != holding:
            raise OracleMismatch(
                f"star ray:{i}: {len(proj)} projected cones, {holding} "
                f"maximal cones hold the ray")
        for pc in proj:
            gens = pc["generators"]
            if len(gens) != n - 1 or abs(oracles.det(gens)) != 1:
                raise OracleMismatch(
                    f"star ray:{i}: projected cone {gens} is not unimodular "
                    f"of rank {n - 1}")
        if len(data["restricted_matrix"]) != n - 1:
            raise OracleMismatch(f"star ray:{i}: restricted matrix has the "
                                 f"wrong size")

    # table: every valid format
    def _table_cases(self):
        golden = {"a2": "a2.txt", "a2-principal": "a2_principal.txt",
                  "gr25": "gr25.txt", "dp5": "dp5.txt"}
        for which, name in golden.items():
            with open(os.path.join(PACKAGE, "golden", name), "rb") as fh:
                want = fh.read().decode("utf-8")
            self._add("table", ["table", which],
                      lambda out, want=want, name=name:
                      oracles.check_text_equal(out, want, name))
        for which in ("a2", "a2-principal"):
            self._add("table", ["table", which, "--format", "json"],
                      self._check_pentagon_json)
            self._add("table", ["table", which, "--format", "csv"],
                      self._check_pentagon_csv)
        self._add("table", ["table", "gr25", "--format", "json"],
                  self._check_gr25)
        self._add("table", ["table", "dp5", "--format", "json"],
                  self._check_dp5)

    PENTAGON = (1, 0, 1, 0, 1)
    A2 = ((0, 1), (-1, 0))

    def _check_pentagon_json(self, out):
        rows = json.loads(out)
        if len(rows) != len(self.PENTAGON) + 1:
            raise OracleMismatch(f"pentagon table has {len(rows)} rows")
        for length, row in enumerate(rows):
            self._check_pentagon_row(length, row["path"], row["C"], row["G"],
                                     row["F"])

    def _check_pentagon_csv(self, out):
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != ["vertex", "path", "C", "G", "F1", "F2"] or \
                len(rows) != len(self.PENTAGON) + 2:
            raise OracleMismatch("pentagon csv has the wrong shape")

        def matrix(text):
            return [[int(x) for x in r.split()] for r in text.split(";")]

        for length, row in enumerate(rows[1:]):
            if row[0] != str(length):
                raise OracleMismatch(f"pentagon csv row {length}: {row[0]}")
            path = [int(k) for k in row[1].split(",")] if row[1] else []
            self._check_pentagon_row(length, path, matrix(row[2]),
                                     matrix(row[3]), row[4:])

    def _check_pentagon_row(self, length, path, C, G, F):
        """One vertex of the pentagon walk: c-vectors by the tropical
        recurrence, G^T C = I (A2 is its own Langlands dual) and the
        F-polynomials at a rational point."""
        want_path = self.PENTAGON[:length]
        want_C = oracles.c_matrix_by_recurrence(self.A2, want_path)
        if path != [k + 1 for k in want_path] or \
                tuple(map(tuple, C)) != want_C:
            raise OracleMismatch(f"pentagon row {length}: path {path}, C {C}; "
                                 f"expected C {want_C}")
        GtC = [[sum(G[r][i] * C[r][j] for r in range(2)) for j in range(2)]
               for i in range(2)]
        if GtC != [[1, 0], [0, 1]]:
            raise OracleMismatch(f"pentagon row {length}: G^T C != I")
        pvals = {"p1": Fraction(2, 3), "p2": Fraction(5, 4)}
        want_F = oracles.f_polynomial_values(self.A2, want_path,
                                             [pvals["p1"], pvals["p2"]])
        if tuple(oracles.evaluate_text(f, pvals) for f in F) != want_F:
            raise OracleMismatch(f"pentagon row {length}: F-polynomials {F} "
                                 f"disagree with the reference")

    @staticmethod
    def _check_gr25(out):
        rep = json.loads(out)
        if not (rep["ok"] and rep["flows"] == 10
                and rep["extensions"] == ["p24", "p25", "p35"]
                and rep["boundary"] == ["x12", "x23", "x34", "x45", "x15"]):
            raise OracleMismatch(f"gr25 report {rep}")

    @staticmethod
    def _check_dp5(out):
        rep = json.loads(out)
        if not (rep["ok"] and rep["relations"] == 5
                and len(rep["vertices"]) == 5
                and len(rep["polar_vertices"]) == 5):
            raise OracleMismatch(f"dp5 report {rep}")

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Separation, FamilyWorkload, CliWorkload)}
