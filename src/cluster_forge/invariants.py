"""Mutation invariants along paths: c-vectors, g-vectors, F-polynomials,
sign coherence, and separation of additions.

All invariants are computed by at least two logically independent routes and
cross-checked in the test suite:

* c-vectors: the direct integer recurrence on columns here vs the tropical
  Y-dynamics, the defining route, in the tests.
* g-vectors: inverse-transpose duality against the c-matrix of the negated
  transpose pattern vs multi-degrees of the principal-coefficient cluster
  variables.
* F-polynomials: their own recurrence in the coefficient variables,
  Cluster algebras IV Prop. 5.1, here vs the principal-coefficient cluster
  variables with every cluster coordinate set to 1, in the tests.

The g-fan walk uses neither: ``gfan.g_cone_step`` steps g-vectors by the
integer recurrence of Cluster algebras IV (6.12), and the two routes here,
with ``c_matrix`` and the tests' tropical route for its c-matrices, are
what the walk is checked against.  The degree route may share path
prefixes through its memo, but it reads only a walked cone's path, never
its matrices, so it stays independent of the walk.
"""

from __future__ import annotations

import csv
import io

from .exact_algebra import (
    Grading,
    LaurentPoly,
    PosRatFunc,
    degree_of,
    poly_exact_div,
    rat_equal,
)
from .semifields import TropMonomial, tropicalize_poly
from .seeds import (
    ClusterSeedCoeff,
    YSeedCoeff,
    langlands_dual,
    mutate_cluster_seed,
    mutate_matrix,
    mutate_rows,
    mutate_y_seed,
    p_vars,
    replay,
    x_vars,
    y_vars,
)


class CheckFailed(Exception):
    """An exact verification did not hold; the message says where."""


# -- small integer matrix helpers -------------------------------------------

def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_transpose(M):
    return tuple(tuple(row[i] for row in M) for i in range(len(M[0])))


def mat_mul(A, B):
    return tuple(tuple(sum(a * b for a, b in zip(row, col))
                       for col in zip(*B)) for row in A)


def _bareiss(M, right=None):
    """Fraction-free Gauss-Jordan elimination of the square integer matrix
    M with the rows of ``right`` carried along; returns (sign, p, rows).
    Column c's first nonzero entry from the diagonal down is swapped up
    (flipping ``sign``) as the pivot, and every other row r becomes
    (pivot * r - r[c] * pivot row) / previous pivot, exactly, since every
    entry is a minor of [M | right] up to sign (Bareiss, Math. Comp. 22,
    1968).  The last pivot p is sign * det M, or 0 when M is singular, and
    the carried rows end as p * M^-1 * right."""
    n = len(M)
    rows = [list(row) + list(right[i]) if right else list(row)
            for i, row in enumerate(M)]
    sign = prev = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return sign, 0, rows
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        p, top = rows[c][c], rows[c]
        for r in range(n):
            if r != c:
                f = rows[r][c]
                rows[r] = [(p * x - f * y) // prev
                           for x, y in zip(rows[r], top)]
        prev = p
    return sign, prev, rows


def mat_det(M):
    """Determinant of an integer matrix by ``_bareiss``, in integers."""
    sign, p, _ = _bareiss(M)
    return sign * p


def mat_inverse_integer(M):
    """Inverse of an integer matrix by ``_bareiss`` on [M | I]; raises
    ``CheckFailed`` when M is singular or the inverse is not integral."""
    n = len(M)
    _, p, rows = _bareiss(M, mat_identity(n))
    if not p:
        raise CheckFailed("matrix is singular")
    if any(x % p for row in rows for x in row[n:]):
        raise CheckFailed("inverse is not an integer matrix")
    return tuple(tuple(x // p for x in row[n:]) for row in rows)


# -- c-vectors -----------------------------------------------------------------

def c_matrix_step(C, B, k):
    """One step of the column recurrence: negate column k, add the
    sign-selected multiple of it to the others per row k of the matrix.
    Entry (i, j) becomes c_ij + sign(b_kj) [b_kj c_ik]+, the rule by which
    ``mutate_rows`` steps a row, read on the first n entries of row k."""
    return mutate_rows(C, k, B[k][:len(C)])


def c_matrix(ed, path):
    """Integer recurrence route: start from the identity; a step in direction
    k negates column k and adds the sign-selected multiple of it to the
    others, with the multiplier read from row k of the current matrix."""
    C = mat_identity(ed.n)
    B = ed.B
    for k in path:
        C = c_matrix_step(C, B, k)
        B = mutate_matrix(B, k)
    return C


def check_sign_coherence(C):
    """Each column must be nonzero and either all nonnegative or all
    nonpositive."""
    for j in range(len(C[0])):
        col = [row[j] for row in C]
        if not any(col):
            return False
        if not (all(x >= 0 for x in col) or all(x <= 0 for x in col)):
            return False
    return True


# -- g-vectors -----------------------------------------------------------------

def g_matrix(ed, path):
    """Duality route: the transpose of the g-matrix is the inverse of the
    c-matrix of the negated-transpose pattern along the same path."""
    C = c_matrix(langlands_dual(ed), path)
    return mat_transpose(mat_inverse_integer(C))


def principal_grading(xnames, tnames, cols):
    """Multi-degrees in Z^r, r the length of the columns, making principal
    coefficient dynamics homogeneous (Cluster algebras IV, Prop. 6.1):
    coordinate i gets the i-th unit vector (zero past r), and parameter j
    the negated ``cols[j]``."""
    r = len(cols[0])
    degs = {x: tuple(int(i == j) for j in range(r))
            for i, x in enumerate(xnames)}
    degs.update((t, tuple(-c for c in col)) for t, col in zip(tnames, cols))
    return Grading(degs)


def g_matrix_degrees(ed, path, memo=None):
    """Degree route: multi-degrees of the principal-coefficient cluster
    variables; column j is the degree vector of the j-th variable.

    ``memo``, when given, is a dict from path prefix to the principal
    cluster seed at it, with the grading and the degrees of its n mutable
    variables; it is read and filled by ``replay``, so a caller walking
    many paths that share prefixes, such as the cones of a breadth-first
    atlas, mutates once per new prefix and reads one degree there, since
    a step in direction k changes variable k alone.  It is keyed on the
    path alone, so it must live no longer than one ``ed``.
    """
    memo = {} if memo is None else memo
    if () not in memo:
        n = ed.n
        grading = principal_grading(x_vars(ed.size), p_vars(n),
                                    [tuple(row[j] for row in ed.B[:n])
                                     for j in range(n)])
        seed = ClusterSeedCoeff.initial_principal(ed)
        memo[()] = (seed, grading,
                    tuple(degree_of(x, grading) for x in seed.x[:n]))

    def step(entry, k):
        seed, grading, cols = entry
        seed = mutate_cluster_seed(seed, k)
        return (seed, grading,
                cols[:k] + (degree_of(seed.x[k], grading),) + cols[k + 1:])

    return tuple(zip(*replay(memo, tuple(path), step)[2]))


# -- F-polynomials ---------------------------------------------------------------

def f_polynomials(ed, path):
    """F-polynomials by their own recurrence in the coefficient variables
    p1..pn, Cluster algebras IV Prop. 5.1: every F starts at 1, and a step
    in direction k replaces F_k by

        (p^[c_k]+ prod_i F_i^[b_ik]+ + p^[-c_k]+ prod_i F_i^[-b_ik]+) / F_k,

    divided exactly, with c_k column k of the c-matrix and b_ik the entries
    of the exchange matrix before the step.  Each is an honest polynomial
    with constant term 1."""
    n = ed.n
    pv = p_vars(n)
    F = [LaurentPoly.one(pv)] * n
    B, C = ed.B, mat_identity(n)
    for k in path:
        plus = LaurentPoly.monomial(pv, [max(row[k], 0) for row in C])
        minus = LaurentPoly.monomial(pv, [max(-row[k], 0) for row in C])
        for i in range(n):
            b = B[i][k]
            if b > 0:
                plus = plus * F[i].power(b)
            elif b < 0:
                minus = minus * F[i].power(-b)
        F[k] = poly_exact_div(plus + minus, F[k])
        C = c_matrix_step(C, B, k)
        B = mutate_matrix(B, k)
    for j, f in enumerate(F):
        if f.constant_coef() != 1:
            raise CheckFailed(f"constant term of F_{j + 1} is not 1: {f.to_text()}")
        if any(x < 0 for e in f.terms for x in e):
            raise CheckFailed(f"F_{j + 1} has a negative exponent")
    return F


# -- separation of additions -----------------------------------------------------

def separation_check(ed, p0, path):
    """Exact cross-check of the Y-dynamics with coefficients against the
    coefficient-free dynamics plus invariants, along one path.

    Three identities are verified at the endpoint, for every direction j:

    1. the coefficient-free Y-variable evaluated at (p_i y_i), divided by the
       running coefficient, equals the Y-variable with coefficients;
    2. the product formula: tropically-evaluated F-powers times honestly
       evaluated F-powers times the c-vector monomial equals the Y-variable
       with coefficients;
    3. the running coefficient equals the c-vector monomial in the initial
       coefficients times the tropically evaluated F-powers.

    Raises CheckFailed with context on any mismatch.
    """
    n = ed.n
    pv = p0[0].vars
    vars = y_vars(n) + tuple(pv)

    with_coeff = YSeedCoeff.initial(ed, p0)
    free = YSeedCoeff.initial_trivial(ed)
    for k in path:
        with_coeff = mutate_y_seed(with_coeff, k)
        free = mutate_y_seed(free, k)

    Bv = with_coeff.exchange.B
    C = c_matrix(ed, path)
    F = f_polynomials(ed, path)
    at_p0 = {f"p{i + 1}": p0[i].exps for i in range(n)}
    trop_F = [tropicalize_poly(f.substitute_monomials(at_p0, pv)) for f in F]

    # substitution "i-th slot -> p_i y_i", keyed for the coefficient-free
    # Y-variables (y-names) and for the F-polynomial slots (p-names)
    shifted_y = {}
    shifted_u = {}
    for i in range(n):
        e = [0] * len(vars)
        e[i] = 1
        for v, x in zip(pv, p0[i].exps):
            e[vars.index(v)] += x
        shifted_y[f"y{i + 1}"] = tuple(e)
        shifted_u[f"p{i + 1}"] = tuple(e)

    for j in range(n):
        lhs = with_coeff.y[j]

        # identity 1: shifted coefficient-free variable over running coefficient
        rhs1 = free.y[j].substitute_monomials(shifted_y, vars).mul(
            with_coeff.p[j].to_posrat(vars).inv())
        if not rat_equal(lhs, rhs1):
            raise CheckFailed(f"separation (shift form) fails at j={j + 1}")

        # identity 2: F-power product times c-vector monomial
        rhs2 = PosRatFunc.one(vars)
        for i in range(n):
            b = Bv[i][j]
            if not b:
                continue
            trop_part = trop_F[i].power(-b)
            rhs2 = rhs2.mul(trop_part.to_posrat(vars))
            honest = F[i].substitute_monomials(shifted_u, vars)
            rhs2 = rhs2.mul(PosRatFunc.from_poly(honest, b))
        e = [0] * len(vars)
        for i in range(n):
            e[i] = C[i][j]
        rhs2 = rhs2.mul(PosRatFunc.monomial(vars, e))
        if not rat_equal(lhs, rhs2):
            raise CheckFailed(f"separation (F-product form) fails at j={j + 1}")

        # identity 3: the running coefficient itself
        rhs3 = TropMonomial.one(pv)
        for i in range(n):
            rhs3 = rhs3.mul(p0[i].power(C[i][j]))
        for i in range(n):
            b = Bv[i][j]
            if b:
                rhs3 = rhs3.mul(trop_F[i].power(b))
        if with_coeff.p[j] != rhs3:
            raise CheckFailed(f"separation (coefficient form) fails at j={j + 1}")
    return True


# -- reporting -----------------------------------------------------------------

def invariant_report(ed, path):
    """Everything about one path, as plain data for serialization."""
    C = c_matrix(ed, path)
    G = g_matrix(ed, path)
    F = f_polynomials(ed, path)
    return {
        "path": [k + 1 for k in path],
        "C": [list(r) for r in C],
        "G": [list(r) for r in G],
        "F": [f.to_text() for f in F],
        "sign_coherent": check_sign_coherence(C),
        "det_C": int(mat_det(C)),
        "det_G": int(mat_det(G)),
    }


def table_rows(ed, path):
    """One invariant report per vertex along a path (prefix by prefix)."""
    return [invariant_report(ed, tuple(path[:length]))
            for length in range(len(path) + 1)]


def rows_to_csv(rows):
    """Flat table: matrices as semicolon-joined space-separated rows, one
    column per accumulated exchange polynomial."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    n = len(rows[0]["C"]) if rows else 0

    def flat(M):
        return ";".join(" ".join(str(x) for x in row) for row in M)

    writer.writerow(["vertex", "path", "C", "G"]
                    + [f"F{j + 1}" for j in range(n)])
    for v, row in enumerate(rows):
        writer.writerow([v, ",".join(str(k) for k in row["path"]),
                         flat(row["C"]), flat(row["G"])] + list(row["F"]))
    return out.getvalue()
