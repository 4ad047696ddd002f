"""Reference computations that check the program's outputs.

Nothing here imports ``cluster_forge``.  Every expected value is recomputed
from the definitions with plain integers and ``Fraction``s, so a fault in
the program's exact algebra cannot hide behind the same fault in a check.
Each check raises ``OracleMismatch`` naming what disagreed.
"""

from fractions import Fraction
from itertools import permutations

#: (maximal cones, rays) of the g-fan of each finite type: the number of
#: clusters and the number of cluster variables.
FINITE_TYPE_COUNTS = {
    "A2": (5, 5), "B2": (6, 6), "G2": (8, 8),
    "A3": (14, 9), "B3": (20, 12), "C3": (20, 12),
    "A4": (42, 14), "D4": (50, 16),
    "A5": (132, 20),
}


class OracleMismatch(Exception):
    """A program output disagreed with the reference computation."""


def check_counts(type_name, cones, rays):
    want = FINITE_TYPE_COUNTS[type_name]
    if (cones, rays) != want:
        raise OracleMismatch(
            f"{type_name}: {cones} cones and {rays} rays, expected "
            f"{want[0]} and {want[1]}")


# -- exchange matrices and tropical coefficients ---------------------------------


def matrix_mutation(B, k):
    """Fomin-Zelevinsky matrix mutation in direction k (0-based); B may
    have more rows than columns (frozen rows below the mutable square)."""
    return tuple(
        tuple(-B[i][j] if k in (i, j)
              else B[i][j] + (abs(B[i][k]) * B[k][j]
                              + B[i][k] * abs(B[k][j])) // 2
              for j in range(len(B[0])))
        for i in range(len(B)))


def tropical_mutation(p, B, k):
    """Coefficient tuple mutation in a tropical semifield, on exponent
    vectors: p_k inverts and p_j picks up p_k^[b_kj]+ (p_k (+) 1)^-b_kj."""
    out = [tuple(e) for e in p]
    out[k] = tuple(-x for x in p[k])
    for j in range(len(p)):
        b = B[k][j]
        if j != k and b:
            out[j] = tuple(x + max(b, 0) * y - b * min(y, 0)
                           for x, y in zip(p[j], p[k]))
    return tuple(out)


def c_matrix_by_recurrence(B, path):
    """c-vectors as the tropical coefficients of principal coefficients:
    column j of the result is the exponent vector of p_j."""
    n = len(B)
    p = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    for k in path:
        p = tropical_mutation(p, B, k)
        B = matrix_mutation(B, k)
    return tuple(tuple(p[j][i] for j in range(n)) for i in range(n))


def f_polynomial_values(B, path, pvals):
    """F-polynomials at a point: the cluster variables of principal
    coefficients (frozen rows the identity, frozen values ``pvals``) with
    every mutable initial variable set to 1."""
    n = len(B)
    ext = tuple(tuple(row) for row in B) + tuple(
        tuple(int(i == j) for j in range(n)) for i in range(n))
    x = [Fraction(1)] * n + [Fraction(v) for v in pvals]
    for k in path:
        plus = monomial_value([max(row[k], 0) for row in ext], x)
        minus = monomial_value([max(-row[k], 0) for row in ext], x)
        x[k] = (plus + minus) / x[k]
        ext = matrix_mutation(ext, k)
    return tuple(x[:n])


# -- Y-seeds with coefficients, evaluated at a point -------------------------------


def monomial_value(exps, values):
    out = Fraction(1)
    for e, v in zip(exps, values):
        if e:
            out *= v ** e
    return out


def y_seed_values(B, p, path, y, pvals):
    """Walk the Y-seed with tropical coefficients along a path at a point.

    ``y`` holds the values of y_1..y_n and ``pvals`` those of the semifield
    generators.  A step in direction k sends y_k to 1/y_k and y_j to
    y_j * y_k^[b_kj]+ * (p_k^- + p_k^+ y_k)^-b_kj, where p_k^+ and p_k^-
    are the coprime numerator and denominator of the coefficient p_k.
    Returns the final matrix, coefficient exponents and Y-values.
    """
    y = list(y)
    p = tuple(tuple(e) for e in p)
    for k in path:
        plus = monomial_value([max(x, 0) for x in p[k]], pvals)
        minus = monomial_value([max(-x, 0) for x in p[k]], pvals)
        yk = y[k]
        new = list(y)
        new[k] = 1 / yk
        for j in range(len(y)):
            b = B[k][j]
            if j != k and b:
                new[j] = y[j] * yk ** max(b, 0) * (minus + plus * yk) ** (-b)
        y = new
        p = tropical_mutation(p, B, k)
        B = matrix_mutation(B, k)
    return B, p, tuple(y)


def check_y_seed(B, p0, path, y, pvals, got_B, got_p, got_y):
    """Compare a program's endpoint (matrix, coefficient exponents, Y-values
    at the point) with the reference walk, and confirm the reference itself
    on the separation identity Y_j = Y_j^free(p_i y_i) / p_j."""
    want_B, want_p, want_y = y_seed_values(B, p0, path, y, pvals)
    if tuple(map(tuple, got_B)) != want_B:
        raise OracleMismatch(f"path {path}: matrix {got_B}, expected {want_B}")
    if tuple(map(tuple, got_p)) != want_p:
        raise OracleMismatch(
            f"path {path}: coefficient exponents {got_p}, expected {want_p}")
    if tuple(got_y) != want_y:
        raise OracleMismatch(f"path {path}: Y-values {got_y}, expected {want_y}")
    shifted = [yi * monomial_value(e, pvals) for yi, e in zip(y, p0)]
    none = tuple(() for _ in p0)
    _, _, free = y_seed_values(B, none, path, shifted, ())
    for j, (v, f) in enumerate(zip(want_y, free)):
        if v != f / monomial_value(want_p[j], pvals):
            raise OracleMismatch(
                f"path {path}: reference Y_{j + 1} breaks separation")


def factored_value(vars, unit, factors, point):
    """Value of unit-monomial * prod(poly^e) with each polynomial given as a
    dict {exponent tuple: integer coefficient}, evaluated term by term."""
    values = [point[v] for v in vars]
    out = monomial_value(unit, values)
    for terms, e in factors:
        s = sum(c * monomial_value(x, values) for x, c in terms.items())
        out *= s ** e
    return out


# -- text produced by the command line -----------------------------------------------


def _tokens(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(int(text[i:j]))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            out.append(("name", text[i:j]))
            i = j
        elif ch in "+-*/^()":
            out.append(ch)
            i += 1
        else:
            raise OracleMismatch(f"unexpected character {ch!r} in {text!r}")
    return out


def evaluate_text(text, values):
    """Evaluate an expression printed by the program (sums, products, powers
    with signed integer exponents, quotients, parentheses) at a point."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def atom():
        tok = take()
        if tok == "(":
            v = expr()
            if take() != ")":
                raise OracleMismatch(f"unbalanced parentheses in {text!r}")
        elif isinstance(tok, int):
            v = Fraction(tok)
        elif isinstance(tok, tuple):
            if tok[1] not in values:
                raise OracleMismatch(f"unknown variable {tok[1]} in {text!r}")
            v = values[tok[1]]
        else:
            raise OracleMismatch(f"unexpected {tok!r} in {text!r}")
        if peek() == "^":
            take()
            neg = peek() == "-"
            if neg:
                take()
            e = take()
            if not isinstance(e, int):
                raise OracleMismatch(f"bad exponent in {text!r}")
            v = v ** (-e if neg else e)
        return v

    def term():
        v = atom()
        while peek() in ("*", "/"):
            v = v * atom() if take() == "*" else v / atom()
        return v

    def expr():
        neg = peek() == "-"
        if neg:
            take()
        v = -term() if neg else term()
        while peek() in ("+", "-"):
            v = v + term() if take() == "+" else v - term()
        return v

    v = expr()
    if pos != len(toks):
        raise OracleMismatch(f"trailing tokens in {text!r}")
    return v


def monomial_exponents(text, names):
    """Exponent vector of a printed Laurent monomial with coefficient 1."""
    exps = dict.fromkeys(names, 0)
    if text.strip() == "1":
        return tuple(exps[v] for v in names)
    for factor in text.split("*"):
        name, _, e = factor.strip().partition("^")
        if name not in exps:
            raise OracleMismatch(f"{text!r} is not a monomial in {names}")
        exps[name] += int(e) if e else 1
    return tuple(exps[v] for v in names)


def wall_map_values(B, k, c, x, t):
    """The glued family's wall crossing in direction k at a point.

    ``B`` is the near seed's exchange matrix and ``c`` its k-th c-vector;
    ``x`` and ``t`` are values of X1..Xn and t1..tn.  X_k goes to 1/X_k and
    X_i (i != k, e = b_ki != 0, s = sign e) to
    X_i * (t^[s c]+ + t^[-s c]+ X_k^-s)^-e.
    """
    out = list(x)
    out[k] = 1 / x[k]
    for i in range(len(x)):
        e = B[k][i]
        if i != k and e:
            s = 1 if e > 0 else -1
            first = monomial_value([max(s * ci, 0) for ci in c], t)
            second = monomial_value([max(-s * ci, 0) for ci in c], t)
            out[i] = x[i] * (first + second * x[k] ** -s) ** -e
    return out


def check_wall(B, k, c, x, t, got):
    """The program's images of the near coordinates ``x`` across the wall
    equal the reference crossing, and crossing back from the far side
    (matrix mutated, c-vector negated) returns to ``x``."""
    want = wall_map_values(B, k, c, x, t)
    if list(got) != want:
        raise OracleMismatch(f"wall in direction {k + 1}: images {got}, "
                             f"expected {want}")
    back = wall_map_values(matrix_mutation(B, k), k, [-ci for ci in c],
                           want, t)
    if back != list(x):
        raise OracleMismatch(f"wall in direction {k + 1}: crossing back "
                             f"gives {back}, not {list(x)}")


def check_round_trips(walls, x):
    """Every printed wall map, followed by a printed map back from the far
    cone, is a coordinate permutation at the point ``x`` (distinct values
    of X1..Xn).  Cones are labelled by their own seeds, so the far cone's
    coordinates may be a relabelling of the near cone's mutated ones: some
    relabelling and some wall back to the near cone must close the loop.
    """
    n = len(x)
    names = [f"X{i + 1}" for i in range(n)]
    near = dict(zip(names, x))
    for (src, k), (dst, images) in walls.items():
        far = [evaluate_text(img, near) for img in images]
        backs = [imgs for (s, _), (d, imgs) in walls.items()
                 if s == dst and d == src]
        closed = any(
            sorted(evaluate_text(img, dict(zip(names, (far[j] for j in perm))))
                   for img in back) == sorted(x)
            for back in backs for perm in permutations(range(n)))
        if not closed:
            raise OracleMismatch(
                f"wall ({src},{k}) and back is no coordinate permutation")


def parse_degenerate_text(text):
    """Walls of ``degenerate`` text output: {(src, k): (dst, [images])}."""
    walls = {}
    current = None
    for line in text.splitlines()[1:]:
        if line.startswith("wall cone "):
            head, _, dst = line[len("wall cone "):].partition("--> cone ")
            src, _, k = head.partition(" --")
            current = []
            walls[(int(src), int(k))] = (int(dst), current)
        else:
            name, _, img = line.strip().partition(" -> ")
            if current is None or name != f"X{len(current) + 1}":
                raise OracleMismatch(f"unexpected line {line!r}")
            current.append(img)
    return walls


def det(M):
    """Exact determinant by elimination over Fractions."""
    A = [[Fraction(x) for x in row] for row in M]
    n = len(A)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            out = -out
        out *= A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return out


def check_fan_file(type_name, obj, n):
    """A complete simplicial fan of the type: cone and ray counts, n rays
    per cone, and each cone unimodular."""
    if not obj["complete"]:
        raise OracleMismatch(f"{type_name}: fan file marked incomplete")
    rays = [tuple(r) for r in obj["rays"]]
    check_counts(type_name, len(obj["maximal_cones"]), len(rays))
    for idxs in obj["maximal_cones"]:
        if len(idxs) != n or abs(det([rays[i] for i in idxs])) != 1:
            raise OracleMismatch(f"{type_name}: cone {idxs} is not unimodular")


def check_text_equal(got, want, what):
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        raise OracleMismatch(f"{what}: differs from the golden file at byte {at}")
