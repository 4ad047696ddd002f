"""Seed mutation: exchange matrices, coefficient tuples in a semifield,
Y-variables, cluster variables, the principal extension with frozen
coefficient directions, and prefix replay along mutation paths.

Conventions, used consistently everywhere:

* ``B`` is a square integer matrix over all directions (mutable first,
  frozen after); only mutable directions may be mutated.
* Exchange dynamics read column ``k`` of ``B`` for the exchange binomial of
  direction ``k`` and row ``k`` for how direction ``k`` acts on the others.
* ``d`` are positive integers with ``d[i]*B[i][j] == -d[j]*B[j][i]`` on the
  mutable block (row-scaled skewness).
* Coefficient tuples live in any semifield with the interface of
  ``semifields``: the tropical one on ``p1..pr`` (``TropMonomial``) or the
  subtraction-free rational functions (``PosRatFunc``).  They mutate by the
  one Y-pattern rule ``mutate_y_tuple``, with both parts of p_k equal to one.
"""

from __future__ import annotations

from math import lcm

from .exact_algebra import PosRatFunc
from .semifields import TropMonomial, bracket


def sign(x):
    return (x > 0) - (x < 0)


def mutate_rows(rows, k, bk):
    """Each row r of ``rows`` stepped through direction k by ``bk``, row k
    of an exchange matrix: r_j + sign(r_k) [r_k bk_j]+ off column k, and
    -r_k in it.  Only the entries where r_k bk_j > 0 move, by |r_k| bk_j,
    so ``bk`` is split by sign once, and a row with r_k = 0 is returned
    as it is."""
    pos = [(j, b) for j, b in enumerate(bk) if b > 0]
    neg = [(j, b) for j, b in enumerate(bk) if b < 0]
    out = []
    for row in rows:
        a = row[k]
        if a:
            row = list(row)
            m = abs(a)
            for j, b in (pos if a > 0 else neg):
                row[j] += m * b
            row[k] = -a
            row = tuple(row)
        out.append(row)
    return tuple(out)


def mutate_matrix(B, k):
    """Matrix mutation in direction k: row k negates, and every other row
    steps by ``mutate_rows`` through row k."""
    out = list(mutate_rows(B, k, B[k]))
    out[k] = tuple([-x for x in B[k]])
    return tuple(out)


def y_vars(n):
    return tuple(f"y{i + 1}" for i in range(n))


def x_vars(n):
    return tuple(f"x{i + 1}" for i in range(n))


def p_vars(r):
    return tuple(f"p{i + 1}" for i in range(r))


def t_vars(n):
    return tuple(f"t{i + 1}" for i in range(n))


def principal_coefficients(n):
    """One private tropical coefficient p_i per direction."""
    pv = p_vars(n)
    return tuple(TropMonomial.variable(pv, v) for v in pv)


class ExchangeData:
    """Square integer exchange matrix with mutable count and skew multipliers.

    ``B`` is (n+m) x (n+m); the first ``n`` indices are mutable.  ``d`` has
    one positive integer per index; the mutable block must satisfy
    d_i b_ij = -d_j b_ji.
    """

    __slots__ = ("B", "n", "d")

    def __init__(self, B, n, d=None):
        self.B = tuple(tuple(int(x) for x in row) for row in B)
        N = len(self.B)
        for row in self.B:
            if len(row) != N:
                raise ValueError("exchange matrix must be square")
        if not 0 < n <= N:
            raise ValueError("mutable count out of range")
        self.n = n
        self.d = tuple(int(x) for x in d) if d is not None else (1,) * N
        if len(self.d) != N or any(x <= 0 for x in self.d):
            raise ValueError("need one positive multiplier per index")
        for i in range(n):
            if self.B[i][i]:
                raise ValueError("nonzero diagonal entry")
            for j in range(n):
                if self.d[i] * self.B[i][j] != -self.d[j] * self.B[j][i]:
                    raise ValueError(
                        f"matrix is not skew-symmetrizable by d at ({i},{j})")

    @classmethod
    def _new(cls, B, n, d):
        """Trusted constructor: ``__init__`` would accept B, n and d as is."""
        self = object.__new__(cls)
        self.B, self.n, self.d = B, n, d
        return self

    @property
    def size(self):
        return len(self.B)

    @property
    def m(self):
        return self.size - self.n

    def mutate(self, k):
        if not 0 <= k < self.n:
            raise ValueError(f"direction {k} is not mutable")
        # d*B stays skew, and b_ik * b_ki <= 0 keeps the diagonal zero
        return ExchangeData._new(mutate_matrix(self.B, k), self.n, self.d)

    def __eq__(self, other):
        return (isinstance(other, ExchangeData) and self.B == other.B
                and self.n == other.n and self.d == other.d)

    def __hash__(self):
        return hash((self.B, self.n, self.d))

    def __repr__(self):
        return f"ExchangeData(B={self.B}, n={self.n}, d={self.d})"


def langlands_dual(ed):
    """Dual exchange data: negated transpose with reciprocal multipliers."""
    L = lcm(*ed.d) if len(ed.d) > 1 else ed.d[0]
    Bt = tuple(tuple(-ed.B[j][i] for j in range(ed.size)) for i in range(ed.size))
    return ExchangeData(Bt, ed.n, tuple(L // x for x in ed.d))


class YSeedCoeff:
    """Y-seed with coefficients: Y-variables in the subtraction-free field on
    y1..yn and the coefficient variables, plus a coefficient tuple in any
    semifield (tropical monomials, or subtraction-free functions of
    p1..pr).  Both mutate by the one rule ``mutate_y_tuple``."""

    __slots__ = ("exchange", "y", "p", "vars")

    def __init__(self, exchange, y, p):
        self.exchange = exchange
        self.y = tuple(y)
        self.p = tuple(p)
        n = exchange.n
        if exchange.m:
            raise ValueError("Y-seed dynamics use a fully mutable matrix")
        if len(self.y) != n or len(self.p) != n:
            raise ValueError("need n Y-variables and n coefficients")
        self.vars = self.y[0].vars

    @classmethod
    def initial(cls, exchange, p):
        """Initial seed: y_i are the coordinate variables, p the given
        coefficient tuple."""
        n = exchange.n
        pv = p[0].vars
        vars = y_vars(n) + tuple(pv)
        y = tuple(PosRatFunc.variable(vars, f"y{i + 1}") for i in range(n))
        return cls(exchange, y, tuple(p))

    @classmethod
    def initial_principal(cls, exchange):
        """Initial seed with one private coefficient variable per direction."""
        return cls.initial(exchange, principal_coefficients(exchange.n))

    @classmethod
    def initial_trivial(cls, exchange):
        """Initial seed with all coefficients equal to one (rank-0 semifield
        represented on an empty variable list)."""
        p = tuple(TropMonomial.one(()) for _ in range(exchange.n))
        return cls.initial(exchange, p)


def mutate_y_tuple(y, bk, k, plus, minus):
    """The Y-pattern rule in direction k, by row k ``bk`` of the exchange
    matrix, on a tuple ``y`` in a semifield, with p_k = plus / minus given
    by its two parts ``bracket(p_k)`` in the same semifield, or plus = minus
    = 1 for the coefficients themselves.

    y_k inverts; every other y_j with b = bk[j] != 0 is multiplied by
    (plus (+) minus * y_k^-1)^-b when b > 0 and by (minus (+) plus * y_k)^-b
    when b < 0, each binomial built once per sign; each product is
    ``reduced()``.  Only the first len(y) entries of ``bk`` are read, so a
    row over frozen directions may be passed.
    """
    yk = y[k]
    inv = yk.inv()
    bases = {}
    out = list(y)
    out[k] = inv
    for j, b in enumerate(bk[:len(y)]):
        if j == k or not b:
            continue
        s = b > 0
        if s not in bases:
            bases[s] = (plus.add(minus.mul(inv)) if s
                        else minus.add(plus.mul(yk)))
        out[j] = y[j].mul(bases[s].power(-b)).reduced()
    return tuple(out)


def mutate_y_seed(seed, k):
    """One Y-seed mutation with coefficients in direction k: the
    Y-variables by ``mutate_y_tuple`` with the two parts of p_k embedded
    among their variables, the coefficient tuple by the same rule with both
    parts one, and the matrix by its exchange mutation."""
    bk = seed.exchange.B[k]
    pk = seed.p[k]
    one = pk.one(pk.vars)
    plus, minus = bracket(pk)
    ys = mutate_y_tuple(seed.y, bk, k, plus.to_posrat(seed.vars),
                        minus.to_posrat(seed.vars))
    return YSeedCoeff(seed.exchange.mutate(k), ys,
                      mutate_y_tuple(seed.p, bk, k, one, one))


class ClusterSeedCoeff:
    """Cluster seed with coefficients: cluster variables in the
    subtraction-free field on x1..xN and p1..pr (frozen cluster variables,
    when present, sit at the frozen indices of the exchange matrix)."""

    __slots__ = ("exchange", "x", "p", "vars")

    def __init__(self, exchange, x, p):
        self.exchange = exchange
        self.x = tuple(x)
        self.p = tuple(p)
        if len(self.x) != exchange.size:
            raise ValueError("need one cluster variable per matrix index")
        if len(self.p) != exchange.n:
            raise ValueError("need one coefficient per mutable index")
        self.vars = self.x[0].vars

    @classmethod
    def initial(cls, exchange, p):
        N = exchange.size
        pv = p[0].vars if p else ()
        vars = x_vars(N) + tuple(pv)
        x = tuple(PosRatFunc.variable(vars, f"x{i + 1}") for i in range(N))
        return cls(exchange, x, tuple(p))

    @classmethod
    def initial_principal(cls, exchange):
        return cls.initial(exchange, principal_coefficients(exchange.n))


def mutate_cluster_seed(seed, k):
    """One cluster mutation with coefficients in direction k: the exchange
    binomial takes the sign-split column k over all indices (frozen
    included) with the two parts of p_k in front; p follows the Y rule."""
    B = seed.exchange.B
    N = seed.exchange.size
    pk = seed.p[k]
    one = pk.one(pk.vars)
    plus, minus = (part.to_posrat(seed.vars) for part in bracket(pk))
    for i in range(N):
        b = B[i][k]
        if b > 0:
            plus = plus.mul(seed.x[i].power(b))
        elif b < 0:
            minus = minus.mul(seed.x[i].power(-b))
    xs = list(seed.x)
    xs[k] = minus.add(plus).mul(seed.x[k].inv())
    return ClusterSeedCoeff(seed.exchange.mutate(k), xs,
                            mutate_y_tuple(seed.p, B[k], k, one, one))


def principal_extension(ed):
    """Extended exchange data [[B, -I], [I, 0]]: one private coefficient
    per direction, frozen, with matching multipliers on the frozen copy."""
    n = ed.n
    if ed.m:
        raise ValueError("principal extension starts from a fully mutable matrix")
    full = [row + tuple(-int(i == j) for j in range(n))
            for i, row in enumerate(ed.B)]
    full += [tuple(int(i == j) for j in range(n)) + (0,) * n
             for i in range(n)]
    return ExchangeData(full, n, ed.d + ed.d)


def replay(memo, path, step):
    """The value at the end of ``path``, stepped by ``step(value, k)`` from
    the longest prefix of the path that ``memo`` holds; every new prefix is
    stored on the way.  ``memo`` maps path prefixes to values and must hold
    the empty path."""
    j = len(path)
    while path[:j] not in memo:
        j -= 1
    value = memo[path[:j]]
    for i in range(j, len(path)):
        value = memo[path[:i + 1]] = step(value, path[i])
    return value


def p_star_pullback(ed, vars=None):
    """Row monomials of the exchange matrix: the i-th output (mutable i) has
    exponent vector equal to row i of B over all indices."""
    N = ed.size
    vars = tuple(vars) if vars is not None else x_vars(N)
    out = []
    for i in range(ed.n):
        e = [0] * len(vars)
        for j in range(N):
            e[j] = ed.B[i][j]
        out.append(PosRatFunc.monomial(vars, e))
    return out


# -- JSON input ---------------------------------------------------------------

def json_int(x, field, lo=None, hi=None):
    """A JSON integer (not a bool), within ``lo..hi`` when they are given;
    anything else raises ``ValueError`` naming the field and showing the
    first 40 characters of the value."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{field} must be an integer, not {repr(x)[:40]}")
    if hi is None:
        if lo is not None and x < lo:
            raise ValueError(f"{field} = {repr(x)[:40]} must be at least "
                             f"{lo}")
    elif not lo <= x <= hi:
        raise ValueError(f"{field} = {repr(x)[:40]} is out of range "
                         f"{lo}..{hi}")
    return x


def json_list(x, field):
    """A JSON list; anything else raises ``ValueError`` naming the field
    and showing the first 40 characters of the value."""
    if not isinstance(x, list):
        raise ValueError(f"{field} must be a list, not {repr(x)[:40]}")
    return x


def json_field(obj, field, pre=""):
    """``obj[field]``; a missing field raises ``ValueError`` naming it,
    after the prefix ``pre`` that names where ``obj`` is."""
    if field not in obj:
        raise ValueError(f"{pre}{field} is missing")
    return obj[field]


def seed_from_json(obj, at=""):
    """Exchange data and coefficient tuple from a parsed seed object.

    ``n`` and ``B`` must be present.  ``B``, its rows, ``d``, ``p`` and its
    tuples must be lists; every entry of ``B``, ``n``, ``d``, ``coeff_rank``
    and ``p`` must be an integer, and ``p`` holds either no tuple or ``n``
    tuples of length ``coeff_rank``; anything else raises ``ValueError``
    naming the field.  ``at`` names the seed in a file that nests it, such
    as ``seed`` in a fan file: each field is then named ``at.field``, and a
    message that names no field starts with ``at: ``.
    """
    pre = f"{at}." if at else ""
    whole = f"{at}: " if at else ""
    if not isinstance(obj, dict):
        raise ValueError(f"{whole}a seed must be a JSON object")
    n = json_int(json_field(obj, "n", pre), f"{pre}n")
    B = [[json_int(x, f"{pre}B[{i}][{j}]")
          for j, x in enumerate(json_list(row, f"{pre}B[{i}]"))]
         for i, row in enumerate(json_list(json_field(obj, "B", pre),
                                           f"{pre}B"))]
    d = obj.get("d")
    if d is not None:
        d = [json_int(x, f"{pre}d[{i}]")
             for i, x in enumerate(json_list(d, f"{pre}d"))]
    r = json_int(obj.get("coeff_rank", 0), f"{pre}coeff_rank", 0)
    p = json_list(obj.get("p", []), f"{pre}p")
    if len(p) not in (0, n):
        raise ValueError(f"{pre}p has {len(p)} tuples, not 0 or n = {n}")
    for i, e in enumerate(p):
        if len(json_list(e, f"{pre}p[{i}]")) != r:
            raise ValueError(f"{pre}p[{i}] has length {len(e)}, not "
                             f"coeff_rank = {r}")
        for j, x in enumerate(e):
            json_int(x, f"{pre}p[{i}][{j}]")
    pv = p_vars(r)
    try:
        ed = ExchangeData(B, n, d)
    except ValueError as exc:
        raise ValueError(f"{whole}{exc}") from None
    return ed, tuple(TropMonomial(pv, e) for e in p)

