"""Self-test of the benchmark's oracles: each must accept a right answer
and reject a deliberately wrong one.

    python3 bench/selftest.py

Exits 0 when every oracle behaves, 1 otherwise.  Needs no ``cluster_forge``
import: right answers come from the oracles' own reference computations,
and the golden table from ``src/cluster_forge/golden``.
"""

import os
import sys
from fractions import Fraction

import oracles
from oracles import OracleMismatch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def rejects(fn, *args):
    try:
        fn(*args)
    except OracleMismatch:
        return True
    return False


def y_seed():
    """A coefficient exponent off by one, a Y-value off by a little, and
    a wrong matrix entry are each rejected."""
    B = ((0, 1, 1), (-1, 0, 1), (-1, -1, 0))
    p0 = ((1, -2), (0, 1), (2, 0))
    path = (0, 2, 1, 0)
    y = [Fraction(2, 3), Fraction(5), Fraction(1, 4)]
    pv = [Fraction(3, 2), Fraction(2, 7)]
    got_B, got_p, got_y = oracles.y_seed_values(B, p0, path, y, pv)
    ok = not rejects(oracles.check_y_seed, B, p0, path, y, pv,
                     got_B, got_p, got_y)
    bad_p = [list(e) for e in got_p]
    bad_p[1][0] += 1
    bad_y = list(got_y)
    bad_y[2] += Fraction(1, 10 ** 9)
    bad_B = [list(r) for r in got_B]
    bad_B[0][1] -= 1
    return [
        ("y-seed: right answer accepted", ok),
        ("y-seed: coefficient exponent off by one rejected",
         rejects(oracles.check_y_seed, B, p0, path, y, pv, got_B, bad_p, got_y)),
        ("y-seed: Y-value off rejected",
         rejects(oracles.check_y_seed, B, p0, path, y, pv, got_B, got_p, bad_y)),
        ("y-seed: matrix entry off rejected",
         rejects(oracles.check_y_seed, B, p0, path, y, pv, bad_B, got_p, got_y)),
    ]


def counts():
    fan = {"complete": True,
           "rays": [[1, 0], [0, 1], [-1, 0], [0, -1], [-1, 1]],
           "maximal_cones": [[0, 1], [1, 4], [2, 4], [2, 3], [0, 3]]}
    short = dict(fan, maximal_cones=fan["maximal_cones"][:-1])
    flat = dict(fan, maximal_cones=[[0, 1], [1, 4], [2, 4], [2, 3], [0, 2]])
    return [
        ("counts: D4 50/16 accepted", not rejects(oracles.check_counts,
                                                  "D4", 50, 16)),
        ("counts: cone count off by one rejected",
         rejects(oracles.check_counts, "D4", 51, 16)),
        ("counts: ray count off by one rejected",
         rejects(oracles.check_counts, "A5", 132, 19)),
        ("fan file: A2 accepted", not rejects(oracles.check_fan_file,
                                              "A2", fan, 2)),
        ("fan file: a missing cone rejected",
         rejects(oracles.check_fan_file, "A2", short, 2)),
        ("fan file: a flat (non-unimodular) cone rejected",
         rejects(oracles.check_fan_file, "A2", flat, 2)),
    ]


def table():
    with open(os.path.join(ROOT, "src", "cluster_forge", "golden", "a2.txt"),
              encoding="utf-8") as fh:
        golden = fh.read()
    i = len(golden) // 2
    changed = golden[:i] + ("0" if golden[i] != "0" else "1") + golden[i + 1:]
    return [
        ("table: golden text accepted",
         not rejects(oracles.check_text_equal, golden, golden, "a2.txt")),
        ("table: one byte changed rejected",
         rejects(oracles.check_text_equal, changed, golden, "a2.txt")),
        ("table: a missing final newline rejected",
         rejects(oracles.check_text_equal, golden[:-1], golden, "a2.txt")),
    ]


def walls():
    """The A2 central fiber's monomial gluing closes around every wall; a
    wrong exponent in one image does not."""
    text = """toric gluing of the central fiber at (0, 0)
wall cone 0 --1--> cone 1
  X1 -> X1^-1
  X2 -> X1*X2
wall cone 0 --2--> cone 2
  X1 -> X1
  X2 -> X2^-1
wall cone 1 --1--> cone 0
  X1 -> X1^-1
  X2 -> X1*X2
wall cone 1 --2--> cone 3
  X1 -> X1*X2
  X2 -> X2^-1
wall cone 2 --1--> cone 4
  X1 -> X1^-1
  X2 -> X2
wall cone 2 --2--> cone 0
  X1 -> X1
  X2 -> X2^-1
wall cone 3 --1--> cone 4
  X1 -> X1^-1
  X2 -> X1*X2
wall cone 3 --2--> cone 1
  X1 -> X1*X2
  X2 -> X2^-1
wall cone 4 --1--> cone 2
  X1 -> X1^-1
  X2 -> X2
wall cone 4 --2--> cone 3
  X1 -> X1*X2
  X2 -> X2^-1
"""
    x = [Fraction(2, 3), Fraction(7, 5)]
    good = oracles.parse_degenerate_text(text)
    bad = oracles.parse_degenerate_text(
        text.replace("wall cone 3 --1--> cone 4\n  X1 -> X1^-1\n  X2 -> X1*X2",
                     "wall cone 3 --1--> cone 4\n  X1 -> X1^-1\n  X2 -> X1^2*X2"))
    B = ((0, 1), (-1, 0))
    c = (1, -1)
    t = [Fraction(3), Fraction(1, 2)]
    right = oracles.wall_map_values(B, 0, c, x, t)
    wrong = list(right)
    wrong[1] *= 2
    return [
        ("round trips: A2 central fiber accepted",
         not rejects(oracles.check_round_trips, good, x)),
        ("round trips: one wrong exponent rejected",
         rejects(oracles.check_round_trips, bad, x)),
        ("wall: reference crossing accepted",
         not rejects(oracles.check_wall, B, 0, c, x, t, right)),
        ("wall: a wrong image rejected",
         rejects(oracles.check_wall, B, 0, c, x, t, wrong)),
    ]


def texts():
    v = {"y1": Fraction(2), "y2": Fraction(1, 3), "p1": Fraction(5)}
    want = (2 * 5 + 1) / (2 * Fraction(1, 3))
    F = oracles.f_polynomial_values(((0, 1), (-1, 0)), (1,),
                                    [Fraction(2), Fraction(3)])
    return [
        ("text: quotient evaluated",
         oracles.evaluate_text("(y1*p1 + 1) / (y1*y2)", v) == want),
        ("text: signed exponents evaluated",
         oracles.evaluate_text("2*y1^-2*y2 - 1", v) == Fraction(-5, 6)),
        ("text: monomial exponents read",
         oracles.monomial_exponents("p1^-1*p3^2", ["p1", "p2", "p3"])
         == (-1, 0, 2)),
        ("F-polynomial: F1 = 1, F2 = p2 + 1 after mutating at 2",
         F == (1, 4)),
    ]


def main():
    results = y_seed() + counts() + table() + walls() + texts()
    for label, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
