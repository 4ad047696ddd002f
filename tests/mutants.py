"""Committed mutants of the checks, and a runner that shows the tests kill
each one.

Each entry of ``MUTANTS`` is (file, old text, new text, killing test ids):
the file relative to the repository root, a text that occurs exactly once
in it, the text that replaces it, and the pytest node ids of tests that
must fail once it is replaced.  ``tests/test_hygiene.py`` checks, in every
test run, that each old text still occurs exactly once, so a change that
rewrites a guarded site has to update its entry here on purpose.

Run from anywhere, standard library and pytest only:

    python tests/mutants.py

For each mutant in turn the runner copies the tree, ``bench/`` included, to
a temporary directory, applies the one patch there and runs ``pytest -x -q``
on the named tests.  A mutant is killed when a named test fails (pytest
exit 1), or when the tests run past ``TIMEOUT_S``; any other exit, all
passing included, leaves it not killed.  Before the mutants, the named
tests must pass on an unpatched copy, so that a kill means the patch, not
a broken test.  The runner exits 1 when a mutant is not killed, and 2 when
the unpatched copy fails or an old text does not occur exactly once.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 300

_EA = "src/cluster_forge/exact_algebra.py"
_DG = "src/cluster_forge/degeneration.py"
_IV = "src/cluster_forge/invariants.py"
_CLI = "src/cluster_forge/cli.py"

MUTANTS = [
    # rat_equal decides on the unit alone
    (_EA,
     "    if f.unit == g.unit and f.factors == g.factors:\n",
     "    if f.unit == g.unit:\n",
     ["tests/test_exact_algebra.py::"
      "test_rat_equal_on_equal_units_decides_by_the_factors",
      "tests/test_exact_algebra.py::"
      "test_rat_equal_square_against_expanded_square"]),
    # substitute_values skips every slot that holds any zero exponent
    (_EA,
     "        if not any(xs):\n            continue\n",
     "        if 0 in xs:\n            continue\n",
     ["tests/test_exact_algebra.py::"
      "test_substitute_values_reads_a_slot_with_some_zero_exponents"]),
    # the strata check keys its star walls without the coefficient vector
    (_DG,
     "skey = wall_key(Bb, l, pb[l].exps)",
     "skey = (tuple(Bb[l]), l)",
     ["tests/test_degeneration.py::"
      "test_strata_builds_each_star_wall_once_per_call",
      "tests/test_degeneration.py::test_strata_of_every_a3_ray"]),
    # _in_glue_ring accepts any monomial denominator
    (_DG,
     "    return not any(x for j, x in enumerate(dexps) if j != k)\n",
     "    return True\n",
     ["tests/test_degeneration.py::"
      "test_glue_ring_reads_the_denominator_left_after_the_binomial"]),
    # _bareiss skips the rows above the pivot
    (_IV,
     "        for r in range(n):\n            if r != c:\n",
     "        for r in range(c + 1, n):\n            if r != c:\n",
     ["tests/test_invariants.py::test_mat_inverse_integer_agrees_with_sympy"]),
    # the inverse is divided by sign * p, the determinant, not by p
    (_IV,
     "    _, p, rows = _bareiss(M, mat_identity(n))\n",
     "    sign, p, rows = _bareiss(M, mat_identity(n))\n    p *= sign\n",
     ["tests/test_invariants.py::test_mat_inverse_integer_agrees_with_sympy"]),
    # at_base_point scales each side by its own constant denominator
    (_DG,
     "    return n.scale(cd), d.scale(cn)\n",
     "    return n.scale(cn), d.scale(cd)\n",
     ["tests/test_degeneration.py::"
      "test_at_base_point_equals_the_product_of_the_specialized_sides"]),
    # verify stops its suite after the first failing part
    (_CLI,
     '        results.append((label, not failed, detail if failed else ""))\n',
     '        results.append((label, not failed, detail if failed else ""))\n'
     "        if failed:\n            break\n",
     ["tests/test_cli.py::test_a_failing_part_does_not_stop_its_suite"]),
]


def _first_change(old, new):
    """The first line of the new text that the old text does not have."""
    return next(line.strip() for line in new.splitlines()
                if line not in old.splitlines())


def _copy_tree(dest):
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
        "out"))


def _pytest(tree, tests):
    """pytest's exit code on ``tests`` in ``tree``, or None on timeout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *tests], cwd=tree, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main():
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        _copy_tree(tree)
        named = sorted({t for *_, tests in MUTANTS for t in tests})
        code = _pytest(tree, named)
        if code != 0:
            print(f"the named tests do not pass unpatched (pytest exit "
                  f"{code}); no mutant was run")
            return 2
        survivors = 0
        for i, (path, old, new, tests) in enumerate(MUTANTS, 1):
            t0 = time.perf_counter()
            tree = os.path.join(tmp, f"mutant{i}")
            _copy_tree(tree)
            target = os.path.join(tree, path)
            with open(target, encoding="utf-8") as fh:
                text = fh.read()
            if text.count(old) != 1:
                print(f"{i}: {path}: the old text occurs "
                      f"{text.count(old)} times, not once")
                return 2
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text.replace(old, new))
            code = _pytest(tree, tests)
            shutil.rmtree(tree)
            verdict = {1: "killed", None: "killed (timeout)"}.get(
                code, f"NOT KILLED (pytest exit {code})")
            survivors += not verdict.startswith("killed")
            print(f"{i}: {verdict} in {time.perf_counter() - t0:.1f}s  "
                  f"{path}: {_first_change(old, new)}")
    print(f"{len(MUTANTS) - survivors}/{len(MUTANTS)} mutants killed in "
          f"{time.perf_counter() - start:.1f}s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
