"""Committed mutants of the checks, and a runner that shows the tests kill
each one.

Each entry of ``MUTANTS`` is (file, old text, new text, killing test ids):
the file relative to the repository root, a text that occurs exactly once
in it, the text that replaces it, and the pytest node ids of tests that
must fail once it is replaced.  ``tests/test_hygiene.py`` checks, in every
test run, that each old text still occurs exactly once, so a change that
rewrites a guarded site has to update its entry here on purpose.

``CHECK_SITES`` has one entry per ``raise CheckFailed(`` in ``src/``, keyed
by (file, enclosing function, message text) as ``check_sites`` reads them;
the message text is the literal text of the message, each replacement
field written ``{expression}``.  Its value is the list of ids of tests
that kill the site's raise-deletion mutant, which turns ``raise
CheckFailed(...)`` into the bare expression so that the run goes on past
the failed check; a parametrized test may be named by one row's id.
``tests/test_hygiene.py`` checks that the keys are exactly the sites in
``src/`` and that each value names defined tests, so a new check arrives
with its entry and a test that kills it.

Run from anywhere, standard library and pytest only:

    python tests/mutants.py

For each mutant in turn the runner copies the tree, ``bench/`` included, to
a temporary directory, applies the one patch there and runs ``pytest -x -q``
on the named tests.  A mutant is killed when a named test fails (pytest
exit 1), or when the tests run past ``TIMEOUT_S``; any other exit, all
passing included, leaves it not killed.  Before the mutants, the named
tests must pass on an unpatched copy, so that a kill means the patch, not
a broken test.  The runner exits 1 when a mutant is not killed, and 2 when
the unpatched copy fails, an old text does not occur exactly once, or a
``CHECK_SITES`` key names no site.  Before any mutant runs, the runner
prints how many check sites each file in ``src/`` has, then the number in
all files.
"""

import ast
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
_CO = "src/cluster_forge/corpus.py"
_GF = "src/cluster_forge/gfan.py"
_SE = "src/cluster_forge/seeds.py"

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
    # matrix mutation drops the negative half of row k's sign split
    (_SE,
     "    neg = [(j, b) for j, b in enumerate(bk) if b < 0]\n",
     "    neg = []\n",
     ["tests/test_seeds.py::test_cluster_seed_mutation_is_an_involution",
      "tests/test_seeds.py::"
      "test_matrix_and_c_matrix_steps_equal_their_entry_by_entry_forms"]),
    # the walk steps the dual c-matrix with row k of B, not the negated
    # column k
    (_GF,
     "[-row[k] for row in B[:len(cone.C)]]",
     "B[k][:len(cone.C)]",
     ["tests/test_invariants.py::test_g_matrix_routes_agree",
      "tests/test_seeds.py::"
      "test_g_cone_step_equals_its_form_through_whole_matrices"]),
    # prf_sum merges the sum's key into the denominator with exponent -1
    (_EA,
     "factors = {} if key.is_one() else {key: 1}",
     "factors = {} if key.is_one() else {key: -1}",
     ["tests/test_exact_algebra.py::test_posrat_add_matches_expand",
      "tests/test_exact_algebra.py::"
      "test_prf_sum_equals_its_sum_over_one_denominator"]),
]

CHECK_SITES = {
    (_CO, "run_a2_tables", "row {idx}: tropical coefficient {j + 1}"):
        ["tests/test_corpus.py::"
         "test_a2_tables_reject_a_wrong_tropical_coefficient"],
    (_CO, "run_a2_tables", "row {idx}: tropical Y-variable {j + 1}"):
        ["tests/test_corpus.py::"
         "test_a2_tables_reject_a_wrong_tropical_y_variable"],
    (_CO, "check_golden",
     "golden file {name} line {i}: expected {w}, got {g}"):
        ["tests/test_corpus.py::test_a2_tables_reject_a_changed_golden_line",
         "tests/test_corpus.py::"
         "test_a2_tables_reject_a_golden_file_missing_its_last_line"],
    (_CO, "pentagon_cluster_walk",
     "pentagon walk did not return the initial variable {seed.vars[1 - k]}"):
        ["tests/test_corpus.py::"
         "test_pentagon_walk_names_the_variable_that_does_not_return"],
    (_CO, "run_gr25", "frozen block of the quiver matrix is nonzero"):
        ["tests/test_corpus.py::"
         "test_gr25_rejects_a_planted_fault[frozen-arrow]"],
    (_CO, "run_gr25", "pullback of {GR25_XVARS[i]} is not row {i}"):
        ["tests/test_corpus.py::"
         "test_gr25_rejects_a_planted_fault[mutable-pullback]"],
    (_CO, "run_gr25",
     "lift of {GR25_XVARS[i]} changes a mutable exponent"):
        ["tests/test_corpus.py::"
         "test_gr25_rejects_a_planted_fault[lift]"],
    (_CO, "run_gr25", "pullback monomials do not multiply to 1"):
        ["tests/test_corpus.py::"
         "test_gr25_rejects_a_planted_fault[coset]"],
    (_CO, "run_gr25", "flow of {name} does not match the engine"):
        ["tests/test_corpus.py::"
         "test_gr25_rejects_a_planted_fault[dictionary]"],
    (_CO, "run_gr25", "relation {a}*{b} failed"):
        ["tests/test_corpus.py::"
         "test_gr25_rejects_a_planted_fault[relation]"],
    (_CO, "run_gr25", "flow ratio for {xname} mismatch"):
        ["tests/test_corpus.py::"
         "test_gr25_rejects_a_planted_fault[flow-ratio]"],
    (_CO, "run_gr25", "boundary function at {xname} mismatch"):
        ["tests/test_corpus.py::"
         "test_gr25_rejects_a_planted_fault[boundary]"],
    (_CO, "run_dp5", "relation {a},{b} fails"):
        ["tests/test_corpus.py::"
         "test_dp5_rejects_a_planted_fault[relation]"],
    (_CO, "run_dp5", "relation {a},{b} is not degree homogeneous"):
        ["tests/test_corpus.py::"
         "test_dp5_rejects_a_planted_fault[homogeneity]"],
    (_CO, "run_dp5", "generator {i} degree mismatch"):
        ["tests/test_corpus.py::"
         "test_dp5_rejects_a_planted_fault[generator-degree]"],
    (_CO, "run_dp5", "polygon vertices mismatch"):
        ["tests/test_corpus.py::"
         "test_dp5_rejects_a_planted_fault[vertices]"],
    (_CO, "run_dp5", "polygon is not reflexive"):
        ["tests/test_corpus.py::"
         "test_dp5_rejects_a_planted_fault[reflexive]"],
    (_CO, "run_dp5", "polar dual vertices mismatch"):
        ["tests/test_corpus.py::"
         "test_dp5_rejects_a_planted_fault[polar]"],
    (_CO, "run_dp5", "face fan of the polygon is not the fan"):
        ["tests/test_corpus.py::"
         "test_dp5_rejects_a_planted_fault[face-fan]"],
    (_CO, "run_dp5", "normal fan of the polar dual is not the fan"):
        ["tests/test_corpus.py::"
         "test_dp5_rejects_a_planted_fault[normal-fan]"],
    (_DG, "degree_check",
     "cone {idx} coordinate {i + 1}: degree {got}, expected {want}"):
        ["tests/test_degeneration.py::"
         "test_degree_check_rejects_tampered_pullback"],
    (_DG, "coordinate_limit", "{where} has no monomial limit ({exc})"):
        ["tests/test_degeneration.py::"
         "test_coordinate_limit_needs_a_coordinate_monomial",
         "tests/test_degeneration.py::"
         "test_limit_check_rejects_tampered_pullback"],
    (_DG, "coordinate_limit",
     "{where} limit not a coordinate monomial: {lim.to_text()}"):
        ["tests/test_degeneration.py::"
         "test_coordinate_limit_needs_a_coordinate_monomial"],
    (_DG, "limit_check",
     "{where}: limit exponents {got}, expected {want}"):
        ["tests/test_degeneration.py::"
         "test_limit_check_names_a_limit_on_the_wrong_coordinate"],
    (_DG, "central_fiber_toric_check",
     "wall ({src},{k}): coordinate {i + 1} degenerates to {tuple(a)}, "
     "expected {tuple(want)}"):
        ["tests/test_degeneration.py::"
         "test_central_fiber_rejects_a_wall_that_keeps_the_coordinates"],
    (_DG, "cocycle_check",
     "wall ({src},{k}): there-and-back composite moves coordinate "
     "{moved + 1}"):
        ["tests/test_degeneration.py::"
         "test_cocycle_rejects_tampered_transition",
         "tests/test_degeneration.py::"
         "test_shared_round_trip_verdicts_keep_each_checks_failure"],
    (_DG, "cocycle_check",
     "{where}: the coefficient vectors do not come back permuted"):
        ["tests/test_degeneration.py::"
         "test_cocycle_rejects_a_face_that_does_not_come_back"],
    (_DG, "cocycle_check",
     "{where}: the composite sends coordinate {c + 1} to "
     "{images[c].to_text()}, expected a coordinate permutation"):
        ["tests/test_degeneration.py::"
         "test_cocycle_rejects_a_tampered_wall_off_the_base_faces"],
    (_DG, "glue_ring_check",
     "wall ({src},{k}): image of coordinate {near_exit + 1} leaves the near "
     "wall ring"):
        ["tests/test_degeneration.py::"
         "test_ring_exits_report_the_lowest_coordinate_near_first"],
    (_DG, "glue_ring_check",
     "wall ({src},{k}): reverse image of coordinate {far_exit + 1} leaves "
     "the far wall ring"):
        ["tests/test_degeneration.py::"
         "test_ring_exits_report_the_lowest_coordinate_near_first"],
    (_DG, "glue_ring_check",
     "wall ({src},{k}): composite is not the identity"):
        ["tests/test_degeneration.py::"
         "test_shared_round_trip_verdicts_keep_each_checks_failure"],
    (_DG, "glue_ring_check",
     "wall ({src},{k}): reverse composite is not the identity"):
        ["tests/test_degeneration.py::"
         "test_glue_ring_names_the_reverse_composite_first_when_it_moves_"
         "less"],
    (_DG, "fiber_iso_check",
     "wall ({src},{k}): fibre rescaling does not intertwine coordinate "
     "{i + 1}"):
        ["tests/test_degeneration.py::"
         "test_fiber_iso_rejects_tampered_transition"],
    (_DG, "strata_consistency_check",
     "restricted coefficients drift from the ambient coefficient vectors"):
        ["tests/test_degeneration.py::"
         "test_strata_rejects_a_planted_fault[drift]"],
    (_DG, "strata_consistency_check",
     "stratum wall in direction {k}: face coordinate {j + 1} image has a "
     "face variable in its denominator"):
        ["tests/test_degeneration.py::"
         "test_strata_rejects_a_planted_fault[face-denominator]"],
    (_DG, "strata_consistency_check",
     "stratum wall in direction {k}: face coordinate {j + 1} does not "
     "divide its own image"):
        ["tests/test_degeneration.py::"
         "test_strata_rejects_a_planted_fault[face-division]"],
    (_DG, "strata_consistency_check",
     "stratum wall in direction {k}: transverse coordinate {i + 1} image "
     "involves a face variable"):
        ["tests/test_degeneration.py::"
         "test_strata_rejects_a_transverse_image_with_a_face_variable"],
    (_DG, "strata_consistency_check",
     "stratum wall in direction {k}: ambient transition disagrees with the "
     "restricted family at coordinate {i + 1}"):
        ["tests/test_degeneration.py::"
         "test_strata_rejects_a_restricted_family_that_disagrees"],
    (_DG, "strata_consistency_check",
     "stratum wall in direction {k}: stratum exponents of coordinate "
     "{i + 1} do not express the far coefficient vector in the transverse "
     "near ones"):
        ["tests/test_degeneration.py::"
         "test_strata_rejects_a_planted_fault[far-c-matrix]"],
    (_DG, "strata_consistency_check",
     "stratum walk did not reach every cone of the star"):
        ["tests/test_degeneration.py::"
         "test_strata_rejects_a_planted_fault[far-generators]"],
    (_GF, "g_vector_step",
     "cone at path {path}: c-vector {k + 1} {col} is not sign-coherent"):
        ["tests/test_gfan.py::"
         "test_g_cone_step_needs_a_sign_coherent_column"],
    (_GF, "star", "no maximal cone contains the requested face"):
        ["tests/test_degeneration.py::"
         "test_strata_rejects_non_face"],
    (_GF, "polytope_P", "polytope construction implemented for rank 2"):
        ["tests/test_gfan.py::"
         "test_polytope_rejects_non_vertex_rays"],
    (_GF, "polytope_P", "some ray is not a vertex of the hull"):
        ["tests/test_gfan.py::"
         "test_polytope_rejects_non_vertex_rays"],
    (_GF, "polytope_P", "origin is not interior to the hull"):
        ["tests/test_gfan.py::"
         "test_polytope_rejects_non_vertex_rays"],
    (_GF, "_certify_star",
     "a facet of maximal_cones[{i}] lies in {count} maximal cones"):
        ["tests/test_cli.py::"
         "test_fan_tampered_file_is_input_error"],
    (_GF, "_certify_star",
     "maximal_cones[{i}] shares {shared} of its facets with other maximal "
     "cones, not one per allowed direction ({len(allowed)})"):
        ["tests/test_cli.py::"
         "test_star_on_a_truncated_file_marked_complete"],
    (_GF, "_certify_star", "rays[{i}] lies in no maximal cone"):
        ["tests/test_cli.py::"
         "test_fan_tampered_file_is_input_error"],
    (_GF, "_certify_star",
     "paths[{i}] leads the stored seed to a cone with generators "
     "{sorted(gens)}, not maximal_cones[{i}]"):
        ["tests/test_cli.py::"
         "test_star_names_an_infinite_type_seed_without_walking",
         "tests/test_cli.py::"
         "test_star_on_a_complete_file_whose_seed_never_closes",
         "tests/test_cli.py::"
         "test_star_tampered_cone_of_the_star_is_input_error"],
    (_GF, "_certify_star",
     "maximal_cones[{i}] holds rays[{tau}], but the cone across its wall "
     "{k + 1} is not stored"):
        ["tests/test_cli.py::"
         "test_star_needs_every_transverse_neighbour"],
    (_IV, "mat_inverse_integer", "matrix is singular"):
        ["tests/test_invariants.py::"
         "test_matrix_helpers"],
    (_IV, "mat_inverse_integer", "inverse is not an integer matrix"):
        ["tests/test_invariants.py::"
         "test_matrix_helpers"],
    (_IV, "f_polynomials",
     "constant term of F_{j + 1} is not 1: {f.to_text()}"):
        ["tests/test_invariants.py::"
         "test_f_polynomials_reject_a_constant_term_other_than_one"],
    (_IV, "f_polynomials", "F_{j + 1} has a negative exponent"):
        ["tests/test_invariants.py::"
         "test_f_polynomials_reject_a_negative_exponent"],
    (_IV, "separation_check", "separation (shift form) fails at j={j + 1}"):
        ["tests/test_invariants.py::"
         "test_separation_shift_form_rejects_a_wrong_coefficient_free_walk"],
    (_IV, "separation_check",
     "separation (F-product form) fails at j={j + 1}"):
        ["tests/test_invariants.py::"
         "test_separation_f_product_form_rejects_a_wrong_f_polynomial"],
    (_IV, "separation_check",
     "separation (coefficient form) fails at j={j + 1}"):
        ["tests/test_invariants.py::"
         "test_separation_coefficient_form_rejects_a_wrong_tropical_one"],
}


def _message_text(node):
    """The literal text of a message: a string constant as it is, an
    f-string with each replacement field written ``{expression}``."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant)
                       else "{" + ast.unparse(v.value) + "}"
                       for v in node.values)
    return ast.unparse(node)


def sites_in(tree):
    """(enclosing function, message text, line, column) for every
    ``raise CheckFailed(...)`` in a parsed module.  A method's function is
    ``Class.method``, and a nested definition is dotted the same way."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from walk(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Raise)
                    and isinstance(child.exc, ast.Call)
                    and getattr(child.exc.func, "id", None) == "CheckFailed"):
                yield (".".join(scope), _message_text(child.exc.args[0]),
                       child.lineno, child.col_offset)
            yield from walk(child, scope)
    return list(walk(tree, ()))


def check_sites():
    """((file, function, message text), line, column) for every
    ``raise CheckFailed(`` in ``src/``, the file relative to the root."""
    out = []
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=f)
                rel = os.path.relpath(path, ROOT).replace(os.sep, "/")
                out += [((rel, fn, msg), line, col)
                        for fn, msg, line, col in sites_in(tree)]
    return out


def _replace_once(old, new):
    """A patch replacing ``old`` by ``new``; None unless ``old`` occurs
    exactly once."""
    return lambda text: (text.replace(old, new) if text.count(old) == 1
                         else None)


def _delete_raise(line, col):
    """A patch dropping the ``raise `` at a line and column (in bytes, as
    ``ast`` counts them); None when it is not there."""
    def patch(text):
        lines = text.splitlines(keepends=True)
        b = lines[line - 1].encode("utf-8")
        if b[col:col + 6] != b"raise ":
            return None
        lines[line - 1] = (b[:col] + b[col + 6:]).decode("utf-8")
        return "".join(lines)
    return patch


def _first_change(old, new):
    """The first line of the new text that the old text does not have."""
    return next(line.strip() for line in new.splitlines()
                if line not in old.splitlines())


def _written_mutants():
    """(file, patch, tests, label) for each entry of ``MUTANTS``."""
    return [(path, _replace_once(old, new), tests, _first_change(old, new))
            for path, old, new, tests in MUTANTS]


def _site_mutants():
    """(file, patch, tests, label) for the raise-deletion mutant of each
    ``CHECK_SITES`` entry.  Raises KeyError on an entry whose site is not
    in ``src/``."""
    where = {key: (line, col) for key, line, col in check_sites()}
    return [(key[0], _delete_raise(*where[key]), tests,
             f"{key[1]}: raise CheckFailed({key[2]!r})")
            for key, tests in CHECK_SITES.items()]


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
    try:
        mutants = _written_mutants() + _site_mutants()
    except KeyError as exc:
        print(f"CHECK_SITES names a site that is not in src/: {exc}")
        return 2
    for path in sorted({key[0] for key in CHECK_SITES}):
        count = sum(key[0] == path for key in CHECK_SITES)
        print(f"{path}: {count} check sites")
    print(f"all files: {len(CHECK_SITES)} check sites")
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        _copy_tree(tree)
        named = sorted({t for _, _, tests, _ in mutants for t in tests})
        code = _pytest(tree, named)
        if code != 0:
            print(f"the named tests do not pass unpatched (pytest exit "
                  f"{code}); no mutant was run")
            return 2
        survivors = 0
        for i, (path, patch, tests, label) in enumerate(mutants, 1):
            t0 = time.perf_counter()
            tree = os.path.join(tmp, f"mutant{i}")
            _copy_tree(tree)
            target = os.path.join(tree, path)
            with open(target, encoding="utf-8") as fh:
                text = patch(fh.read())
            if text is None:
                print(f"{i}: {path}: the patch does not apply: {label}")
                return 2
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text)
            code = _pytest(tree, tests)
            shutil.rmtree(tree)
            verdict = {1: "killed", None: "killed (timeout)"}.get(
                code, f"NOT KILLED (pytest exit {code})")
            survivors += not verdict.startswith("killed")
            print(f"{i}: {verdict} in {time.perf_counter() - t0:.1f}s  "
                  f"{path}: {label}")
    print(f"{len(mutants) - survivors}/{len(mutants)} mutants killed in "
          f"{time.perf_counter() - start:.1f}s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
