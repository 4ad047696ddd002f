"""Command-line front end: mutate seeds, enumerate the cone atlas, run the
verification suites, specialize the degenerating family, reproduce the
stored tables, and inspect stars of fan faces.

Exit codes: 0 success, 1 a verification failed, 2 malformed input,
3 attempt to mutate a frozen direction, 4 work that cannot finish: the
g-fan of a seed of infinite type, or a polynomial product over the term
budget of ``exact_algebra.TERM_BUDGET`` term products.
"""

import json
import random
import sys
from contextlib import contextmanager
from functools import partial
from math import gcd

import click

from . import corpus
from .degeneration import (
    Family,
    at_base_point,
    central_fiber_toric_check,
    cocycle_check,
    degree_check,
    glue_ring_check_all,
    limit_check,
    strata_consistency_check,
)
from .exact_algebra import (
    ExactAlgebraError,
    TermBudgetExceeded,
    limit_t_zero,
    ratio_text,
)
from .gfan import (
    InfiniteType,
    enumerate_gfan,
    fan_from_json,
    fan_to_json,
    star,
    two_faces,
)
from .invariants import (
    CheckFailed,
    check_sign_coherence,
    g_matrix_degrees,
    mat_identity,
    mat_mul,
    mat_transpose,
    rows_to_csv,
    separation_check,
    table_rows,
)
from .seeds import YSeedCoeff, mutate_y_seed, seed_from_json

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_FROZEN = 3
EXIT_UNFINISHED = 4

Y_SEED_NEEDS_MUTABLE = "Y-seed dynamics need a fully mutable matrix"


def _echo(text, err=False, nl=True):
    """``click.echo`` to the current ``sys.stdout`` or ``sys.stderr``.  The
    stream is passed explicitly because, without one, click caches each new
    stream in a weak-key dictionary whose value is the stream itself, so
    every in-process call would leave its streams and output alive."""
    click.echo(text, file=sys.stderr if err else sys.stdout, nl=nl)


def _fail(code, msg):
    _echo(f"error: {msg}", err=True)
    sys.exit(code)


def _load_json_file(path, what):
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        _fail(EXIT_INPUT, f"{what} file {path} not found")
    except json.JSONDecodeError as exc:
        _fail(EXIT_INPUT, f"{what} file {path} is not valid JSON: {exc}")
    except UnicodeDecodeError as exc:
        _fail(EXIT_INPUT, f"{what} file {path} is not UTF-8 text: {exc}")
    except ValueError:
        _fail(EXIT_INPUT, f"{what} file {path} holds an integer too long to "
                          "read")
    except RecursionError:
        _fail(EXIT_INPUT, f"{what} file {path} is nested too deeply to read")
    except OSError as exc:
        _fail(EXIT_INPUT, f"{what} file {path} cannot be read: "
                          f"{exc.strerror}")
    if not isinstance(obj, dict):
        _fail(EXIT_INPUT, f"{what} file {path} must hold a JSON object, "
                          f"not {json.dumps(obj)[:40]}")
    return obj


def _load_seed(path):
    obj = _load_json_file(path, "seed")
    try:
        return seed_from_json(obj)
    except (TypeError, ValueError) as exc:
        _fail(EXIT_INPUT, f"seed file {path} is malformed: {exc}")


def _parse_directions(text, ed, source):
    """Comma-separated 1-based directions to 0-based, validating range and
    frozenness."""
    if not text:
        return ()
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            k = int(piece)
        except ValueError:
            _fail(EXIT_INPUT, f"{source}: direction {piece!r} is not an integer")
        if not 1 <= k <= ed.size:
            _fail(EXIT_INPUT,
                  f"{source}: direction {k} out of range 1..{ed.size}")
        if k > ed.n:
            _fail(EXIT_FROZEN,
                  f"{source}: direction {k} is frozen (mutable directions "
                  f"are 1..{ed.n})")
        out.append(k - 1)
    return tuple(out)


def _joined(path):
    """0-based directions as 1-based, comma-separated."""
    return ",".join(str(k + 1) for k in path)


def _walk(ed, seed_path, allowed=None):
    """``enumerate_gfan`` for a seed file; exit 4, naming the matrix pair
    and the mutation path to it, when the walk finds the seed is of
    infinite type."""
    try:
        return enumerate_gfan(ed, allowed)
    except InfiniteType as exc:
        _fail(EXIT_UNFINISHED, f"seed file {seed_path} is of infinite type: "
                               f"{exc}")


@contextmanager
def _budget(what):
    """Exit 4 when a polynomial product in the work inside would go over
    the term budget; ``what`` names the command and the stage.  Every
    command runs in it under its own name (``_Command``), and the stages
    whose terms grow with the input (a mutation step and printing the
    result in ``mutate``, each part of a ``verify`` suite) run in it again
    under theirs."""
    try:
        yield
    except TermBudgetExceeded as exc:
        _fail(EXIT_UNFINISHED, f"{what} cannot finish: {exc}")


def _need_mutable(ed, seed_path, source, need):
    if ed.m:
        _fail(EXIT_INPUT,
              f"{source}: seed file {seed_path} has frozen directions; {need}")


def _json_text(obj):
    """The one JSON layout of every output: ``fan --out`` files and
    ``--json`` or ``--format json`` stdout."""
    return json.dumps(obj, indent=2, sort_keys=True)


def _echo_json(obj):
    _echo(_json_text(obj))


class _Command(click.Command):
    """A subcommand run inside ``_budget`` under its own name."""

    def invoke(self, ctx):
        with _budget(ctx.info_name):
            return super().invoke(ctx)


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
def main():
    """Exact cluster-pattern toolkit: mutation, fans, verification,
    degenerations, tables."""


# -- mutate ------------------------------------------------------------------


@main.command()
@click.option("--seed", "seed_path", required=True,
              help="seed JSON file (matrix, mutable count, coefficients)")
@click.option("--path", "path_text", default="",
              help="comma-separated 1-based mutation directions")
@click.option("--with-coeffs", "coeffs", default=None,
              help="coefficient choice: principal, none, or trop:R to use "
                   "the seed file's rank-R tropical tuple")
@click.option("--json", "as_json", is_flag=True, help="machine output")
def mutate(seed_path, path_text, coeffs, as_json):
    """Mutate the Y-seed along a path and print the result."""
    ed, p_file = _load_seed(seed_path)
    path = _parse_directions(path_text, ed, "--path")
    _need_mutable(ed, seed_path, "mutate", Y_SEED_NEEDS_MUTABLE)
    if coeffs == "principal":
        seed = YSeedCoeff.initial_principal(ed)
    elif coeffs == "none":
        seed = YSeedCoeff.initial_trivial(ed)
    elif coeffs is None:
        seed = (YSeedCoeff.initial(ed, p_file) if len(p_file) == ed.n
                else YSeedCoeff.initial_trivial(ed))
    elif coeffs.startswith("trop:"):
        try:
            rank = int(coeffs.split(":", 1)[1])
        except ValueError:
            _fail(EXIT_INPUT,
                  f"--with-coeffs {coeffs!r}: rank is not an integer")
        if len(p_file) != ed.n:
            _fail(EXIT_INPUT,
                  f"seed file {seed_path} carries no coefficient tuple of "
                  f"length {ed.n} for --with-coeffs trop:{rank}")
        got = len(p_file[0].exps)
        if got != rank:
            _fail(EXIT_INPUT,
                  f"seed file {seed_path} has coefficient rank {got}, "
                  f"not {rank}")
        seed = YSeedCoeff.initial(ed, p_file)
    else:
        _fail(EXIT_INPUT, f"unknown --with-coeffs value {coeffs!r}")
    for step, k in enumerate(path, 1):
        with _budget(f"mutate: mutation step {step} "
                     f"(path {_joined(path[:step])})"):
            seed = mutate_y_seed(seed, k)
    with _budget("mutate: printing the result"):
        ys = [f.to_text() for f in seed.y]
    if as_json:
        _echo_json({
            "B": [list(r) for r in seed.exchange.B],
            "p": [m.to_text() for m in seed.p],
            "y": ys,
        })
    else:
        _echo(f"matrix: {corpus.mat_text(seed.exchange.B)}")
        for i, m in enumerate(seed.p):
            _echo(f"p{i + 1}: {m.to_text()}")
        for i, text in enumerate(ys):
            _echo(f"Y{i + 1}: {text}")


# -- fan ---------------------------------------------------------------------


@main.command()
@click.option("--seed", "seed_path", required=True)
@click.option("--freeze", "freeze_text", default="",
              help="comma-separated 1-based directions to exclude")
@click.option("--out", "out_path", default=None,
              help="write the atlas JSON here instead of stdout")
@click.option("--json", "as_json", is_flag=True,
              help="print the atlas JSON to stdout even with --out")
def fan(seed_path, freeze_text, out_path, as_json):
    """Enumerate the atlas of maximal cones reachable from the seed."""
    ed, _ = _load_seed(seed_path)
    frozen = set(_parse_directions(freeze_text, ed, "--freeze"))
    allowed = tuple(k for k in range(ed.n) if k not in frozen)
    if not allowed:
        _fail(EXIT_INPUT, "--freeze leaves no mutable directions")
    atlas = _walk(ed, seed_path, allowed)
    text = _json_text(fan_to_json(atlas))
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            _fail(EXIT_INPUT, f"--out {out_path} cannot be written: "
                              f"{exc.strerror}")
        if not as_json:
            _echo(f"{len(atlas.cones)} cones, {len(atlas.rays)} rays "
                  f"-> {out_path}")
    if as_json or not out_path:
        _echo(text)
    sys.exit(EXIT_OK)


# -- verify ------------------------------------------------------------------

# verify separation refuses random:N paths of up to --max-len steps when N
# times --max-len is beyond this, before it draws a path
SEPARATION_MAX_STEPS = 10 ** 5


def _random_paths(ed, paths_arg, max_len, rng_seed, source):
    """The paths of ``--paths``: random ones drawn one at a time as they
    are consumed, after the bound is checked; explicit ones parsed at once,
    so that an input error exits before any path is checked."""
    if paths_arg.startswith("random:"):
        try:
            count = int(paths_arg.split(":", 1)[1])
        except ValueError:
            _fail(EXIT_INPUT, f"{source}: {paths_arg!r} is not random:N")
        if count < 1:
            _fail(EXIT_INPUT, f"{source}: {paths_arg!r} asks for {count} "
                              "paths; N must be at least 1")
        if count * max_len > SEPARATION_MAX_STEPS:
            _fail(EXIT_INPUT, f"{source}: {paths_arg!r} with --max-len "
                              f"{max_len} asks for up to {count * max_len} "
                              f"steps, over the bound of {SEPARATION_MAX_STEPS}")
        rng = random.Random(rng_seed)
        return (tuple(rng.randrange(ed.n)
                      for _ in range(rng.randint(1, max_len)))
                for _ in range(count))
    return [_parse_directions(p, ed, source) for p in paths_arg.split(";")]


def _suite(check, ed, p_file, seed_path, paths_spec, max_len, rng_seed):
    """The parts of a ``verify`` suite as (label, run) pairs, in the order
    they run; random separation paths are drawn as their parts come up.
    A part fails when ``run()`` returns a string, the failure detail, or
    raises ``CheckFailed`` or ``ExactAlgebraError``.  Input errors, and the
    walk's exit on a seed of infinite type, come here, before any part
    runs."""
    if check == "separation":
        _need_mutable(ed, seed_path, "verify separation", Y_SEED_NEEDS_MUTABLE)
        p0 = (p_file if len(p_file) == ed.n
              else YSeedCoeff.initial_principal(ed).p)
        paths = _random_paths(ed, paths_spec, max_len, rng_seed, "--paths")
        return (("path " + (_joined(path) or "(empty)"),
                 partial(separation_check, ed, p0, path)) for path in paths)

    if check in ("duality", "signcoherence"):
        atlas = _walk(ed, seed_path)
        eye = mat_identity(ed.n)
        seeds_by_prefix = {}

        def cone(rec):
            if check == "signcoherence":
                return (None if check_sign_coherence(rec.C)
                        else "mixed-sign column")
            G = g_matrix_degrees(ed, rec.path, seeds_by_prefix)
            return (None if mat_mul(mat_transpose(G), rec.Cd) == eye
                    else "duality identity failed")

        return [("cone " + (_joined(rec.path) or "(initial)"),
                 partial(cone, rec)) for rec in atlas.cones]

    _need_mutable(ed, seed_path, f"verify {check}",
                  "this check needs a fully mutable seed")
    fam = Family(ed, atlas=_walk(ed, seed_path))
    if check == "cocycle":
        closed, skipped = two_faces(fam.atlas, max_len)
        if skipped:
            _echo(f"verify cocycle: {skipped} of {len(closed) + skipped} "
                  f"faces longer than --max-len {max_len} were not checked",
                  err=True)
        return [("cocycle", partial(cocycle_check, fam, faces=closed))]
    if check == "strata":
        return [(f"ray {ray}", partial(strata_consistency_check, fam, [ray]))
                for ray in fam.atlas.rays]
    return {
        "degree": [("degree", partial(degree_check, fam))],
        "limit": [("limit", partial(limit_check, fam)),
                  ("central fiber", partial(central_fiber_toric_check, fam))],
        "glue": [("coefficient-free", partial(glue_ring_check_all, fam,
                                              coefficient_free=True)),
                 ("with coefficients", partial(glue_ring_check_all, fam))],
    }[check]


@main.command()
@click.argument("check", type=click.Choice([
    "separation", "duality", "signcoherence", "cocycle", "degree", "limit",
    "strata", "glue"]))
@click.option("--seed", "seed_path", required=True)
@click.option("--paths", "paths_spec", default="random:20", show_default=True,
              help="random:N, or semicolon-separated explicit paths")
@click.option("--max-len", default=8, show_default=True,
              help="longest 2-face cycle walked by cocycle; longest random "
                   "path for separation")
@click.option("--rng-seed", default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def verify(check, seed_path, paths_spec, max_len, rng_seed, as_json):
    """Run one verification suite against a seed; exit 1 on failure."""
    if max_len < 1:
        _fail(EXIT_INPUT, f"--max-len {max_len}: walks and random paths "
                          "need a length of at least 1")
    ed, p_file = _load_seed(seed_path)
    results = []
    for label, run in _suite(check, ed, p_file, seed_path, paths_spec,
                             max_len, rng_seed):
        try:
            with _budget(f"verify {check}: {label}"):
                detail = run()
        except (CheckFailed, ExactAlgebraError) as exc:
            detail = str(exc)
        failed = isinstance(detail, str)
        results.append((label, not failed, detail if failed else ""))
    results.sort(key=lambda r: r[0])
    ok = all(r[1] for r in results)
    if as_json:
        _echo_json({
            "check": check,
            "ok": ok,
            "results": [{"label": l, "ok": o, "detail": d}
                        for l, o, d in results],
        })
    else:
        for label, good, detail in results:
            suffix = "" if good else f"  [{detail}]"
            _echo(f"{check} {label}: {'ok' if good else 'FAIL'}{suffix}")
        passed = sum(1 for r in results if r[1])
        _echo(f"verify {check}: {passed}/{len(results)} ok")
    sys.exit(EXIT_OK if ok else EXIT_VERIFY)


# -- degenerate ---------------------------------------------------------------


def _ratio(piece):
    """One --at component, a or a/b with int() on each side and b > 0, as
    an integer (numerator, denominator) pair in lowest terms; ValueError on
    anything else."""
    a, slash, b = piece.partition("/")
    a, b = int(a), int(b) if slash else 1
    if b <= 0:
        raise ValueError(piece)
    g = gcd(a, b)
    return a // g, b // g


@main.command()
@click.option("--seed", "seed_path", required=True)
@click.option("--at", "at_text", required=True,
              help="comma-separated base point u1,...,un, each an integer "
                   "a or a ratio a/b with b > 0")
@click.option("--json", "as_json", is_flag=True)
def degenerate(seed_path, at_text, as_json):
    """Print the wall transition maps of the family specialized at a base
    point; the zero point gives the toric gluing of the central fiber.
    Walls share images, so each distinct image is specialized and printed
    once."""
    ed, _ = _load_seed(seed_path)
    _need_mutable(ed, seed_path, "degenerate",
                  "the family needs a fully mutable seed")
    try:
        u = [_ratio(piece) for piece in at_text.split(",")]
    except ValueError:
        _fail(EXIT_INPUT, f"--at {at_text!r} is not a comma-separated "
              "vector of integers a and ratios a/b with b > 0")
    if len(u) != ed.n:
        _fail(EXIT_INPUT, f"--at needs {ed.n} components, got {len(u)}")
    zeros = [a == 0 for a, _ in u]
    if any(zeros) and not all(zeros):
        _fail(EXIT_INPUT, "--at must be all zero (central fiber) or all "
              "nonzero (smooth fiber)")
    central = all(zeros)
    fam = Family(ed, atlas=_walk(ed, seed_path))
    assign = dict(zip(fam.tnames, u))
    maps, special = [], {}
    for (src, k), dst in sorted(fam.atlas.adjacency.items()):
        images = fam.transition(src, k).images
        for f in images:
            if f not in special:
                special[f] = (limit_t_zero(f, fam.tnames) if central else
                              at_base_point(f.expand(), assign))
        maps.append((src, k, dst, images))
    # the only ValueError printing raises is Python's limit on the digits
    # of an int converted to text
    try:
        at = [str(a) if b == 1 else f"{a}/{b}" for a, b in u]
        texts = {f: v.to_text() if central else ratio_text(*v)
                 for f, v in special.items()}
        walls = [{"src": src, "direction": k + 1, "dst": dst,
                  "images": [texts[f] for f in images]}
                 for src, k, dst, images in maps]
    except ValueError:
        _fail(EXIT_INPUT, f"--at {at_text!r}: the specialized maps have "
              f"numbers of more than {sys.get_int_max_str_digits()} digits, "
              "too long to print")
    if as_json:
        _echo_json({"at": at, "walls": walls})
    else:
        kind = ("toric gluing of the central fiber" if central
                else "fiber transition maps")
        lines = [f"{kind} at ({', '.join(at)})"]
        for w in walls:
            lines.append(f"wall cone {w['src']} --{w['direction']}--> "
                         f"cone {w['dst']}")
            lines += [f"  X{i + 1} -> {img}"
                      for i, img in enumerate(w["images"])]
        _echo("\n".join(lines))
    sys.exit(EXIT_OK)


# -- table --------------------------------------------------------------------


@main.command()
@click.argument("which", type=click.Choice(["a2", "a2-principal", "gr25",
                                            "dp5"]))
@click.option("--format", "fmt", type=click.Choice(["text", "csv", "json"]),
              default="text", show_default=True)
def table(which, fmt):
    """Reproduce a stored table (text output is byte-identical to the
    golden file)."""
    texts = {
        "a2": corpus.a2_table_text,
        "a2-principal": corpus.a2_principal_table_text,
        "gr25": corpus.gr25_table_text,
        "dp5": corpus.dp5_table_text,
    }
    if fmt == "text":
        _echo(texts[which](), nl=False)
        sys.exit(EXIT_OK)
    if which in ("a2", "a2-principal"):
        rows = table_rows(corpus.a2_exchange(), corpus.PENTAGON_PATH)
        if fmt == "csv":
            _echo(rows_to_csv(rows), nl=False)
        else:
            _echo_json(rows)
        sys.exit(EXIT_OK)
    if fmt == "csv":
        _fail(EXIT_INPUT, f"table {which}: csv rows are only defined for "
              "the pentagon tables (a2, a2-principal)")
    try:
        report = corpus.run_gr25() if which == "gr25" else corpus.run_dp5()
    except (CheckFailed, ExactAlgebraError) as exc:
        _fail(EXIT_VERIFY, f"table {which}: {exc}")
    _echo_json(report)
    sys.exit(EXIT_OK)


# -- star ---------------------------------------------------------------------


@main.command(name="star")
@click.option("--fan", "fan_path", required=True, help="atlas JSON from fan")
@click.option("--tau", required=True, help="face to star at, as ray:I "
              "(1-based index into the file's ray list)")
@click.option("--json", "as_json", is_flag=True)
def star_cmd(fan_path, tau, as_json):
    """Print the star of a fan face: base cone, quotient coordinates, and
    the projected cones."""
    obj = _load_json_file(fan_path, "fan")
    if not tau.startswith("ray:"):
        _fail(EXIT_INPUT, f"--tau {tau!r} must look like ray:I")
    try:
        ray_index = int(tau.split(":", 1)[1])
    except ValueError:
        _fail(EXIT_INPUT, f"--tau {tau!r}: index is not an integer")
    try:
        atlas = fan_from_json(obj, ray_index - 1)
    except InfiniteType as exc:
        _fail(EXIT_UNFINISHED, f"fan file {fan_path} is marked complete, "
                               "but its stored seed is of infinite type: "
                               f"{exc}")
    except IndexError as exc:
        _fail(EXIT_INPUT, f"--tau ray:{ray_index} {exc}")
    except (CheckFailed, TypeError, ValueError) as exc:
        _fail(EXIT_INPUT, f"fan file {fan_path} is malformed or stale: {exc}")
    ray = tuple(obj["rays"][ray_index - 1])
    try:
        st = star(atlas, [ray])
    except CheckFailed as exc:
        _fail(EXIT_VERIFY, str(exc))
    restricted = st.restricted.B if st.restricted else ()
    data = {
        "ray": list(ray),
        "base_cone_path": [k + 1 for k in st.base.path],
        "quotient_rows": [list(r) for r in st.quotient_rows],
        "projected_cones": [{"cone": idx, "generators": [list(g) for g in gens]}
                            for idx, gens in st.proj_cones],
        "restricted_matrix": [list(r) for r in restricted],
    }
    if as_json:
        _echo_json(data)
    else:
        _echo(f"star of ray {ray}")
        _echo("base cone path: "
              + (",".join(str(k) for k in data["base_cone_path"])
                 or "(initial)"))
        _echo(f"quotient rows: {corpus.mat_text(st.quotient_rows)}")
        for pc in data["projected_cones"]:
            gens = ", ".join(str(tuple(g)) for g in pc["generators"])
            _echo(f"cone {pc['cone']}: {gens}")
        _echo(f"restricted matrix: {corpus.mat_text(restricted)}")
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
