"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import importlib.util
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "cluster_forge")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def _module_imports(tree):
    """Names bound by the module's top-level import statements, with the
    line of each; ``from __future__`` imports bind nothing usable."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})"
                    for name, line in _module_imports(tree).items()
                    if name not in used)
    assert not unused, f"{module} imports but never uses: {', '.join(unused)}"


ROOT = os.path.join(PACKAGE, "..", "..")


def _is_click_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in getattr(node, "decorator_list", ()))


def _source_trees(tops=("src", "tests", "bench")):
    """The parsed Python files of src/, tests/ and bench/, or of ``tops``."""
    for top in tops:
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for f in files:
                if f.endswith(".py"):
                    with open(os.path.join(dirpath, f),
                              encoding="utf-8") as fh:
                        yield ast.parse(fh.read(), filename=f)


@pytest.fixture(scope="module")
def names_used():
    """Every identifier, attribute name and string constant in the Python
    files of src/, tests/ and bench/, except a module-level definition's
    uses of its own name inside its own body."""
    used = set()
    for tree in _source_trees():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    name = node.value
                else:
                    continue
                if name != own:
                    used.add(name)
    return used


@pytest.mark.parametrize("module", MODULES)
def test_module_level_definitions_are_used(module, names_used):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not _is_click_command(node)]
    unused = sorted(name for name in defined if name not in names_used)
    assert not unused, f"{module} defines but nothing uses: {', '.join(unused)}"


def _called_name(func):
    return getattr(func, "id", getattr(func, "attr", None))


def _calls_by_name(trees):
    """For every call in the parsed modules ``trees``, keyed by the called
    name: the number of positional arguments, the keyword names, and
    whether ``*args`` or ``**kwargs`` is passed.  ``partial(f, *args,
    **kw)`` is also a call of ``f``, with the arguments after ``f``."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name, args = _called_name(node.func), node.args
            called = [(name, args)]
            if name == "partial" and args:
                called.append((_called_name(args[0]), args[1:]))
            keywords = {k.arg for k in node.keywords}
            for name, args in called:
                starred = (any(isinstance(a, ast.Starred) for a in args)
                           or None in keywords)
                calls.setdefault(name, []).append(
                    (len(args), keywords - {None}, starred))
    return calls


def test_partial_is_read_as_a_call_of_its_function():
    tree = ast.parse(
        "partial(cocycle_check, fam, faces=closed)\n"
        "functools.partial(obj.run, *rest, **kw)\n")
    calls = _calls_by_name([tree])
    assert calls["cocycle_check"] == [(1, {"faces"}, False)]
    assert calls["run"] == [(1, set(), True)]
    assert calls["partial"] == [(2, {"faces"}, False), (2, set(), True)]


def _defaulted_parameters(tree):
    """(function name, names a call may use, parameter, its position or
    None for keyword-only) for every defaulted parameter of a function or
    method.  A method's position discounts ``self``; ``__init__`` is also
    called by its class's name."""
    in_class = {id(fn): cls for cls in ast.walk(tree)
                if isinstance(cls, ast.ClassDef) for fn in cls.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        cls = in_class.get(id(fn))
        static = any(getattr(d, "id", None) == "staticmethod"
                     for d in fn.decorator_list)
        offset = 1 if cls is not None and not static else 0
        names = {fn.name}
        if cls is not None and fn.name == "__init__":
            names.add(cls.name)
        a = fn.args
        pos = a.posonlyargs + a.args
        for i in range(len(pos) - len(a.defaults), len(pos)):
            yield fn.name, names, pos[i].arg, i - offset
        for p, d in zip(a.kwonlyargs, a.kw_defaults):
            if d is not None:
                yield fn.name, names, p.arg, None


def test_every_defaulted_parameter_is_passed_somewhere():
    """A defaulted parameter that no call in src/, tests/ or bench/ passes,
    by keyword or by position, is a knob nobody turns.  Calls are matched
    by function name, and one with ``*args`` or ``**kwargs`` passes every
    parameter."""
    calls = _calls_by_name(_source_trees())
    unused = []
    for module in MODULES:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=module)
        for fname, names, param, pos in _defaulted_parameters(tree):
            if not any(starred or param in kws
                       or (pos is not None and npos > pos)
                       for name in names for npos, kws, starred
                       in calls.get(name, ())):
                unused.append(f"{module}: {fname}({param}=)")
    assert not unused, f"defaulted but never passed: {', '.join(unused)}"


def _cli_options(tree):
    """(command, option) for every click option of every command in the
    parsed module, the option by its first name.  A decorator that is not
    an attribute call, such as ``@staticmethod`` or ``@wrap("x")``, is
    neither."""
    for fn in tree.body:
        if not _is_click_command(fn):
            continue
        command, options = fn.name, []
        for d in fn.decorator_list:
            if not (isinstance(d, ast.Call)
                    and isinstance(d.func, ast.Attribute)):
                continue
            if d.func.attr == "command":
                command = next((k.value.value for k in d.keywords
                                if k.arg == "name"), fn.name)
            elif d.func.attr == "option":
                options.append(d.args[0].value)
        for option in options:
            yield command, option


def _invocations():
    """For every call, list and tuple in the Python files of tests/ and
    bench/, the string constants among its direct arguments or elements,
    an f-string by its leading text and ``--option=value`` as ``--option``."""
    for tree in _source_trees(("tests", "bench")):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                elts = node.args
            elif isinstance(node, (ast.List, ast.Tuple)):
                elts = node.elts
            else:
                continue
            words = set()
            for e in elts:
                if isinstance(e, ast.JoinedStr) and e.values:
                    e = e.values[0]
                if isinstance(e, ast.Constant) and isinstance(e.value, str):
                    words.add(e.value.split("=", 1)[0])
            if words:
                yield words


def test_cli_options_skip_plain_decorators():
    tree = ast.parse(
        '@main.command(name="run")\n'
        '@_budget("x")\n'
        '@staticmethod\n'
        '@click.option("--fast", is_flag=True)\n'
        'def run_cmd(fast):\n'
        '    pass\n')
    assert list(_cli_options(tree)) == [("run", "--fast")]


def test_every_cli_option_is_passed_somewhere():
    """A click option that no test or bench/ invocation passes together
    with its command's name is a knob nobody turns."""
    with open(os.path.join(PACKAGE, "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename="cli.py")
    invocations = list(_invocations())
    unused = [f"{command} {option}" for command, option in _cli_options(tree)
              if not any({command, option} <= words for words in invocations)]
    assert not unused, f"options never passed: {', '.join(unused)}"


def _process_wide_state(tree):
    """(line, what) for every ``global`` statement and every use of
    ``functools.cache`` or ``lru_cache`` in the parsed module: state that
    outlives the objects a caller creates and discards."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield node.lineno, f"global {', '.join(node.names)}"
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools"
              and node.attr in ("cache", "lru_cache")):
            yield node.lineno, f"functools.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in ("cache", "lru_cache"):
                    yield node.lineno, f"from functools import {alias.name}"
        elif isinstance(node, ast.Name) and node.id == "lru_cache":
            yield node.lineno, "lru_cache"


def test_process_wide_state_is_detected():
    tree = ast.parse(
        "import functools\n"
        "from functools import lru_cache, reduce\n"
        "TABLE = {1: 2}\n"
        "@functools.cache\n"
        "def f():\n"
        "    global TABLE\n"
        "    return TABLE\n")
    assert sorted(_process_wide_state(tree)) == [
        (2, "from functools import lru_cache"),
        (4, "functools.cache"),
        (6, "global TABLE"),
    ]


def test_no_process_wide_caches_in_src():
    """Every memo in src/ is owned by an object its caller discards, such
    as a ``Family``, so no cached value outlives the work it served.
    Module-level constant tables are not memos and are allowed."""
    found = []
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=f)
                found += [f"{f}:{line}: {what}"
                          for line, what in _process_wide_state(tree)]
    assert not found, f"process-wide state in src/: {', '.join(found)}"


def _imported_modules(tree):
    """The top-level package of every import statement anywhere in the
    parsed module, function bodies included; relative imports name none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif (isinstance(node, ast.ImportFrom) and node.module
              and not node.level):
            yield node.module.split(".")[0]


def test_imported_modules_are_detected():
    tree = ast.parse(
        "import os.path\n"
        "from .exact_algebra import LaurentPoly\n"
        "def f():\n"
        "    from fractions import Fraction\n"
        "    import fractions as fr\n")
    assert list(_imported_modules(tree)) == ["os", "fractions", "fractions"]


#: The modules that may call each trusted constructor, which sets the slots
#: without the checks of the validating one.  The rule each caller relies on
#: is in the docstrings of ``exact_algebra``, ``TropMonomial._new`` and
#: ``ExchangeData._new``.
TRUSTED_CALLERS = {
    "LaurentPoly": {"exact_algebra.py", "degeneration.py"},
    "PosRatFunc": {"exact_algebra.py", "degeneration.py", "semifields.py"},
    "TropMonomial": {"semifields.py"},
    "ExchangeData": {"seeds.py"},
}


def _trusted_calls(tree):
    """The class of every ``_new`` call in the parsed module: the enclosing
    class for ``cls._new``, otherwise the text it is called on."""
    owner = {id(node): cls.name for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) for node in ast.walk(cls)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "_new"):
            on = ast.unparse(node.func.value)
            yield owner[id(node)] if on == "cls" else on


def test_trusted_calls_are_detected():
    tree = ast.parse(
        "class A:\n"
        "    @classmethod\n"
        "    def one(cls):\n"
        "        return cls._new(())\n"
        "def f(x):\n"
        "    return B._new(x), x.y._new(), C(x)\n")
    assert sorted(_trusted_calls(tree)) == ["A", "B", "x.y"]


def test_trusted_constructors_are_called_only_where_allowed():
    """Each trusted constructor is called from exactly the modules that
    ``TRUSTED_CALLERS`` lists for it, so a new caller, or a new trusted
    constructor, arrives with its entry and the rule it relies on."""
    found = {}
    for module in MODULES:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=module)
        for cls in _trusted_calls(tree):
            found.setdefault(cls, set()).add(module)
    assert found == TRUSTED_CALLERS


#: The engine computes in integers; rationals enter only at the base-point
#: boundary: the ``--at`` option and the points of ``fiber_iso_check``.
FRACTIONS_ALLOWED = {"cli.py", "degeneration.py"}


@pytest.mark.parametrize("module", sorted(set(MODULES) - FRACTIONS_ALLOWED))
def test_only_the_base_point_boundary_imports_fractions(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    assert "fractions" not in set(_imported_modules(tree)), (
        f"{module} imports fractions; only "
        f"{', '.join(sorted(FRACTIONS_ALLOWED))} may")


def _mutants():
    path = os.path.join(os.path.dirname(__file__), "mutants.py")
    spec = importlib.util.spec_from_file_location("mutants", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_defined(test):
    """A test id names a test defined in its file, and a row id in brackets
    is written there as a string."""
    test_file, name = test.split("::")
    name, _, row = name.partition("[")
    with open(os.path.join(ROOT, test_file), encoding="utf-8") as fh:
        text = fh.read()
    assert f"\ndef {name}(" in text, f"{test} is not defined"
    assert not row or f'"{row[:-1]}"' in text, f"{test}: no such row id"


def test_each_mutant_site_occurs_once():
    """Every committed mutant's old text occurs exactly once in its file,
    and every test named to kill it is defined where its id says."""
    for path, old, new, tests in _mutants().MUTANTS:
        assert old != new
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            count = fh.read().count(old)
        assert count == 1, f"{path}: {old.strip()!r} occurs {count} times"
        for test in tests:
            _assert_defined(test)


def test_check_sites_are_detected():
    tree = ast.parse(
        "def f(x):\n"
        "    if x:\n"
        "        raise CheckFailed(f'x is {x + 1}, not {0}')\n"
        "    raise ValueError('not a check')\n"
        "class C:\n"
        "    def m(self):\n"
        "        def inner():\n"
        "            raise CheckFailed('a' 'b')\n"
        "        raise CheckFailed('c')\n")
    assert _mutants().sites_in(tree) == [
        ("f", "x is {x + 1}, not {0}", 3, 8),
        ("C.m.inner", "ab", 8, 12),
        ("C.m", "c", 9, 8),
    ]


def test_every_check_site_has_one_entry():
    """``CHECK_SITES`` has one entry for each ``raise CheckFailed(`` in
    src/, written once, and each is a list naming defined killing tests, so
    a new check arrives with its entry and a test that kills it."""
    mutants = _mutants()
    sites = [key for key, _, _ in mutants.check_sites()]
    assert len(sites) == len(set(sites)), "two sites share a key"
    missing = sorted(set(sites) - set(mutants.CHECK_SITES))
    stale = sorted(set(mutants.CHECK_SITES) - set(sites))
    assert not missing, f"sites without an entry: {missing}"
    assert not stale, f"entries without a site: {stale}"
    with open(os.path.join(ROOT, "tests", "mutants.py"),
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    literal, = (node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "CHECK_SITES")
    assert len(literal.keys) == len(mutants.CHECK_SITES), "a key is repeated"
    for key, tests in mutants.CHECK_SITES.items():
        assert isinstance(tests, list) and tests, f"{key}: no killing test"
        for test in tests:
            _assert_defined(test)


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statements_in_src(module):
    """``python -O`` strips an assert, so a check in src/ raises instead."""
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines, f"{module}: assert statements on lines {lines}"
