"""Hygiene of the package, checked with the standard library's ``ast``.

Every module imports at module level only, and reads every name it imports
there.  ``__init__.py`` re-exports what it imports and is exempt from the
second rule; ``from __future__ import annotations`` binds no name.  No
module uses an ``assert`` statement, which ``python -O`` strips: a check
that must hold raises an error of the package.  No tolerance gate that
raises is written ``if err > tol``, ``if p < -TOL``, ``if total > bound +
1e-12`` or ``if x < 0``, which a NaN passes: it is written
``if not err <= tol``, which a NaN fails.  ``numbers.Integral`` is read only
inside ``registers.is_integer``, the one integer test, which refuses the
bools that ``numbers.Integral`` admits; nor is an integer tested with a bare
``isinstance(x, int)``, which admits bools and refuses numpy integers (a
tuple of types, as in a type dispatch, is allowed).  No module but
``registers`` and ``states`` imports ``is_integer``: an integer input is
checked with ``registers.require_integer``, which refuses it naming it.
No module but ``registers`` reads ``math.isfinite`` or ``numbers.Real``: a
real input is checked with ``registers.require_real`` and a probability
vector with ``registers.require_distribution`` (numpy's array
``np.isfinite`` checks are not scalar rules and stay where they are).
No ``.dim`` is compared with an integer literal above 1: sizes are capped
only through the budget helpers of ``states`` (``dim < 1`` checks stay).
Every module-level private name (one leading underscore, not a dunder) is
read by some module of the package, so that a deletion leaves no orphaned
helper behind.  No class defines ``to_dict``: a record reaches JSON through
``serialize.jsonable``, which emits its dataclass fields.  No call passes
``type=int``, which refuses ``--k 2.5`` as an "invalid int value": an
integer flag parses through ``cli._integer_flag``, which names the field
and its floor.  ``time.time`` is read only in ``cli.main``, which starts a
run's clock, and ``cli._emit``, which reads it into ``meta``: a subcommand
returns a ``cli.Run`` and neither times nor prints it.  A file is
written (``write_text``, ``write_bytes``, ``mkdir`` or ``open`` in a write
mode) only in ``cli._emit`` and ``cli._write_csv``: a subcommand returns
the files it writes in its ``cli.Run``.  A state's matrices are checked
hermitian and positive (``_check_hermitian``, ``_check_positive``) only in
``states.DensityState.__post_init__`` and ``states._checked_blocks``, the
two places a state is checked, once, when it is built.  No module imports
``concurrent`` or ``multiprocessing``: restarts and fuzz trials run in
order, in the calling thread.  No function body or parameter default holds
a nonzero float literal below ``SMALL_LITERAL`` in magnitude: a threshold
is named once, at module level, in the module whose invariant it guards.
Every public function with a ``tol`` parameter passes it through
``registers.require_real``, which refuses NaN, a negative value, a string
and a bool naming it.  No module but ``registers`` calls ``Party(...)``: a
party name is read by ``registers.require_member``, by its exact value.
README's Tolerances table matches the code: each row names a module-level
constant of the stated module, at the stated value, and every tolerance
constant of the package has a row or is named in the paragraph under it.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nmk"
MODULES = sorted(PACKAGE.glob("*.py"))
README = PACKAGE.parents[1] / "README.md"


def _bound_names(node):
    """The names an import statement binds, with their line numbers."""
    for alias in node.names:
        if alias.name == "annotations" and getattr(node, "module", None) == "__future__":
            continue
        name = alias.asname or alias.name.split(".")[0]
        yield name, node.lineno


def _read_names(tree):
    """Every name the module reads.  A string that parses as an expression
    counts too, so that a quoted annotation ("ChannelMap | None") is read."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


def _is_tolerance(node):
    """The literal 0, or an expression holding a float literal or a name
    ending in TOL, tol or FLOOR (``-TOL``, ``bound + 1e-12``)."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value == 0
    return any(
        (isinstance(n, ast.Constant) and isinstance(n.value, float))
        or (isinstance(n, ast.Name) and n.id.endswith(("TOL", "tol", "FLOOR")))
        for n in ast.walk(node)
    )


def _nan_blind_gate(node):
    """Whether ``node`` is an ``if`` whose body raises and whose test compares
    with ``>`` or ``<`` against a tolerance: a NaN makes that test False, so
    the gate lets it through."""
    if not isinstance(node, ast.If):
        return False
    if not any(isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt)):
        return False
    for cmp in ast.walk(node.test):
        if isinstance(cmp, ast.Compare):
            operands = [cmp.left, *cmp.comparators]
            for op, left, right in zip(cmp.ops, operands, operands[1:]):
                strict = isinstance(op, (ast.Gt, ast.Lt))
                if strict and (_is_tolerance(left) or _is_tolerance(right)):
                    return True
    return False


def _functions(tree, prefix=""):
    """Every function of ``tree`` with its qualified name, as Python spells
    it (``Class.method``, ``outer.<locals>.inner``)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", node
            yield from _functions(node, f"{prefix}{node.name}.<locals>.")
        else:
            yield from _functions(node, prefix)


def _outside(tree, names):
    """The nodes of ``tree`` outside any function whose qualified name is
    in ``names``."""
    inside = {
        id(n) for name, func in _functions(tree) if name in names for n in ast.walk(func)
    }
    return [node for node in ast.walk(tree) if id(node) not in inside]


def _integral_reads(tree):
    """The line numbers where ``Integral`` is read outside ``is_integer``."""
    return sorted(
        node.lineno
        for node in _outside(tree, {"is_integer"})
        if (isinstance(node, ast.Attribute) and node.attr == "Integral")
        or (isinstance(node, ast.Name) and node.id == "Integral")
    )


def _bare_int_checks(tree):
    """The line numbers of ``isinstance(x, int)`` calls outside
    ``is_integer``; a tuple of types, as in a type dispatch, is allowed."""
    return sorted(
        node.lineno
        for node in _outside(tree, {"is_integer"})
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and isinstance(node.args[1], ast.Name)
        and node.args[1].id == "int"
    )


def _size_caps(tree):
    """The line numbers of comparisons between a ``.dim`` attribute and an
    integer literal above 1: a size cap written outside the budget."""
    lines = set()
    for cmp in ast.walk(tree):
        if isinstance(cmp, ast.Compare):
            operands = [cmp.left, *cmp.comparators]
            for pair in zip(operands, operands[1:]):
                if any(isinstance(n, ast.Attribute) and n.attr == "dim" for n in pair) and any(
                    isinstance(n, ast.Constant) and type(n.value) is int and n.value > 1
                    for n in pair
                ):
                    lines.add(cmp.lineno)
    return sorted(lines)


def _is_integer_imports(tree):
    """The line numbers of imports that bind ``is_integer``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and any(a.name == "is_integer" for a in node.names)
    )


#: The scalar real tests that only ``registers`` reads, as (module, name).
REAL_TESTS = {("math", "isfinite"), ("numbers", "Real")}


def _real_test_reads(tree):
    """The line numbers where ``math.isfinite`` or ``numbers.Real`` is read,
    as an attribute or through a ``from`` import."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) in REAL_TESTS
        )
        or (
            isinstance(node, ast.ImportFrom)
            and any((node.module, a.name) in REAL_TESTS for a in node.names)
        )
    )


def _clock_reads(tree, readers):
    """The line numbers where ``time.time`` is read, as an attribute or
    through a ``from`` import, outside the functions named in ``readers``."""
    return sorted(
        node.lineno
        for node in _outside(tree, readers)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) == ("time", "time")
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "time"
            and any(a.name == "time" for a in node.names)
        )
    )


#: The path methods that write to the file system.
WRITE_METHODS = {"write_text", "write_bytes", "mkdir"}


def _opens_for_writing(node):
    """Whether ``node`` calls ``open`` or a ``.open`` method in a mode that
    writes; a mode that is no string literal counts as one."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name) and node.func.id == "open":
        position = 1
    elif isinstance(node.func, ast.Attribute) and node.func.attr == "open":
        position = 0
    else:
        return False
    modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[position:][:1]
    return any(
        not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
        or set(mode.value) & set("wax+")
        for mode in modes
    )


def _file_writes(tree, writers):
    """The line numbers of file writes outside the functions named in
    ``writers``: a call of a ``WRITE_METHODS`` method or a writing ``open``."""
    return sorted(
        node.lineno
        for node in _outside(tree, writers)
        if _opens_for_writing(node)
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in WRITE_METHODS
        )
    )


#: The functions that check a state's matrices.
STATE_CHECKS = {"_check_hermitian", "_check_positive"}


def _state_checks(tree, checkers):
    """The line numbers and names of calls of a ``STATE_CHECKS`` function,
    by name or as an attribute, outside the functions named in ``checkers``."""
    calls = []
    for node in _outside(tree, checkers):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in STATE_CHECKS:
                calls.append((node.lineno, name))
    return sorted(calls)


#: The packages that start threads or processes, which no module imports.
POOL_PACKAGES = {"concurrent", "multiprocessing"}


def _pool_imports(tree):
    """The line numbers and package names of imports from a ``POOL_PACKAGES``
    package or any of its submodules."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        packages = {m.split(".")[0] for m in modules} & POOL_PACKAGES
        found += [(node.lineno, package) for package in sorted(packages)]
    return sorted(found)


def _party_calls(tree):
    """The line numbers of calls to ``Party``, by name or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "Party" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


#: Below this magnitude a float literal is a threshold, named at module level.
SMALL_LITERAL = 1e-6


def _bare_thresholds(tree):
    """The line numbers and values of nonzero float literals below
    ``SMALL_LITERAL`` in magnitude inside a function, its defaults included."""
    found = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Constant)
                    and type(node.value) is float
                    and 0 < abs(node.value) < SMALL_LITERAL
                ):
                    found[id(node)] = (node.lineno, node.value)
    return sorted(found.values())


def _passes_tol_to_require_real(node):
    """Whether ``node`` calls ``require_real`` with the name ``tol``."""
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "require_real"
        and any(isinstance(a, ast.Name) and a.id == "tol" for a in node.args)
    )


def _unchecked_tols(tree):
    """The line numbers and qualified names of public functions (no part of
    the name private, none local) with a ``tol`` parameter that they never
    pass to ``require_real``."""
    found = []
    for name, func in _functions(tree):
        parts = name.split(".")
        if "<locals>" in parts or any(p.startswith("_") and not p.startswith("__") for p in parts):
            continue
        args = func.args
        if "tol" not in {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
            continue
        if not any(_passes_tol_to_require_real(node) for node in ast.walk(func)):
            found.append((func.lineno, name))
    return sorted(found)


def _int_flag_types(tree):
    """The line numbers of calls passing the keyword ``type=int``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.keyword)
        and node.arg == "type"
        and isinstance(node.value, ast.Name)
        and node.value.id == "int"
    )


def lint(
    source: str,
    exempt_unused: bool = False,
    tests_integers: bool = False,
    tests_reals: bool = False,
    clock_readers: frozenset = frozenset(),
    file_writers: frozenset = frozenset(),
    state_checkers: frozenset = frozenset(),
    reads_parties: bool = False,
) -> list[str]:
    """Problems in one module's source: imports inside a function,
    module-level imports whose names the module never reads, ``assert``
    statements, tolerance gates that a NaN passes, integer tests that
    bypass ``is_integer`` (``numbers.Integral`` or a bare ``int``), imports
    of ``is_integer`` unless ``tests_integers``, reads of ``math.isfinite``
    or ``numbers.Real`` unless ``tests_reals``, size caps that bypass the
    budget, ``to_dict`` methods, ``type=int`` flags, reads of
    ``time.time`` outside the functions named in ``clock_readers``, file
    writes outside those named in ``file_writers``, state checks outside
    those named in ``state_checkers``, imports of ``concurrent`` or
    ``multiprocessing`` and calls of ``Party`` unless ``reads_parties``."""
    tree = ast.parse(source)
    problems = [
        f"line {lineno}: numbers.Integral outside is_integer(), which admits bools"
        for lineno in _integral_reads(tree)
    ]
    problems += [
        f"line {lineno}: isinstance(x, int) outside is_integer(), which admits bools "
        "and refuses numpy integers"
        for lineno in _bare_int_checks(tree)
    ]
    problems += [
        f"line {lineno}: is_integer imported; check an integer input with "
        "registers.require_integer"
        for lineno in ([] if tests_integers else _is_integer_imports(tree))
    ]
    problems += [
        f"line {lineno}: scalar real test outside registers; check a real with "
        "registers.require_real and weights with registers.require_distribution"
        for lineno in ([] if tests_reals else _real_test_reads(tree))
    ]
    problems += [
        f"line {lineno}: .dim compared with a literal size; cap sizes with the budget"
        for lineno in _size_caps(tree)
    ]
    problems += [
        f"line {lineno}: type=int flag; parse an integer flag through cli._integer_flag"
        for lineno in _int_flag_types(tree)
    ]
    problems += [
        f"line {lineno}: time.time read outside cli.main and cli._emit; "
        "a subcommand returns a cli.Run, which main times"
        for lineno in _clock_reads(tree, clock_readers)
    ]
    problems += [
        f"line {lineno}: file written outside cli._emit and cli._write_csv; "
        "a subcommand returns its files in a cli.Run"
        for lineno in _file_writes(tree, file_writers)
    ]
    problems += [
        f"line {lineno}: {name} outside DensityState.__post_init__ and _checked_blocks; "
        "a state is checked once, when it is built"
        for lineno, name in _state_checks(tree, state_checkers)
    ]
    problems += [
        f"line {lineno}: {name} imported; restarts and trials run in the calling thread"
        for lineno, name in _pool_imports(tree)
    ]
    problems += [
        f"line {lineno}: Party(...) outside registers; read a party name with "
        "registers.require_member"
        for lineno in ([] if reads_parties else _party_calls(tree))
    ]
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            problems += [
                f"line {item.lineno}: {node.name}.to_dict; records reach JSON "
                "through serialize.jsonable"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "to_dict"
            ]
        if isinstance(node, ast.Assert):
            problems.append(f"line {node.lineno}: assert, which python -O strips")
        if _nan_blind_gate(node):
            problems.append(f"line {node.lineno}: tolerance gate that a NaN passes")
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    problems.append(f"line {node.lineno}: import inside {func.name}()")
    if not exempt_unused:
        read = _read_names(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for name, lineno in _bound_names(node):
                    if name not in read:
                        problems.append(f"line {lineno}: {name!r} is imported but never read")
    return problems


def threshold_problems(source: str) -> list[str]:
    """Tolerance problems in one module's source: bare thresholds in
    functions, and public functions that take a ``tol`` unchecked."""
    tree = ast.parse(source)
    problems = [
        f"line {lineno}: bare threshold {value!r}; name it once at module level, "
        "in the module whose invariant it guards"
        for lineno, value in _bare_thresholds(tree)
    ]
    return problems + [
        f"line {lineno}: {name} takes tol unchecked; pass it through registers.require_real"
        for lineno, name in _unchecked_tols(tree)
    ]


def _private_definitions(tree):
    """The module-level private names a module defines (one leading
    underscore, not a dunder), with their line numbers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _loaded_names(tree):
    """The names and attribute names a module reads (not the ones it binds)."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def orphans(sources: dict) -> list[str]:
    """The module-level private names of ``sources`` (file name -> source)
    that no source reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*map(_loaded_names, trees.values()))
    return [
        f"{name} line {lineno}: {private!r} is read by no module"
        for name, tree in trees.items()
        for private, lineno in _private_definitions(tree)
        if private not in read
    ]


def test_no_orphaned_private_names():
    assert orphans({path.name: path.read_text() for path in MODULES}) == []


def test_lint_catches_orphaned_private_names():
    sources = {
        "a.py": (
            "import b\n"
            "_LIMIT = 3\n"
            "_unused: int = 4\n"
            "__version__ = '1'\n"
            "def _helper():\n"
            "    return _LIMIT + b._shared()\n"
            "def _orphan():\n"
            "    _local = 1\n"
            "    return _local\n"
            "class _Gone:\n"
            "    _flag = 1\n"
        ),
        "b.py": (
            "from a import _helper\n"
            "def _shared():\n"
            "    return 1\n"
            "def run():\n"
            "    return _helper()\n"
        ),
    }
    assert orphans(sources) == [
        "a.py line 3: '_unused' is read by no module",
        "a.py line 7: '_orphan' is read by no module",
        "a.py line 10: '_Gone' is read by no module",
    ]


#: The modules that test integers themselves: ``registers`` defines the test
#: and ``require_integer``; ``states.BlockState`` bounds its values above too.
INTEGER_TESTERS = {"registers.py", "states.py"}

#: The functions that read the wall clock: ``cli.main`` starts a run's clock
#: and ``cli._emit`` reads it into ``meta``.
CLOCK_READERS = {"cli.py": frozenset({"main", "_emit"})}

#: The functions that write files: ``cli._emit`` writes a run's files and
#: its CSV through ``cli._write_csv``.
FILE_WRITERS = {"cli.py": frozenset({"_emit", "_write_csv"})}

#: The functions that check a state's matrices: a dense state checks itself
#: when it is built, and a block state through ``_checked_blocks``.
STATE_CHECKERS = {"states.py": frozenset({"DensityState.__post_init__", "_checked_blocks"})}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports(path):
    problems = lint(
        path.read_text(),
        exempt_unused=path.name == "__init__.py",
        tests_integers=path.name in INTEGER_TESTERS,
        tests_reals=path.name == "registers.py",
        clock_readers=CLOCK_READERS.get(path.name, frozenset()),
        file_writers=FILE_WRITERS.get(path.name, frozenset()),
        state_checkers=STATE_CHECKERS.get(path.name, frozenset()),
        reads_parties=path.name == "registers.py",
    )
    assert problems == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_thresholds(path):
    assert threshold_problems(path.read_text()) == []


def test_lint_catches_unused_and_local_imports():
    source = (
        "from __future__ import annotations\n"
        "from dataclasses import dataclass, field\n"
        "import numpy as np\n"
        "def f():\n"
        "    import math\n"
        "    return np.zeros(1), math.pi\n"
        "@dataclass\n"
        "class C:\n"
        "    x: 'np.ndarray'\n"
    )
    assert lint(source) == [
        "line 5: import inside f()",
        "line 2: 'field' is imported but never read",
    ]


def test_lint_catches_assert():
    source = "def f(x):\n    assert x > 0\n    return x\n"
    assert lint(source) == ["line 2: assert, which python -O strips"]


def test_lint_catches_integral_outside_is_integer():
    source = (
        "import numbers\n"
        "from numbers import Integral\n"
        "def is_integer(value):\n"
        "    return isinstance(value, numbers.Integral) and not isinstance(value, bool)\n"
        "def f(n):\n"
        "    if not isinstance(n, numbers.Integral):\n"
        "        raise ValueError(n)\n"
        "    return isinstance(n, Integral)\n"
    )
    assert lint(source) == [
        "line 6: numbers.Integral outside is_integer(), which admits bools",
        "line 8: numbers.Integral outside is_integer(), which admits bools",
    ]


def test_lint_catches_bare_int_checks():
    source = (
        "def is_integer(value):\n"
        "    return isinstance(value, int) and not isinstance(value, bool)\n"
        "def f(n, obj):\n"
        "    if not isinstance(n, int):\n"
        "        raise ValueError(n)\n"
        "    if isinstance(obj, (int, float)) and not isinstance(obj, bool):\n"
        "        return obj\n"
        "    return isinstance(obj, (bool, int, float, str))\n"
    )
    assert lint(source) == [
        "line 4: isinstance(x, int) outside is_integer(), which admits bools "
        "and refuses numpy integers",
    ]


def test_lint_catches_is_integer_imports():
    source = (
        "from .registers import Register, is_integer\n"
        "from nmk.registers import is_integer as integral\n"
        "from .registers import require_integer\n"
        "def f(n):\n"
        "    return is_integer(n) and integral(n) and require_integer('n', n, 1) and Register\n"
    )
    message = "is_integer imported; check an integer input with registers.require_integer"
    assert lint(source) == [f"line 1: {message}", f"line 2: {message}"]
    assert lint(source, tests_integers=True) == []


def test_lint_catches_real_tests_outside_registers():
    source = (
        "import math\n"
        "import numbers\n"
        "from math import isfinite as finite, log2\n"
        "from numbers import Real\n"
        "import numpy as np\n"
        "def f(tol, p):\n"
        "    ok = isinstance(tol, numbers.Real) and math.isfinite(tol)\n"
        "    return ok and finite(p) and Real and np.isfinite(p).all() and log2(2)\n"
    )
    message = (
        "scalar real test outside registers; check a real with registers.require_real "
        "and weights with registers.require_distribution"
    )
    assert lint(source) == [f"line {n}: {message}" for n in (3, 4, 7, 7)]
    assert lint(source, tests_reals=True) == []


def test_lint_catches_nan_blind_gates():
    source = (
        "TOL = 1e-9\n"
        "def f(err, p, tol):\n"
        "    if err > tol:\n"
        "        raise ValueError(err)\n"
        "    if any(q < -TOL for q in p) or abs(sum(p) - 1) > 1e-10:\n"
        "        raise ValueError(p)\n"
        "    if not err <= tol:\n"
        "        raise ValueError(err)\n"
        "    if err > tol:\n"
        "        return None\n"
        "    if len(p) > 3:\n"
        "        raise ValueError(p)\n"
        "    if sum(p) > len(p) + 1e-12:\n"
        "        raise ValueError(p)\n"
        "    if err < 0:\n"
        "        raise ValueError(err)\n"
        "    if not err >= 0:\n"
        "        raise ValueError(err)\n"
        "    return err\n"
    )
    assert lint(source) == [
        "line 3: tolerance gate that a NaN passes",
        "line 5: tolerance gate that a NaN passes",
        "line 13: tolerance gate that a NaN passes",
        "line 15: tolerance gate that a NaN passes",
    ]


def test_lint_catches_hard_coded_size_caps():
    # Lines 2 and 4 are the caps the budget replaced in csquashed and fuzz.
    source = (
        "def f(omega, sc, _LOCAL_KINDS, ACTOR):\n"
        "    if omega.dim > 64:\n"
        "        raise ValueError(omega.dim)\n"
        "    kinds = _LOCAL_KINDS if sc.block_state.dim > 64 else tuple(ACTOR)\n"
        "    if omega.dim < 1 or 1 >= sc.dim:\n"
        "        raise ValueError(omega.dim)\n"
        "    if 2 <= sc.dim:\n"
        "        return len(omega.dims) > 2, omega.dim == 1, sc.dim > omega.dim\n"
        "    return kinds\n"
    )
    assert lint(source) == [
        "line 2: .dim compared with a literal size; cap sizes with the budget",
        "line 4: .dim compared with a literal size; cap sizes with the budget",
        "line 7: .dim compared with a literal size; cap sizes with the budget",
    ]



def test_lint_catches_to_dict_methods():
    source = (
        "from dataclasses import asdict, dataclass\n"
        "@dataclass\n"
        "class Report:\n"
        "    value: float\n"
        "    def to_dict(self):\n"
        "        return asdict(self)\n"
        "class Outer:\n"
        "    class Inner:\n"
        "        def to_dict(self):\n"
        "            return {}\n"
        "def to_dict(report):\n"
        "    return {'value': report.value}\n"
    )
    assert lint(source) == [
        "line 5: Report.to_dict; records reach JSON through serialize.jsonable",
        "line 9: Inner.to_dict; records reach JSON through serialize.jsonable",
    ]


def test_lint_catches_clock_reads_outside_main_and_emit():
    source = (
        "import time\n"
        "from time import perf_counter, time as now\n"
        "STARTED = time.time()\n"
        "def cmd_fuzz(args):\n"
        "    started = time.time()\n"
        "    return started, perf_counter(), time.sleep\n"
        "def _emit(run, started):\n"
        "    return time.time() - started, run\n"
        "def main(argv):\n"
        "    started = time.time()\n"
        "    return _emit(cmd_fuzz(argv), started), now\n"
    )
    message = (
        "time.time read outside cli.main and cli._emit; a subcommand returns a cli.Run, "
        "which main times"
    )
    assert lint(source, clock_readers=frozenset({"main", "_emit"})) == [
        f"line {n}: {message}" for n in (2, 3, 5)
    ]
    assert lint(source) == [f"line {n}: {message}" for n in (2, 3, 5, 8, 10)]


def test_lint_catches_int_flag_types():
    source = (
        "import argparse\n"
        "from functools import partial\n"
        "def build(p, parse):\n"
        "    p.add_argument('--jobs', type=int, default=1)\n"
        "    p.add_argument('--k', default=None,\n"
        "                   type=int)\n"
        "    p.add_argument('--tol', type=float)\n"
        "    p.add_argument('--seed', type=partial(parse, 'seed', low=0))\n"
        "    return argparse, int('3'), dict(type='int')\n"
    )
    message = "type=int flag; parse an integer flag through cli._integer_flag"
    assert lint(source) == [f"line 4: {message}", f"line 6: {message}"]


def test_lint_catches_file_writes_outside_emit():
    source = (
        "import json\n"
        "from pathlib import Path\n"
        "def cmd_zoo(args, payload, mode):\n"
        "    Path(args.out).write_text(json.dumps(payload))\n"
        "    Path(args.dir).mkdir(parents=True, exist_ok=True)\n"
        "    with open(args.csv, 'w') as fh, open(args.ref, encoding='utf-8') as ref:\n"
        "        fh.write(ref.read())\n"
        "    log = Path(args.log).open(mode='a')\n"
        "    return log, open(args.ref, 'rb'), Path(args.ref).open(), open(args.ref, mode)\n"
        "def _emit(run, args):\n"
        "    Path(args.out).write_bytes(run)\n"
        "def _write_csv(path, rows):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.writelines(rows)\n"
    )
    message = (
        "file written outside cli._emit and cli._write_csv; a subcommand returns its files "
        "in a cli.Run"
    )
    assert lint(source, file_writers=frozenset({"_emit", "_write_csv"})) == [
        f"line {n}: {message}" for n in (4, 5, 6, 8, 9)
    ]
    assert lint(source) == [f"line {n}: {message}" for n in (4, 5, 6, 8, 9, 11, 13)]


def test_lint_catches_state_checks_outside_construction():
    source = (
        "from nmk import states\n"
        "def _check_hermitian(m):\n"
        "    return m\n"
        "def _check_positive(m):\n"
        "    return m\n"
        "class DensityState:\n"
        "    def __post_init__(self):\n"
        "        _check_hermitian(self.matrix)\n"
        "        _check_positive(self.matrix)\n"
        "class BlockState:\n"
        "    def __post_init__(self):\n"
        "        _check_hermitian(self.blocks[0])\n"
        "def _checked_blocks(blocks):\n"
        "    for m in blocks:\n"
        "        _check_hermitian(m)\n"
        "    return [_check_positive(m) for m in blocks]\n"
        "def _settled(parts):\n"
        "    return states._check_positive(parts[0]), _check_hermitian\n"
    )
    message = (
        "outside DensityState.__post_init__ and _checked_blocks; a state is checked once, "
        "when it is built"
    )
    checkers = frozenset({"DensityState.__post_init__", "_checked_blocks"})
    assert lint(source, state_checkers=checkers) == [
        f"line 12: _check_hermitian {message}",
        f"line 18: _check_positive {message}",
    ]
    assert lint(source) == [
        f"line {n}: {name} {message}"
        for n, name in (
            (8, "_check_hermitian"),
            (9, "_check_positive"),
            (12, "_check_hermitian"),
            (15, "_check_hermitian"),
            (16, "_check_positive"),
            (18, "_check_positive"),
        )
    ]


def test_lint_catches_pool_imports():
    source = (
        "import math\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import multiprocessing.pool as mp, os\n"
        "from concurrent import futures\n"
        "from .concurrent import run\n"
        "def f(xs):\n"
        "    return ThreadPoolExecutor, mp, os, futures, run, math.prod(xs)\n"
    )
    message = "imported; restarts and trials run in the calling thread"
    assert lint(source) == [
        f"line 2: concurrent {message}",
        f"line 3: multiprocessing {message}",
        f"line 4: concurrent {message}",
    ]


def test_lint_catches_party_construction():
    source = (
        "from . import registers\n"
        "from .registers import Party\n"
        "def f(name):\n"
        "    return Party(name), registers.Party(name.lower()), Party.ALICE\n"
    )
    message = "Party(...) outside registers; read a party name with registers.require_member"
    assert lint(source) == [f"line 4: {message}", f"line 4: {message}"]
    assert lint(source, reads_parties=True) == []


def test_lint_catches_bare_thresholds():
    source = (
        "TOL = 1e-9\n"
        "BOUNDS = (1e-10, 1e10)\n"
        "def f(x, cut=1e-8, *, eps=-1e-12):\n"
        '    """Clamped at 1e-12."""\n'
        "    return x > 1e-12 and x <= TOL + 1e-9 * 0.5 and x < 1e-6 and x != 0.0\n"
        "class C:\n"
        "    tol: float = 1e-7\n"
        "    def g(self, x):\n"
        "        return (lambda y: y + 2.5e-11)(x) + 1e-3\n"
    )
    message = "name it once at module level, in the module whose invariant it guards"
    assert threshold_problems(source) == [
        f"line {n}: bare threshold {v!r}; {message}"
        for n, v in ((3, 1e-12), (3, 1e-08), (5, 1e-12), (5, 1e-09), (9, 2.5e-11))
    ]


def test_lint_catches_unchecked_tols():
    source = (
        "from .registers import require_real\n"
        "from . import registers\n"
        "def check(w, rho, tol=TOL):\n"
        "    return w - rho <= tol\n"
        "def score(state, tol=TOL):\n"
        "    tol = require_real('tol', tol, 0)\n"
        "    return state <= tol\n"
        "def bound(x, tol):\n"
        "    return registers.require_real('tol', tol, 0) + x\n"
        "def _within(gap, tol):\n"
        "    return gap <= tol\n"
        "class Checker:\n"
        "    def run(self, tol):\n"
        "        def inner(tol):\n"
        "            return tol\n"
        "        return inner(require_real('eps', self, 0)), tol\n"
    )
    message = "takes tol unchecked; pass it through registers.require_real"
    assert threshold_problems(source) == [
        f"line 3: check {message}",
        f"line 13: Checker.run {message}",
    ]


#: The module-level names README's Tolerances table must account for.
TOLERANCE_NAME = re.compile(r"[A-Z][A-Z0-9_]*_(TOL|SLACK)|EIG_FLOOR|BEAT_MARGIN")
#: A row of the table: constant, value (a Unicode minus allowed), module.
TABLE_ROW = re.compile(r"^\| `(\w+)` \| (\S+) \| .* \| `nmk\.(\w+)` \|$", re.M)


def tolerance_constants(sources: dict) -> dict:
    """``(module, name) -> value`` of each module-level tolerance constant
    in ``sources`` (module name to source)."""
    found = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and TOLERANCE_NAME.fullmatch(target.id):
                    found[module, target.id] = ast.literal_eval(node.value)
    return found


def tolerance_table_problems(readme: str, constants: dict) -> list[str]:
    """How README's Tolerances section ``readme`` disagrees with ``constants``."""
    section = readme.split("### Tolerances", 1)[1].split("\n## ", 1)[0]
    rows = TABLE_ROW.findall(section)
    exempt = set(re.findall(r"`(\w+)`", section[section.rindex("|") :]))
    problems = []
    for name, value, module in rows:
        if (module, name) not in constants:
            problems.append(f"row {name}: no such constant in nmk.{module}")
        elif constants[module, name] != float(value.replace("\u2212", "-")):
            problems.append(f"row {name}: {value} is not the value {constants[module, name]!r}")
    listed = {name for name, _, _ in rows}
    problems += [
        f"{name} in nmk.{module} has no row"
        for module, name in sorted(constants)
        if name not in listed | exempt
    ]
    return problems


def test_readme_tolerance_table_matches_the_code():
    constants = tolerance_constants({path.stem: path.read_text() for path in MODULES})
    assert ("states", "REVERSIBLE_TOL") in constants
    assert tolerance_table_problems(README.read_text(), constants) == []


def test_lint_catches_tolerance_table_drift():
    readme = (
        "### Tolerances\n\n"
        "| constant | value | invariant | module |\n"
        "| --- | --- | --- | --- |\n"
        "| `A_TOL` | 1e-8 | a \\| b | `nmk.one` |\n"
        "| `FLOOR` | \u22121e-9 | c | `nmk.one` |\n"
        "| `B_TOL` | 1e-9 | d | `nmk.one` |\n"
        "| `GONE_TOL` | 1e-9 | e | `nmk.two` |\n"
        "\nThe fuzz tolerance `C_TOL` is named in `nmk.two`.\n"
        "\n## Next\n\n`D_SLACK`\n"
    )
    constants = tolerance_constants(
        {
            "one": "A_TOL = 1e-8\nFLOOR = -1e-9\nB_TOL = 1e-10\ndef f():\n    E_TOL = 1\n",
            "two": "C_TOL = 1e-9\nD_SLACK = 1e-12\nEIG_FLOOR = -1e-9\n",
        }
    )
    assert constants == {
        ("one", "A_TOL"): 1e-8,
        ("one", "B_TOL"): 1e-10,
        ("two", "C_TOL"): 1e-9,
        ("two", "D_SLACK"): 1e-12,
        ("two", "EIG_FLOOR"): -1e-9,
    }
    constants["one", "FLOOR"] = -1e-9
    assert tolerance_table_problems(readme, constants) == [
        "row B_TOL: 1e-9 is not the value 1e-10",
        "row GONE_TOL: no such constant in nmk.two",
        "D_SLACK in nmk.two has no row",
        "EIG_FLOOR in nmk.two has no row",
    ]
