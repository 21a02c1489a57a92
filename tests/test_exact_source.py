"""The package is exact: no float or complex value and no random number in its
source, no identity test against the shared ``ZERO`` or ``ONE``, and no
``GaussianRational`` made without ``__init__`` outside ``scalars._make``; no
module but ``linalg`` names its elimination ``_reduce`` or defines the
first-failure scan ``_first``; ``dsl`` imports nothing from the package but
``scalars``; no ``from_table`` call takes a bracket table written in the code,
so every algebra and family comes from a ``.liealg`` file or is derived, and no
``CMatrix`` of ``geometry``, ``models`` or ``linalg`` is built from a display;
every check of the catalog that can fail names a witness; and every
module-level function, class and assigned name, and every named method and
property of such a class, is used in the package."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "holriem").glob("*.py"))


def _inexact(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each float or complex literal, float()/complex() call
    and import of ``random`` in a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "complex")
        ):
            found.append((node.lineno, f"call to {node.func.id}()"))
        elif isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "random" for alias in node.names
        ):
            found.append((node.lineno, "import random"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "random":
            found.append((node.lineno, "import from random"))
    return found


def test_every_module_is_scanned():
    assert {"catalog.py", "cli.py", "geometry.py", "scalars.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_is_exact(path):
    assert _inexact(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_finds_inexact_code():
    source = (
        "import random\n"
        "from random import Random\n"
        "from math import gcd\n"
        "x = 1e-9\n"
        "y = 2j\n"
        "z = float('1')\n"
        "w = complex(1, 2)\n"
        "v = gcd(4, 6)\n"
    )
    assert [line for line, _ in _inexact(ast.parse(source))] == [1, 2, 4, 5, 6, 7]


def _identity_tests(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, source) for each ``is`` or ``is not`` comparison with ``ZERO`` or
    ``ONE``, as a bare name or an attribute: every arithmetic zero is the one
    ``ZERO`` object, but that is speed only, and equality decides each test."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for k, op in enumerate(node.ops):
            if isinstance(op, (ast.Is, ast.IsNot)) and any(
                (isinstance(x, ast.Name) and x.id in ("ZERO", "ONE"))
                or (isinstance(x, ast.Attribute) and x.attr in ("ZERO", "ONE"))
                for x in operands[k : k + 2]
            ):
                found.append((node.lineno, ast.unparse(node)))
                break
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_identity_test_against_shared_scalars(path):
    assert _identity_tests(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_finds_identity_tests():
    source = (
        "if x is ZERO: pass\n"
        "y = ONE is not x\n"
        "z = x is scalars.ZERO\n"
        "w = x == ZERO\n"
        "v = x is None\n"
        "u = a < b is not ONE\n"
        "t = ZERO_LIKE is x\n"
        "s = x in (ZERO, ONE)\n"
    )
    assert [line for line, _ in _identity_tests(ast.parse(source))] == [1, 2, 3, 6]


def _spelled(node: ast.AST) -> str | None:
    """A bare name or an attribute's last part, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _creations(tree: ast.AST, allowed: tuple[str, ...] = ()) -> list[tuple[int, str]]:
    """(line, source) for each call, outside the functions named in ``allowed``,
    that may make a ``GaussianRational`` with no ``__init__``: a call of the name
    ``_new`` (``scalars``' alias of ``object.__new__``), or a call given the class
    itself, as through ``object.__new__(GaussianRational)``, other than
    ``isinstance`` and ``issubclass``.  Only ``scalars._make`` may, so that a
    patched ``_make`` reaches every arithmetic result."""
    found = []

    def visit(node: ast.AST, inside: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, inside or child.name in allowed)
                continue
            if not inside and isinstance(child, ast.Call):
                called = _spelled(child.func)
                if called == "_new" or (
                    called not in ("isinstance", "issubclass")
                    and any(_spelled(arg) == "GaussianRational" for arg in child.args)
                ):
                    found.append((child.lineno, ast.unparse(child)))
            visit(child, inside)

    visit(tree, False)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_make_creates_scalars_without_init(path):
    allowed = ("_make",) if path.name == "scalars.py" else ()
    assert _creations(ast.parse(path.read_text(encoding="utf-8")), allowed) == []


def test_the_scan_finds_scalars_made_without_init():
    source = (
        "def _make(a, b, d):\n"
        "    return _new(GaussianRational)\n"
        "def fast(a, b, d):\n"
        "    z = _new(GaussianRational)\n"
        "    w = object.__new__(GaussianRational)\n"
        "    return scalars._new(scalars.GaussianRational)\n"
        "v = GaussianRational.__new__(GaussianRational)\n"
        "make = object.__new__\n"
        "u = make(GaussianRational)\n"
        "t = GaussianRational(1, 2)\n"
        "s = isinstance(t, GaussianRational)\n"
        "r = object.__new__(LieAlgebra)\n"
        "q = _new(cls)\n"
    )
    tree = ast.parse(source)
    assert [line for line, _ in _creations(tree, ("_make",))] == [4, 5, 6, 7, 9, 13]
    assert [line for line, _ in _creations(tree)] == [2, 4, 5, 6, 7, 9, 13]
    # The one creation in the package is the one ``_make`` holds.
    scalars = next(path for path in SOURCES if path.name == "scalars.py")
    assert [call for _, call in _creations(ast.parse(scalars.read_text(encoding="utf-8")))] == [
        "_new(GaussianRational)"
    ]


def _reduce_spellings(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, source) for each ``_reduce`` spelled as a bare name, an attribute, an
    imported name or a function defined: outside ``linalg``, a linear question asks
    ``linalg.solve``, and no module lays out an elimination of its own."""
    found = []
    for node in ast.walk(tree):
        spelled = node.name if isinstance(node, (ast.alias, ast.FunctionDef)) else _spelled(node)
        if spelled == "_reduce":
            found.append((node.lineno, ast.unparse(node).splitlines()[0]))
    return sorted(found)


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "linalg.py"], ids=lambda path: path.name
)
def test_only_linalg_names_reduce(path):
    assert _reduce_spellings(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_finds_reduce_outside_linalg():
    source = (
        "from .linalg import _reduce, kernel\n"
        "from . import linalg\n"
        "rows, pivots = linalg._reduce(grid)\n"
        "x = _reduce(grid)\n"
        "def _reduce(rows):\n"
        "    return rows\n"
        "y = record.__reduce__()\n"
        "z = reduce(f, xs)\n"
        "w = '_reduce'\n"
        "v = linalg.solve(matrix, rhs)\n"
    )
    assert [line for line, _ in _reduce_spellings(ast.parse(source))] == [1, 3, 4, 5]
    linalg = next(path for path in SOURCES if path.name == "linalg.py")
    assert _reduce_spellings(ast.parse(linalg.read_text(encoding="utf-8")))


def _first_definitions(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, source) for each ``_first`` a module defines: a function or class of that
    name, or the name bound by an assignment or loop; importing it defines nothing.
    ``linalg._first`` is the package's one first-failure scan, which every module imports."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        else:
            name = node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) else None
        if name == "_first":
            found.append((node.lineno, ast.unparse(node).splitlines()[0]))
    return sorted(found)


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "linalg.py"], ids=lambda path: path.name
)
def test_only_linalg_defines_first(path):
    assert _first_definitions(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_finds_a_second_first():
    source = (
        "from .linalg import _first, kernel\n"
        "def _first(points, bad):\n"
        "    return next((p for p in points if bad(*p)), None)\n"
        "_first = lambda points, bad: None\n"
        "for _first in scans:\n"
        "    pass\n"
        "w = linalg._first(points, bad)\n"
        "def first(points):\n"
        "    return _first(points, bool)\n"
    )
    assert [line for line, _ in _first_definitions(ast.parse(source))] == [2, 4, 5]
    linalg = next(path for path in SOURCES if path.name == "linalg.py")
    assert len(_first_definitions(ast.parse(linalg.read_text(encoding="utf-8")))) == 1


def _reduce_users(tree: ast.Module) -> list[str]:
    """The module-level functions, and the methods as ``Class.method``, whose bodies
    spell ``_reduce``, and ``<module>`` or the class name for a spelling outside them."""
    units = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            units += [
                (f"{node.name}.{item.name}" if isinstance(item, ast.FunctionDef) else node.name, item)
                for item in node.body
            ]
        else:
            units.append((node.name if isinstance(node, ast.FunctionDef) else "<module>", node))
    return sorted({name for name, unit in units for node in ast.walk(unit) if _spelled(node) == "_reduce"})


def test_linalg_eliminates_in_its_solver_and_four_kernels_only():
    # Every question with a right side asks ``solve``: a second elimination with
    # right sides (an inverse, a frame) would be one more user here.
    linalg = next(path for path in SOURCES if path.name == "linalg.py")
    assert _reduce_users(ast.parse(linalg.read_text(encoding="utf-8"))) == [
        "CMatrix.rank", "_completion", "min_poly", "solve", "span_basis"
    ]


def test_the_scan_finds_reduce_users():
    source = (
        "def solve(a):\n"
        "    return _reduce(a, 2)\n"
        "class M:\n"
        "    shortcut = _reduce\n"
        "    def rank(self):\n"
        "        return len(linalg._reduce(self.rows)[1])\n"
        "    def inverse(self):\n"
        "        def inner():\n"
        "            return _reduce(self.rows)\n"
        "        return inner\n"
        "def helper(rows):\n"
        "    return reduce(f, rows), rows.__reduce__(), '_reduce'\n"
        "pivots = _reduce(grid)\n"
        "def _reduce(rows):\n"
        "    return rows\n"
    )
    assert _reduce_users(ast.parse(source)) == ["<module>", "M", "M.inverse", "M.rank", "solve"]


def _package_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, module) for each ``holriem`` module an import names: ``from .a import x``,
    ``from holriem.a import x`` and ``import holriem.a`` name a; ``from . import a, b``
    and ``from holriem import a, b`` name a and b; a bare ``import holriem`` names it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "holriem":
                    found.append((node.lineno, parts[1] if len(parts) > 1 else "holriem"))
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level:
                if parts[0] != "holriem":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.append((node.lineno, parts[0]))
            else:
                found.extend((node.lineno, alias.name) for alias in node.names)
    return sorted(found)


def test_dsl_imports_only_scalars_from_the_package():
    # The text format knows no library object: catalog.entry_from_spec builds them.
    dsl = next(path for path in SOURCES if path.name == "dsl.py")
    imported = _package_imports(ast.parse(dsl.read_text(encoding="utf-8")))
    assert [module for _, module in imported] == ["scalars"]


def test_the_scan_finds_package_imports():
    source = (
        "from .scalars import gr\n"
        "from .linalg import solve, Vector\n"
        "from . import liealg, models\n"
        "import holriem.forms\n"
        "from holriem.geometry import curvature\n"
        "from holriem import catalog\n"
        "import re, holriem\n"
        "from typing import Sequence\n"
        "import holriemish\n"
    )
    assert _package_imports(ast.parse(source)) == [
        (1, "scalars"),
        (2, "linalg"),
        (3, "liealg"),
        (3, "models"),
        (4, "forms"),
        (5, "geometry"),
        (6, "catalog"),
        (7, "holriem"),
    ]
    catalog = next(path for path in SOURCES if path.name == "catalog.py")
    imported = _package_imports(ast.parse(catalog.read_text(encoding="utf-8")))
    assert "dsl" in [module for _, module in imported]


def _literal_tables(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, source) for each call of ``from_table``, as a bare name or an attribute,
    whose table, its second positional argument or ``table=``, is a dict display."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _spelled(node.func) == "from_table":
            tables = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "table")]
            if any(isinstance(table, ast.Dict) for table in tables):
                found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_algebra_is_built_from_a_table_in_the_code(path):
    assert _literal_tables(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_finds_literal_tables():
    source = (
        "LieAlgebra.from_table(names, {('Y', 'Z'): {'X': 1}})\n"
        "g = from_table(('X',), table={})\n"
        "LieAlgebra.from_table(spec.labels, spec.brackets)\n"
        "LieAlgebra.from_table(names, {pair: c for pair, c in rows})\n"
        "LieAlgebra.from_table(names, table)\n"
        "other(names, {('Y', 'Z'): {'X': 1}})\n"
        "LieAlgebra.from_table(\n    ('X', 'Y'),\n    {('X', 'Y'): {'X': c}},\n)\n"
    )
    assert [line for line, _ in _literal_tables(ast.parse(source))] == [1, 2, 7]


def _literal_matrices(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, source) for each ``CMatrix`` built from a display: a call of ``CMatrix``,
    or of one of its constructors such as ``CMatrix.diagonal``, whose first argument
    is a list or tuple display, not a comprehension or a name."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        named = _spelled(func) == "CMatrix" or _spelled(getattr(func, "value", None)) == "CMatrix"
        if named and isinstance(node.args[0], (ast.List, ast.Tuple)):
            found.append((node.lineno, ast.unparse(node)))
    return found


# Matrices are data of the shipped files or derived; a matrix written in
# ``catalog`` is the expected value of a check, a claim rather than data.
COMPUTING = [path for path in SOURCES if path.stem in ("geometry", "models", "linalg")]


@pytest.mark.parametrize("path", COMPUTING, ids=lambda path: path.name)
def test_no_matrix_is_written_in_the_code(path):
    assert _literal_matrices(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_finds_literal_matrices():
    source = (
        "CMatrix([[ZERO, ONE], [ONE, ZERO]])\n"
        "m = CMatrix.diagonal([0, 1, -1])\n"
        "CMatrix([[ONE if i == j else ZERO for j in r] for i in r])\n"
        "CMatrix(rows)\n"
        "CMatrix.from_columns([c[k:] for c in coords])\n"
        "other([[ZERO, ONE], [ONE, ZERO]])\n"
        "linalg.CMatrix(((1, t), (0, 1)))\n"
        "CMatrix(\n    [[1, t, -(t * t) / 2], [0, 1, -t], [0, 0, 1]]\n)\n"
    )
    assert [line for line, _ in _literal_matrices(ast.parse(source))] == [1, 2, 7, 8]
    catalog = next(path for path in SOURCES if path.stem == "catalog")
    claims = [text for _, text in _literal_matrices(ast.parse(catalog.read_text(encoding="utf-8")))]
    assert claims == ["CMatrix.diagonal([0, 1, -1])"]


def _unwitnessed(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, check id source) for each ``_check(...)`` call whose status is not
    the literal ``True`` and that passes no witness, neither as its third
    positional argument nor as ``witness=`` (a literal ``None`` is no witness)."""
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_check"
        ):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        named = (*node.args, None, None, None)
        check_id = named[0] or keywords.get("check_id")
        status = named[1] or keywords.get("ok")
        witness = named[2] or keywords.get("witness")
        if isinstance(status, ast.Constant) and status.value is True:
            continue
        if witness is None or (isinstance(witness, ast.Constant) and witness.value is None):
            found.append((node.lineno, ast.unparse(check_id)))
    return sorted(found)


def test_every_failing_check_names_a_witness():
    catalog = next(path for path in SOURCES if path.name == "catalog.py")
    assert _unwitnessed(ast.parse(catalog.read_text(encoding="utf-8"))) == []


def test_the_scan_finds_checks_without_a_witness():
    source = (
        "_check('a', ok)\n"
        "_check('b', ok, 'w')\n"
        "_check('c', ok, witness=w)\n"
        "_check('d', True, value='v')\n"
        "_check('e', ok, value='v')\n"
        "_check('f', ok, None, 'v')\n"
        "_check(check_id='g', ok=False)\n"
        "_check(check_id='h', ok=x, witness=w)\n"
        "other('i', ok)\n"
    )
    assert _unwitnessed(ast.parse(source)) == [(1, "'a'"), (5, "'e'"), (6, "'f'"), (7, "'g'")]


def _spellings(node: ast.AST) -> Counter:
    """How often each name is spelled in ``node``, as a bare name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _assigned(target: ast.expr):
    """The names that an assignment target binds: a name, or a tuple of them."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _assigned(element)


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of each module-level function, class and
    assigned name (``Assign`` or ``AnnAssign``, the node being the statement),
    and of each method or property of such a class; dunders are left out,
    as Python reads them."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name, top.name, top
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            for target in targets:
                for name in _assigned(target):
                    if not _is_dunder(name):
                        yield name, name, top
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef) and not _is_dunder(node.name):
                    yield f"{top.name}.{node.name}", node.name, node


def _unnamed(trees: dict[str, ast.Module]) -> list[str]:
    """``module.name`` for each definition of ``_definitions`` that no code of
    the package names outside its own body.  Names are matched by spelling,
    as a bare name or an attribute; the exports of ``__init__`` are no use."""
    modules = {module: tree for module, tree in trees.items() if module != "__init__"}
    named = sum((_spellings(tree) for tree in modules.values()), Counter())
    return sorted(
        f"{module}.{qualified}"
        for module, tree in modules.items()
        for qualified, name, node in _definitions(tree)
        if named[name] == _spellings(node)[name]
    )


def test_every_definition_is_used_in_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    # geometry.ricci is kept for the planned Ricci cross-check of constant curvature.
    assert _unnamed(trees) == ["geometry.ricci"]


def test_the_scan_finds_unused_definitions():
    trees = {
        "__init__": ast.parse("from .a import exported\nexported()\n"),
        "a": ast.parse(
            "def exported(): pass\n"
            "def recursive(): return recursive()\n"
            "def used(): pass\n"
            "def used_as_attribute(): pass\n"
            "class Unused: pass\n"
            "TABLE = {'f': used}\n"
            "UNUSED = 1\n"
            "__all__ = ['exported']\n"
            "first, second = 1, 2\n"
            "annotated: int = first\n"
            "class Used:\n"
            "    def __len__(self): return 0\n"
            "    def method(self): return self.helper()\n"
            "    def helper(self): return self.helper()\n"
            "    @property\n"
            "    def unread(self): return self.method()\n"
            "    def unnamed(self): return self.unnamed()\n"
        ),
        "b": ast.parse(
            "from . import a\nfrom .a import Unused\na.used_as_attribute()\na.Used()\n"
            "a.TABLE, a.second\n"
        ),
    }
    assert _unnamed(trees) == [
        "a.UNUSED",
        "a.Unused",
        "a.Used.unnamed",
        "a.Used.unread",
        "a.annotated",
        "a.exported",
        "a.recursive",
    ]


def _unread_parameters(tree: ast.AST) -> list[str]:
    """``function(parameter)`` for each parameter of a function or lambda
    (``<lambda>@line``) that its body never reads as a name; ``self``,
    ``cls``, ``_``-prefixed parameters and dunder methods, whose signatures
    Python fixes, are left out.  A read in a nested function counts."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(node.name):
            name, body = node.name, node.body
        elif isinstance(node, ast.Lambda):
            name, body = f"<lambda>@{node.lineno}", [node.body]
        else:
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
        read = {
            n.id
            for statement in body
            for n in ast.walk(statement)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found.extend(
            f"{name}({p.arg})"
            for p in params
            if p is not None
            and p.arg not in read
            and p.arg not in ("self", "cls")
            and not p.arg.startswith("_")
        )
    return sorted(found)


def test_every_parameter_is_read():
    unread = [
        f"{path.stem}.{hit}"
        for path in SOURCES
        for hit in _unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unread == []


def test_the_scan_finds_unread_parameters():
    source = (
        "def reads_all(a, /, b, *args, c, d=1, **kw): return a, b, args, c, d, kw\n"
        "def unread(a, b=0, *args, c, **kw): return a\n"
        "def closure(a, b):\n"
        "    def inner(x): return a\n"
        "    return inner\n"
        "def default_only(a, b=a): return b\n"
        "def written(a):\n"
        "    a = 1\n"
        "class C:\n"
        "    def method(self, x): return 1\n"
        "    @classmethod\n"
        "    def build(cls, _spare): return cls\n"
        "    def __eq__(self, other): return True\n"
        "key = lambda item, spare: item\n"
    )
    assert _unread_parameters(ast.parse(source)) == [
        "<lambda>@14(spare)",
        "closure(b)",
        "default_only(a)",
        "inner(x)",
        "method(x)",
        "unread(args)",
        "unread(b)",
        "unread(c)",
        "unread(kw)",
        "written(a)",
    ]
