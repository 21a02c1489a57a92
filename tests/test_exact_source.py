"""The package is exact: no float or complex value and no random number in its source."""

import ast
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
