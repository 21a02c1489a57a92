"""The ``Record`` contract of the package's value classes, and cold starts: a cold
import of the CLI loads neither ``dataclasses``, ``inspect`` nor ``argparse``, and each
command loads only the holriem modules, ``fractions``, ``importlib.resources`` and
``argparse`` it runs."""

import ast
import copy
import importlib
import inspect
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import holriem
from holriem.catalog import CatalogEntry, CheckResult, VerifyReport, build_catalog
from holriem.dsl import SpecFile
from holriem.forms import QuadraticForm
from holriem.liealg import LieAlgebra
from holriem.linalg import CMatrix
from holriem.models import HomogeneousModel
from holriem.scalars import Record, gr

CATALOG = {entry.id: entry for entry in build_catalog()}
HEIS = CATALOG["heis3"].algebra
MODEL = CATALOG["c_ltimes_heis"].model


def _records():
    """One instance of each immutable record class, built twice."""
    return [
        CMatrix([[1, gr(0, 1)]]),
        QuadraticForm([[1, 0], [0, 2]]),
        LieAlgebra(HEIS.basis_names, HEIS.constants),
        HomogeneousModel(MODEL.algebra, MODEL.isotropy, MODEL.complement, MODEL.quotient_form),
        CatalogEntry("heis3", HEIS),
        CheckResult("a/b", "fail", "w", "v"),
        VerifyReport(42, (CheckResult("a/b", "pass"),)),
    ]


# The stdlib modules that only some commands load: ``fractions`` (with its ``decimal``)
# for the report's Fraction values, and ``importlib.resources`` for its shipped files.
WATCHED = ("fractions", "decimal", "importlib.resources")


def _fresh(statements: str, *watched: str) -> tuple[set[str], set[str]]:
    """The holriem modules, and those of ``WATCHED`` and ``watched``, that a fresh interpreter
    has registered in ``sys.modules`` after running ``statements``, and those of them it has run.
    A module registered for lazy loading is not yet of the module type until it runs.
    -S: no site hooks, so only what holriem imports is loaded."""
    src = str(Path(holriem.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); {statements}; "
        f"names = [n for n in sys.modules if n.split('.')[0] == 'holriem' or n in {WATCHED + watched!r}]; "
        f"print(sorted(names)); print(sorted(n for n in names if type(sys.modules[n]) is type(sys)))"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    registered, run = done.stdout.splitlines()[-2:]
    return set(ast.literal_eval(registered)), set(ast.literal_eval(run))


def _cold(statements: str, *watched: str) -> set[str]:
    """The modules of ``_fresh`` that a fresh interpreter has run after ``statements``."""
    return _fresh(statements, *watched)[1]


# The modules that a cold import of the CLI runs: the CLI, the entries and the layers they use.
CLI = {
    "holriem",
    "holriem.catalog",
    "holriem.cli",
    "holriem.dsl",
    "holriem.liealg",
    "holriem.linalg",
    "holriem.scalars",
}
# classify runs the Killing form; a file's pair (validate, model) runs models too; a metric
# command the metric data; the report the fragments, with their grid prover and Fractions.
CLASSIFY = CLI | {"holriem.forms"}
PAIR = CLASSIFY | {"holriem.models"}
METRIC = PAIR | {"holriem.geometry"}
PAPER = METRIC | {"holriem.paper", "fractions", "decimal"}
LOADS = {
    "structure": {"invariants": CLI, "classify": CLASSIFY, "validate": PAIR, "model": PAIR},
    "metric": dict.fromkeys(("connection", "curvature", "constcurv"), METRIC),
    # Only the report reads the shipped files.
    "report": {"verify-paper": PAPER | {"importlib.resources"}, "mobius-check": PAPER, "validate": PAPER},
}
DATA = Path(holriem.__file__).parent / "data"
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_cold_cli_import_loads_neither_dataclasses_nor_inspect():
    # Nor the parser: argparse (with its gettext) loads only for argv outside ``COMMAND FILE``.
    assert _cold("import holriem.cli", "dataclasses", "inspect", "argparse", "gettext") == CLI


def test_a_bare_import_loads_no_submodule():
    # ``_lazy`` imports its loader when called, so the package alone needs no importlib.util.
    assert _cold("import holriem", "importlib.util") == {"holriem"}


def test_a_cold_cli_import_registers_every_traced_layer_and_runs_none_it_binds_lazily():
    # The tracer wraps each layer it finds in sys.modules, so each must be registered;
    # the layers no file command needs stay registered only.
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    )
    registered, run = _fresh("import holriem.cli")
    assert {f"holriem.{layer}" for layer in layers} <= registered
    assert registered - run == {"holriem.forms", "holriem.models", "holriem.geometry"}


@pytest.mark.parametrize(
    "args, kind",
    [
        (("validate", "heis3.liealg"), "structure"),
        (("invariants", "heis3.liealg"), "structure"),
        (("classify", "heis3.liealg"), "structure"),
        (("classify", "heis3.liealg", "--json"), "structure"),
        (("model", "c_ltimes_heis.liealg"), "structure"),
        (("connection", "heis3.liealg"), "metric"),
        (("curvature", "heis3.liealg"), "metric"),
        (("constcurv", "heis3.liealg"), "metric"),
        (("constcurv", "heis3.liealg", "--json"), "metric"),
        (("verify-paper",), "report"),
        (("verify-paper", "--json"), "report"),
        (("mobius-check",), "report"),
        # A family file has no one algebra: validate proves Jacobi on its grid, as the report does.
        (("validate", "heis_stab_family.liealg"), "report"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, tuple) else value,
)
def test_each_command_loads_only_the_modules_it_runs(args, kind):
    argv = [str(DATA / arg) if arg.endswith(".liealg") else arg for arg in args]
    loaded = _cold(f"from holriem.cli import cli; assert cli({argv!r}) == 0", "json", "argparse")
    # json only for --json output, argparse only for an argv other than the two words COMMAND FILE.
    two_words = len(args) == 2 and not args[1].startswith("-")
    parser = set() if two_words else {"argparse"}
    assert loaded == LOADS[kind][args[0]] | ({"json"} if "--json" in args else set()) | parser


def test_each_export_is_the_object_its_module_defines():
    for module_name, names in holriem._EXPORTS.items():
        module = importlib.import_module(f"holriem.{module_name}")
        for name in names:
            exported = getattr(holriem, name)
            assert exported is vars(module)[name], name
            if inspect.isclass(exported) or inspect.isfunction(exported):
                assert exported.__module__ == module.__name__, name
    star: dict = {}
    exec("from holriem import *", star)
    assert set(star) - {"__builtins__"} == set(holriem.__all__) == set(holriem._MODULE_OF)


def test_an_unknown_export_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="module 'holriem' has no attribute 'nosuch'"):
        holriem.nosuch
    with pytest.raises(ImportError, match="nosuch"):
        exec("from holriem import nosuch", {})


@pytest.mark.parametrize(
    "record, twin", list(zip(_records(), _records())), ids=lambda r: type(r).__name__
)
def test_records_are_immutable_and_compare_by_fields(record, twin):
    assert isinstance(record, Record) and twin is not record
    assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)
    assert record != tuple(getattr(record, name) for name in record._fields)
    assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError, match="cannot set or delete"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="cannot set or delete"):
            delattr(record, name)


def test_each_field_takes_part_in_equality():
    base = CheckResult("a/b", "fail", "w", "v")
    for changed in (
        CheckResult("a/c", "fail", "w", "v"),
        CheckResult("a/b", "pass", "w", "v"),
        CheckResult("a/b", "fail", "x", "v"),
        CheckResult("a/b", "fail", "w", None),
    ):
        assert changed != base


def test_derived_slots_stay_out_of_equality_hash_and_repr():
    algebra = LieAlgebra(HEIS.basis_names, HEIS.constants)
    object.__setattr__(algebra, "terms", ())
    assert algebra == HEIS and hash(algebra) == hash(HEIS) and "terms" not in repr(algebra)

    model = HomogeneousModel(MODEL.algebra, MODEL.isotropy, MODEL.complement, MODEL.quotient_form)
    object.__setattr__(model, "frame", None)
    object.__setattr__(model, "actions", ())
    assert model == MODEL and hash(model) == hash(MODEL)
    assert "frame" not in repr(model) and "actions" not in repr(model)

    sl2 = CATALOG["sl2"].algebra
    fresh, used = CatalogEntry("sl2", sl2), CatalogEntry("sl2", sl2)
    assert used.center is not None and "center" in used.__dict__
    assert fresh == used and hash(fresh) == hash(used) and repr(fresh) == repr(used)


def test_shipped_entries_hash_and_compare_their_expected_facts():
    for entry in build_catalog():
        twin = CatalogEntry(entry.id, entry.algebra, entry.model, dict(entry.expected))
        assert twin == entry and hash(twin) == hash(entry)
        other = CatalogEntry(entry.id, entry.algebra, entry.model, {})
        assert other != entry


def test_reprs_keep_the_dataclass_text():
    assert repr(CheckResult("a", "pass")) == (
        "CheckResult(id='a', status='pass', witness=None, value=None)"
    )
    assert repr(QuadraticForm([[1]])) == (
        "QuadraticForm(gram=CMatrix(entries=((GaussianRational(1),),)))"
    )


def test_spec_file_is_mutable_unhashable_and_compares_its_seven_fields():
    spec = SpecFile("n", ("X",))
    assert spec == SpecFile("n", ("X",), {}, None, (), {}, ())
    assert repr(spec) == (
        "SpecFile(name='n', labels=('X',), brackets={}, form=None, isotropy=(), expected={}, "
        "parameters=())"
    )
    with pytest.raises(TypeError, match="unhashable"):
        hash(spec)
    for name, value in (
        ("name", "m"),
        ("labels", ("Y",)),
        ("brackets", {("X", "X"): {}}),
        ("form", {("X", "X"): gr(1)}),
        ("isotropy", ({"X": gr(1)},)),
        ("expected", {"class": "SOL"}),
        ("parameters", ("c",)),
    ):
        other = SpecFile("n", ("X",))
        setattr(other, name, value)
        assert getattr(other, name) == value and other != spec
