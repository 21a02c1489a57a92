"""The ``Record`` contract of the package's value classes, and a cold import
of the CLI that loads neither ``dataclasses`` nor ``inspect``."""

import copy
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


def test_cold_cli_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(holriem.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import holriem.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    # -S: no site hooks, so only what holriem imports is loaded.
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


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
