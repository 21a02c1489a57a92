"""One table of structural facts (``catalog.FACTS``) for the report and the CLI."""

import json
from pathlib import Path

import pytest
from conftest import failed_checks

from holriem import catalog, dsl
from holriem.catalog import (
    CATALOG_IDS,
    FACTS,
    CatalogEntry,
    build_catalog,
    entry_from_spec,
    read_text,
    shipped_file_text,
    verify_all,
    verify_entry,
)
from holriem.cli import cli
from holriem.forms import QuadraticForm
from holriem.models import HomogeneousModel

DATA = Path(catalog.__file__).parent / "data"


@pytest.fixture(scope="module")
def report_values():
    return {c.id: c.value for c in verify_all(42).checks}


def _json_records(capsys, command, entry_id):
    assert cli([command, str(DATA / f"{entry_id}.liealg"), "--json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("entry_id", CATALOG_IDS)
def test_cli_prints_the_report_values(entry_id, report_values, capsys):
    spec = dsl.parse(catalog.shipped_file_text(entry_id))
    commands = ["invariants"]
    commands += ["model"] if spec.isotropy else []
    commands += ["classify"] if "class" in spec.expected else []
    compared = set()
    for command in commands:
        for record in _json_records(capsys, command, entry_id):
            key = "class" if record["id"] == "classify" else record["id"]
            if key in spec.expected:
                assert record["value"] == report_values[f"{entry_id}/{key}"], (command, key)
                compared.add(key)
    # No command prints constant_curvature as a fact, nor semisimple.
    assert compared == set(spec.expected) - {"constant_curvature", "semisimple"}


def test_dsl_normalizes_exactly_the_fact_keys(capsys):
    # A key is normalized when some value comes back changed or is rejected;
    # an unknown key passes through as written.
    probes = ("TRUE", "007", "sol", "3, 02", "NONE")

    def normalizes(key):
        for value in probes:
            try:
                spec = dsl.parse(f"[algebra]\nname = a\ndim = 1\nbasis = X\n[expected]\n{key} = {value}\n")
                if spec.expected[key] != value:
                    return True
            except dsl.DslError:
                return True
        return False

    candidates = set(dsl.EXPECTED_KINDS) | set(FACTS) | {"unknown_key"}
    assert {key for key in candidates if normalizes(key)} == set(FACTS)
    # One table of keys: each has a kind, a fact and a place in a report order.
    assert set(dsl.EXPECTED_KINDS) == set(FACTS) == set(catalog._METRIC_KEYS) | set(catalog._MODEL_KEYS)
    # The CLI prints FACTS rows only, and every shipped file names FACTS rows only.
    for command, entry_id in (("invariants", "sol3"), ("model", "c_times_sol")):
        assert {record["id"] for record in _json_records(capsys, command, entry_id)} <= set(FACTS)
    for entry_id in CATALOG_IDS:
        assert set(dsl.parse(catalog.shipped_file_text(entry_id)).expected) <= set(FACTS), entry_id


def test_entry_derives_each_fact_once(monkeypatch):
    entry = next(e for e in build_catalog() if e.id == "sol3")
    calls = []
    for name in ("center", "derived_algebra", "derived_series"):
        real = getattr(catalog, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(catalog, name, counted)
    for key in ("center_dim", "derived_dims", "solvable", "nilpotent", "center_dim"):
        FACTS[key](entry)
    assert sorted(calls) == ["center", "derived_algebra", "derived_series"]


def test_model_without_quotient_form_fails_only_its_invariance():
    entries = build_catalog()
    k = next(i for i, e in enumerate(entries) if e.id == "c_times_sol")
    entry, model = entries[k], entries[k].model
    model = HomogeneousModel(model.algebra, model.isotropy, model.complement)
    entries[k] = CatalogEntry(entry.id, entry.algebra, model, entry.expected)
    assert FACTS["invariance"](entries[k]) == "n/a"
    failed = failed_checks(verify_all(42, entries))
    assert [(c.id, c.witness, c.value) for c in failed] == [
        ("c_times_sol/invariance", "got n/a", "n/a")
    ]


def test_non_invariant_generic_form_fails_only_its_check(monkeypatch):
    # Nondegenerate and not of constant curvature, but E,E = 1 is not killed
    # by the isotropy action of c_oplus_sl2.
    form = QuadraticForm.from_sparse(
        ("H", "E", "F"), {("H", "H"): 1, ("E", "F"): 1, ("E", "E"): 1}
    )
    monkeypatch.setattr(catalog, "_GENERIC_AB_FORM", form)
    failed = failed_checks(verify_all(42))
    assert [(c.id, c.witness) for c in failed] == [
        ("semisimple4/general_ab_invariance", "invariance failed for (a,b)=(1,1)")
    ]


def test_a_fact_the_entry_lacks_fails_its_check():
    entry = next(e for e in build_catalog() if e.id == "c_times_sol")
    lacking = CatalogEntry(entry.id, entry.algebra, entry.model, {"class": "SOL"})
    (check,) = [c for c in verify_entry(lacking) if c.id == "c_times_sol/class"]
    assert (check.status, check.witness, check.value) == (
        "fail",
        "classification requires a 3-dimensional algebra",
        None,
    )


@pytest.mark.parametrize(
    "line, char, position",
    [
        ('"A,B" = C  # c = d', "#", 11),
        ('"A,B" = C  # c = d', "=", 6),
        ('"A=B" = C', "=", 6),
        ('"A#B" = C', "#", None),
        ("name = x", "=", 5),
        ("no equals", "=", None),
    ],
)
def test_find_unquoted(line, char, position):
    # The parser cuts a line at its first `#` outside double quotes, then
    # splits it at its first `=` outside them.  An unknown `[expected]` key
    # keeps its value as written, so the parse shows both cuts.
    text = "[algebra]\nname = a\ndim = 1\nbasis = X\n[expected]\n" + line + "\n"
    if char == "=" and position is None:
        with pytest.raises(dsl.DslError) as info:
            dsl.parse(text)
        assert (info.value.line, info.value.col, info.value.reason) == (
            6,
            1,
            "expected 'key = value'",
        )
        return
    ((key, value),) = dsl.parse(text).expected.items()
    if char == "=":
        assert key == line[:position].strip()
    else:
        assert f"{key} = {value}" == line[:position].strip()


def test_a_metric_fact_on_a_model_entry_fails_its_check():
    # A model entry carries its quotient form, but no connection until the
    # Levi-Civita pipeline reads pairs with h != 0.
    entries = build_catalog()
    k = next(i for i, e in enumerate(entries) if e.id == "heis_stab_zero")
    text = shipped_file_text("heis_stab_zero")
    text = text.replace("[expected]\n", "[expected]\nconstant_curvature = 0\n")
    entries[k] = entry_from_spec("heis_stab_zero", *read_text(text))
    assert entries[k].form == entries[k].model.quotient_form is not None
    with pytest.raises(ValueError, match="^entry carries no metric$"):
        FACTS["constant_curvature"](entries[k])
    report = verify_all(42, entries)
    # One check more, and none of the five identity checks of a metric.
    assert len(report.checks) == 136
    failed = failed_checks(report)
    assert [(c.id, c.witness) for c in failed] == [
        ("heis_stab_zero/constant_curvature", "entry carries no metric")
    ]


def test_a_model_fact_on_a_metric_entry_fails_its_check():
    entries = build_catalog()
    k = next(i for i, e in enumerate(entries) if e.id == "sol3")
    entry = entries[k]
    expected = {**entry.expected, "isotropy": "UNIPOTENT"}
    entries[k] = CatalogEntry(entry.id, entry.algebra, entry.model, expected)
    for key in ("isotropy", "invariance", "invariant_form_dim"):
        with pytest.raises(ValueError, match="entry carries no model"):
            FACTS[key](entries[k])
    failed = failed_checks(verify_all(42, entries))
    assert [(c.id, c.witness) for c in failed] == [("sol3/isotropy", "entry carries no model")]

