"""Built-in catalog of algebras, metrics and homogeneous models, the facts of an
entry, the check record, and ``verify_all``, which runs the report.

The catalog is the shipped ``.liealg`` files under ``data/``: one file per
id of ``CATALOG_IDS``, named for its entry and stored in canonical form, and
the stabilizer family's file ``FAMILY_ID``, which declares ``[parameters]``.
``read_text`` parses a file's text and builds its algebra once while its memo
holds the text, and ``entry_from_spec`` turns the two into an entry, the file's
pair (g, h, m, q) with h = 0 for a metric file, for the catalog and the CLI alike;
a family has an algebra at each point only (``dsl.at``).

``FACTS`` renders the fact of each key of ``dsl.EXPECTED_KINDS``; the
per-entry checks compare its text with the file's ``[expected]`` value,
and the CLI prints the same text.  An entry derives its center, derived
series and isotropy type once, as it does its connection and curvature.

Check results are flat (id, status, witness, value) records so reports
stay grep-able.  ``verify_all`` runs the fragments of ``paper.FRAGMENTS`` in
report order, and ``report_to_json`` writes the report.  Every check is exact
and draws no random numbers, so ``verify_all`` gives the same checks for every
seed.  The fragments live in ``paper``, which ``verify_all`` imports when it
runs.  ``forms``, ``models`` and ``geometry`` are bound unexecuted (``holriem._lazy``):
``models`` runs when a file's pair is first built, ``forms`` when a form is, and
``geometry`` when an entry first derives its metric data.  ``importlib.resources`` is
imported by ``shipped_file_text``, which the report alone calls.  So a file command
compiles none of them unless it runs them.
"""

from __future__ import annotations

from functools import cache, cached_property, lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

from . import _lazy, dsl
from .liealg import (
    LieAlgebra,
    center,
    classify_3d_unimodular,
    derived_algebra,
    derived_series,
    is_nilpotent,
    is_semisimple,
    is_unimodular,
    jacobi_witness,
)
from .linalg import CMatrix, Vector, _completion
from .scalars import GaussianRational, Record

if TYPE_CHECKING:
    from .forms import QuadraticForm
    from .geometry import ConnectionTable, CurvatureTensor
    from .models import HomogeneousModel, IsotropyType

forms = _lazy(f"{__package__}.forms")
models = _lazy(f"{__package__}.models")
geometry = _lazy(f"{__package__}.geometry")

DEFAULT_SEED = 42
READ_TEXT_BOUND = 32  # texts ``read_text`` holds; a round bound: files cycled up to 32 are read once

# The shipped files under data/, one per entry, in report order.
CATALOG_IDS = (
    "flat_c3",
    "heis3",
    "sol3",
    "sl2",
    "c_oplus_sl2",
    "c_times_sl2",
    "c_times_sol",
    "c_ltimes_heis",
    "c2_semidirect_c2",
    "heis_stab_zero",
    "heis_stab_generic",
)
FAMILY_ID = "heis_stab_family"  # the stabilizer family's file, in (c, m, k, beta); no entry
# Report order of the [expected] keys of metric files and of model files;
# they disagree on unimodular against center_dim, so one order cannot serve both.
_METRIC_KEYS = (
    "class",
    "constant_curvature",
    "unimodular",
    "solvable",
    "nilpotent",
    "semisimple",
    "center_dim",
    "derived_dims",
)
_MODEL_KEYS = ("isotropy", "invariance", "invariant_form_dim", "center_dim", "unimodular")


# -- catalog ---------------------------------------------------------------


class CatalogEntry(Record):
    """One catalog item: an algebra, the pair (g, h, m, q) of its file, h = 0 for a metric file
    (None for a bare algebra); its metric data and facts are derived once, into ``__dict__``."""

    _fields = ("id", "algebra", "model", "expected")
    __slots__ = _fields + ("__dict__",)

    def __init__(
        self, id: str, algebra: LieAlgebra, model: HomogeneousModel | None = None, expected: dict | None = None
    ):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "expected", expected)

    def __hash__(self):
        # Every field but the mutable ``expected`` dict, which equality still compares.
        return hash(self._key(self)[:-1])

    @property
    def form(self) -> QuadraticForm | None:
        """The pair's quotient form: a metric file's form on the whole basis."""
        return None if self.model is None else self.model.quotient_form

    @cached_property
    def connection(self) -> ConnectionTable:
        if self.form is None or self.model.isotropy:
            raise ValueError("entry carries no metric")
        return geometry.levi_civita(self.algebra, self.form)

    @cached_property
    def tensor(self) -> CurvatureTensor:
        return geometry.curvature(self.algebra, self.connection)

    @cached_property
    def constant_curvature(self) -> GaussianRational | None:
        """The constant k of a metric of constant curvature k, else None."""
        return geometry.constant_curvature_value(self.form, self.tensor)

    @cached_property
    def derived_algebra(self) -> list[Vector]:
        return derived_algebra(self.algebra)

    @cached_property
    def derived_series(self) -> tuple[int, ...]:
        return derived_series(self.algebra, self.derived_algebra)

    @cached_property
    def semisimple(self) -> bool:
        return is_semisimple(self.algebra)

    @cached_property
    def nilpotent(self) -> bool:
        return is_nilpotent(self.algebra, self.derived_algebra)

    @cached_property
    def center(self) -> list[Vector]:
        return center(self.algebra)

    @cached_property
    def isotropy_type(self) -> IsotropyType:
        return models.isotropy_type(_model(self))


def _model(entry: CatalogEntry) -> HomogeneousModel:
    if entry.model is None or not entry.model.isotropy:
        raise ValueError("entry carries no model")
    return entry.model


def _yes_no(flag: bool) -> str:
    return "true" if flag else "false"


def _invariance(entry: CatalogEntry) -> str:
    model = _model(entry)
    if model.quotient_form is None:
        return "n/a"
    return _yes_no(models.check_invariance(model))


# Every [expected] key of ``dsl.EXPECTED_KINDS``, mapped to the text of that
# fact of an entry; the report and the CLI print these and nothing else.  A
# fact the entry does not have (the class of a 4-dimensional algebra, the
# isotropy of an entry without a model) raises ValueError.
FACTS: dict[str, Callable[[CatalogEntry], str]] = {
    "class": lambda e: classify_3d_unimodular(e.algebra, e).name,
    "constant_curvature": lambda e: _render_constant(e.constant_curvature),
    "unimodular": lambda e: _yes_no(is_unimodular(e.algebra)),
    "solvable": lambda e: _yes_no(e.derived_series[-1] == 0),
    "nilpotent": lambda e: _yes_no(e.nilpotent),
    "semisimple": lambda e: _yes_no(e.semisimple),
    "center_dim": lambda e: str(len(e.center)),
    "derived_dims": lambda e: ",".join(map(str, e.derived_series)),
    "isotropy": lambda e: e.isotropy_type.name,
    "invariance": _invariance,
    "invariant_form_dim": lambda e: str(len(models.invariant_forms(_model(e)))),
}


def shipped_file_text(entry_id: str) -> str:
    from importlib import resources  # only the report reads shipped files

    return (resources.files("holriem") / "data" / f"{entry_id}.liealg").read_text(encoding="utf-8")


@lru_cache(maxsize=READ_TEXT_BOUND)
def read_text(text: str) -> tuple[dsl.SpecFile, LieAlgebra | None]:
    """Parse and algebra of a text, held with the text for the last ``READ_TEXT_BOUND`` that parsed:
    O(text size) each, no byte limit (a dense file at ``dsl.MAX_DIM``, 273 KB, takes 6.1 MB).  Input
    only: callers share it and must not mutate it; derived data stays per report or command.  A
    family's algebra is None: it has one at each point (``_at``)."""
    spec = dsl.parse(text)
    return spec, None if spec.parameters else LieAlgebra.from_table(spec.labels, spec.brackets)


def _at(spec: dsl.SpecFile, point: Sequence) -> tuple[dsl.SpecFile, LieAlgebra]:
    """A family's file at ``point``, and its algebra."""
    spec = dsl.at(spec, point)
    return spec, LieAlgebra.from_table(spec.labels, spec.brackets)


@cache
def _shipped(entry_id: str) -> tuple[str, dsl.SpecFile, LieAlgebra]:
    """Text, parse and algebra of a shipped file, read-only, once per process via ``read_text``."""
    text = shipped_file_text(entry_id)
    return (text, *read_text(text))


def _report_order(expected: dict[str, str], order: tuple[str, ...]) -> dict[str, str]:
    """Files store ``[expected]`` keys sorted; the report lists them in ``order``,
    with unknown keys last, in file order: merging ``expected`` keeps the known ones first."""
    return {**{key: expected[key] for key in order if key in expected}, **expected}


def entry_from_spec(entry_id: str, spec: dsl.SpecFile, algebra: LieAlgebra) -> CatalogEntry:
    """The pair (g, h, m, q) of a parsed file whose algebra ``read_text`` built, with
    ``[expected]`` in report order.  The isotropy generators must be independent.  The
    complement is the basis vectors that complete them in declared order, the whole basis
    when there are none, and the form keys must be their labels."""
    isotropy = [algebra.vector(combo) for combo in spec.isotropy]
    positions = _completion(isotropy, algebra.dim)
    if len(positions) + len(isotropy) != algebra.dim:
        raise ValueError("isotropy generators are linearly dependent")
    labels = [algebra.basis_names[p] for p in positions]
    form = None
    if spec.form is not None:
        for a, b in spec.form:
            if a not in labels or b not in labels:
                raise ValueError(f"form entry ({a},{b}) uses a label outside the complement {labels}")
        form = forms.QuadraticForm.from_sparse(labels, spec.form)
    basis = CMatrix.identity(algebra.dim).entries
    model = models.HomogeneousModel(algebra, isotropy, [basis[p] for p in positions], quotient_form=form)
    expected = _report_order(spec.expected, _MODEL_KEYS if isotropy else _METRIC_KEYS)
    return CatalogEntry(entry_id, algebra, model, expected)


def build_catalog() -> list[CatalogEntry]:
    """One entry per id of ``CATALOG_IDS``, built from its shipped file."""
    return [entry_from_spec(i, *_shipped(i)[1:]) for i in CATALOG_IDS]


# -- check plumbing --------------------------------------------------------


class CheckResult(Record):
    __slots__ = _fields = ("id", "status", "witness", "value")

    def __init__(self, id: str, status: str, witness: str | None = None, value: str | None = None):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "status", status)  # "pass" | "fail"
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "value", value)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class VerifyReport(Record):
    _fields = ("seed", "checks")
    __slots__ = _fields + ("fail_count",)  # fail_count: derived from checks, once

    def __init__(self, seed: int, checks: tuple[CheckResult, ...]):
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "fail_count", sum(not c.passed for c in checks))

    @property
    def pass_count(self) -> int:
        return len(self.checks) - self.fail_count

    @property
    def all_pass(self) -> bool:
        return self.fail_count == 0


def _json_records(records: Sequence[CheckResult]) -> str:
    """The records as ``json.dumps`` writes them at indent 2, as objects with keys in
    field order; ``encode_basestring_ascii`` quotes each string, in C.  ``json`` is
    imported here, so only ``--json`` output loads it."""
    from json.encoder import encode_basestring_ascii

    text = lambda field: "null" if field is None else encode_basestring_ascii(field)
    return "[\n" + ",\n".join(
        '  {\n    "id": %s,\n    "status": %s,\n    "witness": %s,\n    "value": %s\n  }'
        % (text(r.id), text(r.status), text(r.witness), text(r.value))
        for r in records
    ) + "\n]" if records else "[]"


def _check(
    check_id: str, ok: bool, witness: str | None = None, value: str | None = None
) -> CheckResult:
    return CheckResult(
        id=check_id,
        status="pass" if ok else "fail",
        witness=None if ok else witness,
        value=value,
    )


def _triple_str(algebra: LieAlgebra, indices: tuple[int, ...] | None) -> str | None:
    if indices is None:
        return None
    kind = {2: "pair", 3: "triple", 4: "quad"}.get(len(indices), "indices")
    names = ",".join(algebra.basis_names[t] for t in indices)
    return f"{kind}=({names})"


def _render_constant(k: GaussianRational | None) -> str:
    return "NotConstant" if k is None else f"Constant({k})"


def _jacobi_check(check_id: str, algebra: LieAlgebra) -> CheckResult:
    """Passes when the Jacobi identity holds; the witness names the first failing triple."""
    triple = jacobi_witness(algebra)
    return _check(check_id, triple is None, _triple_str(algebra, triple))


# -- the surface model -------------------------------------------------------
# The two identities that ``paper.verify_mobius`` proves, as polynomial defects.


def _mobius_numerator(a, b, c, d, z1, z2):
    """N with w1 - w2 = N / ((c z1 + d)(c z2 + d)) for w = (az + b)/(cz + d)."""
    return (a * z1 + b) * (c * z2 + d) - (a * z2 + b) * (c * z1 + d)


def _difference_defect(a, b, c, d, z1, z2):
    return _mobius_numerator(a, b, c, d, z1, z2) - (a * d - b * c) * (z1 - z2)


def _derivative_defect(a, b, c, d, z):
    return a * (c * z + d) - c * (a * z + b) - (a * d - b * c)


# -- the report --------------------------------------------------------------


def verify_all(
    seed: int = DEFAULT_SEED, catalog: Sequence[CatalogEntry] | None = None
) -> VerifyReport:
    """Run the full verification suite.

    No check reads ``seed``; the report only echoes it, so the report
    format stays stable.
    """
    if catalog is None:
        catalog = build_catalog()
    if not catalog:
        raise ValueError("empty catalog")
    ids = [entry.id for entry in catalog]
    if len(set(ids)) != len(ids):
        raise ValueError(f"repeated entry id {next(i for k, i in enumerate(ids) if i in ids[:k])!r}")
    from . import paper  # the fragments: compiled only by a process that runs the report

    checks: list[CheckResult] = []
    for fragment, takes_catalog in paper.FRAGMENTS:
        # Called by its module-level name, so that a wrapper put in its place runs.
        run = getattr(paper, fragment.__name__)
        checks.extend(run(catalog) if takes_catalog else run())
    ids = [c.id for c in checks]
    if len(set(ids)) != len(ids):
        raise AssertionError("duplicate check ids in report")
    return VerifyReport(seed=seed, checks=tuple(checks))


def report_to_json(report: VerifyReport) -> str:
    """Stable machine format: seed, checks[{id,status,witness,value}], summary, as
    ``json.dumps`` writes it at indent 2 (no quoted string holds a raw newline)."""
    checks = _json_records(report.checks).replace("\n", "\n  ")
    return (
        f'{{\n  "seed": {report.seed},\n  "checks": {checks},\n  "summary": {{\n'
        f'    "pass": {report.pass_count},\n    "fail": {report.fail_count}\n  }}\n}}'
    )
