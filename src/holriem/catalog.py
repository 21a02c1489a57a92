"""Built-in catalog of algebras, metrics and homogeneous models, plus the
verification suite that machine-checks every expected property.

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
stay grep-able.  ``verify_all`` runs the fragments of ``FRAGMENTS`` in
report order.  Every check is exact and draws no random numbers, so
``verify_all`` gives the same checks for every seed: a claim about a parameter
family is proved by ``_prove`` on a finite grid whose size the degree of the
claim bounds, which returns the first failing point with the defect found there.

One rule covers a check that cannot be computed (``_run``): the
``ValueError`` or ``OSError`` its computation raises fails it, with the
message as witness.  So a missing entry (``entry missing``) or file, an
entry without the model, metric or quotient form a check reads (a pair with
h != 0 has no connection yet), a fact that does not apply, a span that is not a
subalgebra and a generator N that is not nilpotent each fail the checks that
read them, and a grid point where the claim cannot be evaluated fails its
proof with ``at <point>: <message>``; the report never gets shorter.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property, lru_cache
from importlib import resources
from itertools import product, zip_longest
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Sequence

from . import dsl
from .forms import QuadraticForm
from .geometry import (
    ConnectionTable,
    CurvatureTensor,
    bianchi_defect,
    compatibility_defect,
    constant_curvature,
    constant_curvature_defect,
    constant_curvature_value,
    curvature,
    curvature_antisymmetry_defect,
    levi_civita,
    pair_skew_defect,
    stabilizer,
    stabilizer_in_skew,
    torsion_defect,
)
from .liealg import (
    LieAlgebra,
    center,
    classify_3d_unimodular,
    derived_algebra,
    derived_series,
    is_ideal,
    is_nilpotent,
    is_semisimple,
    is_unimodular,
    jacobi_witness,
    subalgebra,
)
from .linalg import CMatrix, Vector, _completion, _first, act, exp_nilpotent, in_span, nilpotent_powers
from .models import (
    HomogeneousModel,
    IsotropyType,
    check_invariance,
    invariant_forms,
    isotropy_type,
)
from .scalars import GaussianRational, ONE, Record, ZERO, as_gr, gr

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
        return levi_civita(self.algebra, self.form)

    @cached_property
    def tensor(self) -> CurvatureTensor:
        return curvature(self.algebra, self.connection)

    @cached_property
    def constant_curvature(self) -> GaussianRational | None:
        """The constant k of a metric of constant curvature k, else None."""
        return constant_curvature_value(self.form, self.tensor)

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
        return isotropy_type(_model(self))


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
    return _yes_no(check_invariance(model))


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
    "invariant_form_dim": lambda e: str(len(invariant_forms(_model(e)))),
}


def shipped_file_text(entry_id: str) -> str:
    return (resources.files("holriem") / "data" / f"{entry_id}.liealg").read_text(
        encoding="utf-8"
    )


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
    ``[expected]`` in report order.  The complement is the basis vectors that complete the
    isotropy in declared order, the whole basis when it is empty, and the form keys must be
    their labels."""
    isotropy = [algebra.vector(combo) for combo in spec.isotropy]
    positions = _completion(isotropy, algebra.dim)
    labels = [algebra.basis_names[p] for p in positions]
    form = None
    if spec.form is not None:
        for a, b in spec.form:
            if a not in labels or b not in labels:
                raise ValueError(f"form entry ({a},{b}) uses a label outside the complement {labels}")
        form = QuadraticForm.from_sparse(labels, spec.form)
    basis = CMatrix.identity(algebra.dim).entries
    model = HomogeneousModel(algebra, isotropy, [basis[p] for p in positions], quotient_form=form)
    expected = _report_order(spec.expected, _MODEL_KEYS if isotropy else _METRIC_KEYS)
    return CatalogEntry(entry_id, algebra, model, expected)


def build_catalog() -> list[CatalogEntry]:
    """One entry per id of ``CATALOG_IDS``, built from its shipped file."""
    return [entry_from_spec(i, *_shipped(i)[1:]) for i in CATALOG_IDS]


def check_prop_iv(point: Sequence) -> bool:
    """Flat-case criterion of the stabilizer family at (c, m, k, beta): c = 0, k = -beta^2.

    True iff span{X, Z - beta*Y, T} of the family file's algebra at the point
    is bracket-closed and is a Heisenberg algebra whose center is spanned by
    X.  A nonzero m parameter is what makes the span literally Heisenberg.
    """
    c, _, k, beta = map(as_gr, point)
    if c or k + beta * beta:
        raise ValueError("requires c = 0 and k + beta^2 = 0 exactly")
    algebra = _at(_shipped(FAMILY_ID)[1], point)[1]
    generators = [algebra.vector("X"), algebra.vector({"Z": 1, "Y": -beta}), algebra.vector("T")]
    try:
        span = CatalogEntry("iv", subalgebra(algebra, generators, basis_names=("X", "V", "T")))
        return FACTS["class"](span) == "HEIS" and _center_is_x_line(span)
    except ValueError:
        return False


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


def _json_text(text: str | None) -> str:
    return "null" if text is None else encode_basestring_ascii(text)


def _json_records(records: Sequence[CheckResult]) -> str:
    """The records as ``json.dumps`` writes them at indent 2, as objects with keys in
    field order; ``encode_basestring_ascii`` quotes each string, in C."""
    return "[\n" + ",\n".join(
        '  {\n    "id": %s,\n    "status": %s,\n    "witness": %s,\n    "value": %s\n  }'
        % (_json_text(r.id), _json_text(r.status), _json_text(r.witness), _json_text(r.value))
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


def _run(check_id: str, check: Callable[..., CheckResult], *args) -> CheckResult:
    """``check(check_id, *args)``, or a failing record whose witness is the
    message of the ValueError or OSError raised while computing it."""
    try:
        return check(check_id, *args)
    except (OSError, ValueError) as exc:
        return _check(check_id, False, witness=str(exc))


def _triple_str(algebra: LieAlgebra, indices: tuple[int, ...] | None) -> str | None:
    if indices is None:
        return None
    kind = {2: "pair", 3: "triple", 4: "quad"}.get(len(indices), "indices")
    names = ",".join(algebra.basis_names[t] for t in indices)
    return f"{kind}=({names})"


def _render_constant(k: GaussianRational | None) -> str:
    return "NotConstant" if k is None else f"Constant({k})"


# -- per-entry checks ------------------------------------------------------


def _jacobi_check(check_id: str, algebra: LieAlgebra) -> CheckResult:
    """Passes when the Jacobi identity holds; the witness names the first failing triple."""
    triple = jacobi_witness(algebra)
    return _check(check_id, triple is None, _triple_str(algebra, triple))


def verify_entry(entry: CatalogEntry) -> list[CheckResult]:
    """Jacobi, then each ``[expected]`` property, then the identities of the metric."""
    checks = [_jacobi_check(f"{entry.id}/jacobi", entry.algebra)]
    for key, expected in (entry.expected or {}).items():
        checks.append(_run(f"{entry.id}/{key}", _property_check, entry, key, expected))
    if entry.form is not None and not entry.model.isotropy:
        checks.extend(_metric_identity_checks(entry))
    return checks


def _property_check(check_id: str, entry: CatalogEntry, key: str, expected: str) -> CheckResult:
    if key not in FACTS:
        return _check(check_id, False, witness=f"unknown expected property {key!r}")
    got = FACTS[key](entry)
    ok, witness = got == expected, f"got {got}"
    if key == "constant_curvature":
        # ``none`` or the entry's own constant passes unscanned; another constant is
        # tested triple by triple, and the witness names the first failing triple.
        k = None if expected == "none" else dsl.parse_scalar(expected)
        ok = entry.constant_curvature == k
        if not ok and k is not None:
            defect = constant_curvature_defect(entry.form, entry.tensor, k)
            ok, witness = defect is None, f"{_triple_str(entry.algebra, defect)} {witness}"
    return _check(check_id, ok, witness, got)


def _metric_identity_checks(entry: CatalogEntry) -> list[CheckResult]:
    """The identities of the connection and the curvature, each computed
    under ``_run``, so that a metric without a connection fails them."""
    return [
        _run(f"{entry.id}/{suffix}", _index_check, entry.algebra, defect)
        for suffix, defect in (
            ("torsion_free", lambda: torsion_defect(entry.algebra, entry.connection)),
            ("metric_compatible", lambda: compatibility_defect(entry.form, entry.connection)),
            ("curvature_antisymmetry", lambda: curvature_antisymmetry_defect(entry.tensor)),
            ("first_bianchi", lambda: bianchi_defect(entry.tensor)),
            ("curvature_pair_skew", lambda: pair_skew_defect(entry.form, entry.tensor)),
        )
    ]


def _index_check(check_id: str, algebra: LieAlgebra, defect: Callable[[], tuple | None]) -> CheckResult:
    """Passes when ``defect()`` finds no violating index tuple; the witness names the first."""
    indices = defect()
    return _check(check_id, indices is None, _triple_str(algebra, indices))


# -- fragments -------------------------------------------------------------


class _Entries(dict):
    """A catalog's entries by id; an absent one raises ValueError("entry missing")."""

    def __init__(self, catalog: Iterable[CatalogEntry]):
        super().__init__((entry.id, entry) for entry in catalog)

    def __missing__(self, entry_id: str) -> CatalogEntry:
        raise ValueError("entry missing")


def _run_rows(rows: Iterable[tuple], *shared) -> list[CheckResult]:
    """``_run`` of each (check id, check, *args) row, with ``shared`` passed before ``args``."""
    return [_run(check_id, check, *shared, *args) for check_id, check, *args in rows]


_UNIMODULAR_IDS = ("flat_c3", "heis3", "sol3", "sl2")


def verify_prop_unimodular(catalog: Sequence[CatalogEntry]) -> list[CheckResult]:
    """Constant-curvature certificates for the four unimodular classes.

    Flat exactly for the solvable three; nonzero constant for sl(2).
    """
    rows = [(f"unimodular3/{i}", _unimodular_curvature, i) for i in _UNIMODULAR_IDS]
    rows.append(("unimodular3/flat_iff_solvable", _flat_iff_solvable))
    return _run_rows(rows, _Entries(catalog))


def _unimodular_curvature(check_id: str, entries: _Entries, entry_id: str) -> CheckResult:
    k = entries[entry_id].constant_curvature
    value = _render_constant(k)
    ok = k is not None and bool(k) == (entry_id == "sl2")
    return _check(check_id, ok, witness=f"got {value}", value=value)


def _flat_iff_solvable(check_id: str, entries: _Entries) -> CheckResult:
    mismatches = [
        entry_id
        for entry_id in _UNIMODULAR_IDS
        if (entries[entry_id].constant_curvature == 0) != (entries[entry_id].derived_series[-1] == 0)
    ]
    value = f"{len(_UNIMODULAR_IDS)} entries"
    return _check(check_id, not mismatches, f"mismatch at {','.join(mismatches)}", value)


# The (a, b) = (1, 1) member q(H,H) = a, q(E,F) = b of the invariant forms on sl(2).
_GENERIC_AB_FORM = QuadraticForm.from_sparse(("H", "E", "F"), {("H", "H"): 1, ("E", "F"): 1})


def verify_section4(catalog: Sequence[CatalogEntry]) -> list[CheckResult]:
    """Semisimple-part models: curvature of the invariant metrics on sl(2).

    The quotient form q(H,H) = 2, q(E,F) = 1 of ``c_oplus_sl2`` is the
    Killing-proportional case; (a, b) = (1, 1) is a generic one, tested
    against the model's isotropy actions.
    """
    return _run_rows(
        (
            (
                "semisimple4/killing_proportional_constant",
                _sl2_curvature,
                "c_oplus_sl2",
                "Constant(-1/2)",
            ),
            ("semisimple4/general_ab_invariance", _general_ab_invariance),
            ("semisimple4/general_ab_report", _sl2_curvature, None, "NotConstant"),
        ),
        _Entries(catalog),
    )


def _quotient_form(entry: CatalogEntry) -> QuadraticForm:
    form = _model(entry).quotient_form
    if form is None:
        raise ValueError("model carries no quotient form")
    return form


def _sl2_curvature(check_id: str, entries: _Entries, model_id: str | None, want: str) -> CheckResult:
    """The curvature on sl(2) of the quotient form of the model ``model_id``,
    or of the generic form when that is None, renders as ``want``."""
    form = _GENERIC_AB_FORM if model_id is None else _quotient_form(entries[model_id])
    value = _render_constant(constant_curvature(entries["sl2"].algebra, form))
    return _check(check_id, value == want, witness=f"got {value}", value=value)


def _general_ab_invariance(check_id: str, entries: _Entries) -> CheckResult:
    ok = check_invariance(_model(entries["c_oplus_sl2"]), _GENERIC_AB_FORM)
    return _check(check_id, ok, witness="invariance failed for (a,b)=(1,1)")


def verify_section5_tables(catalog: Sequence[CatalogEntry]) -> list[CheckResult]:
    semisimple = ("c_times_sol", "c_ltimes_heis", "c2_semidirect_c2")
    unipotent = ("heis_stab_zero", "heis_stab_generic")
    return _run_rows(
        (
            ("solvable4/case1_center", _x_line_center_check, "c_times_sol"),
            ("solvable4/case1_sol_span", _span_class_check, "c_times_sol", ("Y", "Z", "T"), "SOL"),
            ("solvable4/case2_center", _x_line_center_check, "c_ltimes_heis"),
            (
                "solvable4/case2_heis_ideal",
                _span_class_check,
                "c_ltimes_heis",
                ("X", "Z", "T"),
                "HEIS",
                True,
            ),
            ("solvable4/case2_weights", _case2_weights_check),
            ("solvable4/case3_center", _case3_center_check),
            ("solvable4/isotropy_semisimple", _isotropy_check, semisimple, "SEMISIMPLE"),
            ("solvable4/family_isotropy_unipotent", _isotropy_check, unipotent, "UNIPOTENT"),
        ),
        _Entries(catalog),
    )


def _center_is_x_line(entry: CatalogEntry) -> bool:
    central = entry.center
    return len(central) == 1 and in_span([entry.algebra.basis_vector("X")], central[0])


def _x_line_center_check(check_id: str, entries: _Entries, entry_id: str) -> CheckResult:
    ok = _center_is_x_line(entries[entry_id])
    return _check(check_id, ok, witness="center is not the X line")


def _span_class_check(
    check_id: str,
    entries: _Entries,
    entry_id: str,
    labels: tuple[str, ...],
    tag: str,
    ideal: bool = False,
) -> CheckResult:
    """The span of the labelled basis vectors is a subalgebra of class ``tag``,
    and an ideal when ``ideal`` is set."""
    g = entries[entry_id].algebra
    vectors = [g.vector(label) for label in labels]
    got = FACTS["class"](CatalogEntry(check_id, subalgebra(g, vectors)))
    ok = got == tag and (not ideal or is_ideal(g, vectors))
    return _check(check_id, ok, witness=f"got {got}", value=got)


def _case2_weights_check(check_id: str, entries: _Entries) -> CheckResult:
    action = _model(entries["c_ltimes_heis"]).actions[0]
    ok = action == CMatrix.diagonal([0, 1, -1])
    return _check(check_id, ok, witness=f"induced action {action}", value="0,1,-1")


def _case3_center_check(check_id: str, entries: _Entries) -> CheckResult:
    dim = FACTS["center_dim"](entries["c2_semidirect_c2"])
    return _check(check_id, dim == "0", witness=f"center dimension {dim}", value=dim)


def _isotropy_check(
    check_id: str, entries: _Entries, entry_ids: tuple[str, ...], tag: str
) -> CheckResult:
    """Every listed entry is a model of isotropy type ``tag``."""
    wrong = [entry_id for entry_id in entry_ids if FACTS["isotropy"](entries[entry_id]) != tag]
    return _check(check_id, not wrong, witness=f"unexpected type at {','.join(wrong)}")


def verify_isotropy_dimension_bounds(catalog: Sequence[CatalogEntry]) -> list[CheckResult]:
    """Dimensions of so(q) and of the stabilizers in it of a unit vector, a
    null vector and a frame, for the adapted form q of ``heis_stab_zero``."""
    # so(q), and with it G^-1, is derived once per report; each stabilizer is cut from it.
    so_q = cache(lambda: stabilizer_in_skew(_quotient_form(_Entries(catalog)["heis_stab_zero"]), []))
    unit, null, frame_partner = (gr(0), gr(1), gr(0)), (gr(1), gr(0), gr(0)), (gr(1), gr(0), gr(1))
    return [
        _run(f"isotropy-bounds/{name}", _stabilizer_dim_check, so_q, fixed, want)
        for name, fixed, want in (
            ("so_q_dim", [], 3),
            ("fix_unit_vector", [unit], 1),
            ("fix_null_vector", [null], 1),
            ("fix_frame", [unit, frame_partner], 0),
        )
    ]


def _stabilizer_dim_check(check_id: str, so_q: Callable, fixed: list, want: int) -> CheckResult:
    dim = len(stabilizer(so_q(), fixed))
    return _check(check_id, dim == want, f"got {dim}", str(dim))


# -- grid proofs -------------------------------------------------------------


def _lattice(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """The principal lattice {p in N^nvars : sum(p) <= degree}, in lexicographic order."""
    if not nvars:
        return ((),)
    return tuple((x, *rest) for x in range(degree + 1) for rest in _lattice(nvars - 1, degree - x))


def _box(size: int, nvars: int) -> tuple[tuple[int, ...], ...]:
    """The product grid range(size)^nvars, in lexicographic order."""
    return tuple(product(range(size), repeat=nvars))


def _prove(points: Sequence[tuple], defect: Callable[..., object]) -> tuple[tuple | None, object]:
    """The first point p of ``points`` where ``defect(*p)`` is nonzero and that defect, or (None, None);
    a ValueError raised at p is raised again as ``at <p>: <message>``.

    A polynomial of total degree <= d that vanishes on the principal lattice
    of degree d is zero (Chung and Yao, SIAM J. Numer. Anal. 1977); so is one
    of degree <= d in each variable that vanishes on {0, ..., d}^n (Alon,
    "Combinatorial Nullstellensatz", Combin. Probab. Comput. 1999).
    """
    found = None

    def bad(*point):
        nonlocal found
        try:
            found = defect(*point)
        except ValueError as exc:
            raise ValueError(f"at {point}: {exc}") from None
        return found

    point = _first(points, bad)
    return point, None if point is None else found


def _grid_check(
    check_id: str,
    points: Sequence[tuple],
    defect: Callable[..., object],
    witness: Callable[[tuple, object], str] = lambda p, found: f"at {p}: {found}",
    unit: str | None = None,
) -> CheckResult:
    """Passes when ``defect`` vanishes on ``points``; ``witness(point, defect)`` describes the first
    point where it does not and the defect found there; the value counts the points in ``unit``."""
    point, found = _prove(points, defect)
    return _check(check_id, point is None, point and witness(point, found), unit and f"{len(points)} {unit}")


def _family_jacobi(check_id: str, spec: dsl.SpecFile | None = None) -> CheckResult:
    """Jacobi at every point of the lattice of degree 2d of a family file of degree d, by
    default the stabilizer family's: each Jacobiator entry has degree <= 2d in the parameters."""
    spec = _shipped(FAMILY_ID)[1] if spec is None else spec

    def jacobi(*p):
        witness = _jacobi_check(check_id, _at(spec, p)[1]).witness
        return witness and f"Jacobi fails, {witness}"

    grid = _lattice(len(spec.parameters), 2 * dsl.degree(spec))
    return _grid_check(check_id, grid, jacobi, unit="grid points")


def _family_isotropy(check_id: str) -> CheckResult:
    """At every point of the lattice of the stabilizer family's degree d, the isotropy frame and
    the induced action are the origin's, where the action is nilpotent: a frame of degree <= d
    fixed on the lattice is fixed, and with it ``induced_ad`` has degree <= d."""
    spec, origin = _shipped(FAMILY_ID)[1], []  # origin: the frame and action at grid[0]
    degree = dsl.degree(spec)
    grid, unit = _lattice(len(spec.parameters), degree), "affine points" if degree == 1 else "grid points"

    def defect(*p):
        model = _model(entry_from_spec(spec.name, *_at(spec, p)))
        frame, action = model.isotropy + model.complement, model.actions[0]
        if p == grid[0]:
            nilpotent_powers(action)  # a ValueError when the origin's action is not nilpotent
            origin[:] = frame, action
        if frame != origin[0]:
            return "isotropy or complement moved"
        return action != origin[1] and f"induced action {action}"

    return _grid_check(check_id, grid, defect, unit=unit)


def verify_heis_family() -> list[CheckResult]:
    """Jacobi and unipotent isotropy proved for every parameter value of the
    stabilizer family's file, and the flat case (iv) at four parameter values."""
    betas = (("beta0", gr(0)), ("beta1", gr(1)), ("betai", gr(0, 1)), ("beta3_2", gr(Fraction(3, 2))))
    return _run_rows(
        (
            ("heis-family/jacobi", _family_jacobi),
            ("heis-family/isotropy_unipotent", _family_isotropy),
            *((f"heis-family/iv_{tag}", _flat_case_check, beta) for tag, beta in betas),
        )
    )


def _flat_case_check(check_id: str, beta: GaussianRational) -> CheckResult:
    point = (ZERO, ONE, -(beta * beta), beta)
    return _check(check_id, check_prop_iv(point), f"at ({', '.join(map(str, point))})")


def verify_flow_identities(catalog: Sequence[CatalogEntry]) -> list[CheckResult]:
    """The isotropy flow L_t = exp(tN) of ``heis_stab_zero`` preserves its adapted form Q
    and is a one-parameter group, proved on grids.

    With nu the least k where N^k = 0, the entries of L_t have degree <= nu - 1 in t.  So
    those of L_t^T Q L_t - Q vanish identically once they vanish at t = 0, ..., 2(nu - 1),
    and vanishing on {0, ..., nu - 1}^2 proves the group law L_s L_t = L_(s+t); each L_t is
    built once.  N^T Q + Q N = 0, the derivative at t = 0, is checked on act(N, Q, "dd").
    """
    entries = _Entries(catalog)
    form = lambda: _quotient_form(entries["heis_stab_zero"])  # Q
    generator = lambda: _model(entries["heis_stab_zero"]).actions[0]  # N

    @cache
    def flows() -> tuple[int, list[CMatrix]]:  # nu, and L_t for the t = 0, ..., 2(nu - 1) of the grids
        powers = nilpotent_powers(generator())
        return len(powers), exp_nilpotent(powers, range(2 * len(powers) - 1))

    def gram_polynomial(check_id: str) -> CheckResult:
        (nu, flow), q = flows(), form().gram
        moves_q = lambda t: flow[t].transpose() @ q @ flow[t] != q
        return _grid_check(check_id, _lattice(1, 2 * (nu - 1)), moves_q, lambda p, _: f"at t={p[0]}")

    def generator_skew(check_id: str) -> CheckResult:
        n, skew = form().dim, act(generator(), form().gram.flat, "dd")
        witness = lambda p, _: f"N^T Q + Q N nonzero at (i,j)={p}"
        return _grid_check(check_id, _box(n, 2), lambda i, j: skew[n * i + j], witness)

    def one_parameter_group(check_id: str) -> CheckResult:
        nu, flow = flows()
        not_a_group = lambda s, t: flow[s] @ flow[t] != flow[s + t]
        return _grid_check(check_id, _box(nu, 2), not_a_group, lambda p, _: f"at (s,t)={p}")

    return _run_rows((f"flow/{c.__name__}", c) for c in (gram_polynomial, generator_skew, one_parameter_group))


# -- the surface model -------------------------------------------------------


def _mobius_numerator(a, b, c, d, z1, z2):
    """N with w1 - w2 = N / ((c z1 + d)(c z2 + d)) for w = (az + b)/(cz + d)."""
    return (a * z1 + b) * (c * z2 + d) - (a * z2 + b) * (c * z1 + d)


def _difference_defect(a, b, c, d, z1, z2):
    return _mobius_numerator(a, b, c, d, z1, z2) - (a * d - b * c) * (z1 - z2)


def _derivative_defect(a, b, c, d, z):
    return a * (c * z + d) - c * (a * z + b) - (a * d - b * c)


def verify_mobius() -> list[CheckResult]:
    """Invariance of the surface metric dz1 dz2 / (z1 - z2)^2 under every
    fractional-linear map w = (az + b)/(cz + d), proved exactly.

    With D = ad - bc and N = (a z1 + b)(c z2 + d) - (a z2 + b)(c z1 + d):

        N = D (z1 - z2),           so  w1 - w2 = D (z1 - z2) / ((c z1 + d)(c z2 + d)),
        a(cz + d) - c(az + b) = D, so  w'(z) = D / (cz + d)^2 (quotient rule),

    hence w'(z1) w'(z2) / (w1 - w2)^2 = 1 / (z1 - z2)^2 wherever D, c z1 + d,
    c z2 + d and z1 - z2 are nonzero.  Each identity's difference of sides has
    degree <= 1 in every variable, so it vanishes identically once it vanishes
    on {0,1}^6, respectively {0,1}^5.  ``mobius/identity`` and
    ``mobius/translation`` prove the first identity for the fixed matrices
    ((1,0),(0,1)) and ((1,1),(0,1)) on {0,1}^2 in (z1, z2);
    ``mobius/invariance`` proves both identities on their full grids.
    """
    difference, derivative = "N != (ad-bc)(z1-z2)", "a(cz+d) - c(az+b) != ad-bc"
    # A point of {0,1}^5 tests the derivative identity, one of {0,1}^2 or {0,1}^6 the difference.
    names = {2: "z1,z2", 5: "a,b,c,d,z", 6: "a,b,c,d,z1,z2"}
    scalar = (ZERO, ONE).__getitem__  # a grid coordinate 0 or 1 as the shared constant

    def witness(p: tuple[int, ...], _) -> str:
        return f"at ({names[len(p)]})={p}: {derivative if len(p) == 5 else difference}"

    def invariance(*p: int):
        return (_derivative_defect if len(p) == 5 else _difference_defect)(*map(scalar, p))

    return [
        _run(check_id, _grid_check, points, defect, witness, "grid points")
        for check_id, points, defect in (
            ("mobius/identity", _box(2, 2), lambda *z: _difference_defect(*map(scalar, (1, 0, 0, 1, *z)))),
            ("mobius/translation", _box(2, 2), lambda *z: _difference_defect(*map(scalar, (1, 1, 0, 1, *z)))),
            ("mobius/invariance", _box(2, 6) + _box(2, 5), invariance),
        )
    ]


# -- shipped files -----------------------------------------------------------


def verify_shipped_files() -> list[CheckResult]:
    """Each shipped file reads, parses, names its entry and is stored canonically."""
    return _run_rows((f"files/{entry_id}", _shipped_file_check, entry_id) for entry_id in CATALOG_IDS)


def _shipped_file_check(check_id: str, entry_id: str) -> CheckResult:
    text, spec, _ = _shipped(entry_id)
    if spec.name != entry_id:
        return _check(check_id, False, witness=f"name is {spec.name!r}")
    pairs = zip_longest(text.splitlines(keepends=True), dsl.serialize(spec).splitlines(keepends=True))
    line = next((n for n, (got, want) in enumerate(pairs, 1) if got != want), None)
    return _check(check_id, line is None, witness=f"not canonical at line {line}")


# -- top level ---------------------------------------------------------------


def _entry_checks(catalog: Sequence[CatalogEntry]) -> list[CheckResult]:
    """The checks of each entry, then a failing one for each entry the catalog lacks."""
    checks = [check for entry in catalog for check in verify_entry(entry)]
    present = {entry.id for entry in catalog}
    checks.extend(_check(f"{i}/entry", False, "entry missing") for i in CATALOG_IDS if i not in present)
    return checks


# The fragments of the report in report order, each with whether it takes the catalog.
FRAGMENTS: tuple[tuple[Callable[..., list[CheckResult]], bool], ...] = (
    (_entry_checks, True),
    (verify_prop_unimodular, True),
    (verify_section4, True),
    (verify_section5_tables, True),
    (verify_isotropy_dimension_bounds, True),
    (verify_heis_family, False),
    (verify_flow_identities, True),
    (verify_shipped_files, False),
    (verify_mobius, False),
)


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
    checks: list[CheckResult] = []
    for fragment, takes_catalog in FRAGMENTS:
        # Called by its module-level name, so that a wrapper put in its place runs.
        run = globals()[fragment.__name__]
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
