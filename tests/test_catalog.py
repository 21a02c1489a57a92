"""Catalog content and the verification suite over it."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from conftest import ad, failed_checks, family_at, metric_pair, nabla

from holriem import catalog, dsl, geometry, linalg, models
from holriem.catalog import (
    CATALOG_IDS,
    FAMILY_ID,
    CatalogEntry,
    build_catalog,
    check_prop_iv,
    report_to_json,
    shipped_file_text,
    verify_all,
    verify_entry,
    verify_isotropy_dimension_bounds,
    verify_prop_unimodular,
    verify_section4,
    verify_section5_tables,
    verify_shipped_files,
)
from holriem.liealg import LieAlgebra, jacobi_witness, killing_form
from holriem.forms import QuadraticForm
from holriem.linalg import CMatrix, vadd
from holriem.models import isotropy_type
from holriem.scalars import GaussianRational, gr


def _by_id(catalog, entry_id):
    return next(e for e in catalog if e.id == entry_id)


def test_catalog_entries_present_and_jacobi_clean():
    catalog = build_catalog()
    ids = {e.id for e in catalog}
    assert {
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
    } <= ids
    for entry in catalog:
        assert jacobi_witness(entry.algebra) is None, entry.id


def test_heis3_bracket_table():
    entry = _by_id(build_catalog(), "heis3")
    g = entry.algebra
    from holriem.liealg import bracket

    assert bracket(g, g.vector("Y"), g.vector("Z")) == g.vector("X")
    assert ad(g, g.vector("X")).is_zero()


def test_c2_semidirect_action_matrices():
    g = _by_id(build_catalog(), "c2_semidirect_c2").algebra
    # Actions of the first-factor generators on the (Z, T) plane.
    index_z, index_t = g.index("Z"), g.index("T")

    def restricted(label):
        full = ad(g, g.vector(label))
        return CMatrix(
            [
                [full.entries[index_z][index_z], full.entries[index_z][index_t]],
                [full.entries[index_t][index_z], full.entries[index_t][index_t]],
            ]
        )

    assert restricted("Y") == CMatrix.diagonal([1, -1])
    assert restricted("X") == CMatrix.diagonal([0, -1])


def test_param_extension_zero_point():
    g = family_at((0, 0, 0, 0)).algebra
    assert jacobi_witness(g) is None
    full = ad(g, g.vector("T"))
    order = [g.index("X"), g.index("Z"), g.index("Y")]
    restricted = CMatrix(
        [[full.entries[a][b] for b in order] for a in order]
    )
    assert restricted == CMatrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])


def test_param_extension_random_points_jacobi(random_family_point):
    rng = random.Random(2024)
    for _ in range(100):
        assert jacobi_witness(family_at(random_family_point(rng)).algebra) is None


def test_param_extension_corrupted_table():
    # Forcing ad(T) X = c X + Z breaks the derivation condition.
    corrupted = LieAlgebra.from_table(
        ("X", "Y", "Z", "T"),
        {
            ("Y", "Z"): {"X": 1},
            ("T", "X"): {"X": 1, "Z": 1},
            ("T", "Z"): {"X": 0, "Z": 1, "Y": 0},
            ("T", "Y"): {"Z": 1},
        },
    )
    assert jacobi_witness(corrupted) is not None


def test_check_prop_iv_cases():
    from fractions import Fraction

    for beta in (gr(0), gr(1), gr(0, 1), gr(Fraction(3, 2))):
        assert check_prop_iv((0, 1, -(beta * beta), beta))
    # The span is abelian (not Heisenberg) when m = 0.
    assert not check_prop_iv((0, 0, 0, 0))


def test_check_prop_iv_precondition():
    with pytest.raises(ValueError):
        check_prop_iv((0, 1, 0, 1))
    with pytest.raises(ValueError):
        check_prop_iv((1, 1, 0, 0))


def test_family_isotropy_unipotent_random(random_family_point):
    rng = random.Random(17)
    for _ in range(20):
        model = family_at(random_family_point(rng)).model
        assert isotropy_type(model).name == "UNIPOTENT"


FLAT_CASES = tuple(f"heis-family/iv_{tag}" for tag in ("beta0", "beta1", "betai", "beta3_2"))
FAMILY_PROOFS = ("heis-family/jacobi", "heis-family/isotropy_unipotent")

# Mutation of the family file (a line, and what replaces it) -> the failing
# checks, by the start of their witness.
FAMILY_MUTATIONS = {
    # ad(T) X = c X + Z breaks the derivation condition at every point; the
    # flat cases read the same file, and their span is no longer closed.
    "corrupted_TX": (
        ('"X,T" = (-c) X', '"X,T" = (-c) X - Z'),
        {"heis-family/jacobi": "at (0, 0, 0, 0): Jacobi fails, triple=(X,Y,T)"}
        | {check_id: "at (0, 1, " for check_id in FLAT_CASES},
    ),
    # [X,T] gains -m Y: Jacobi fails once m is nonzero, and the flat cases,
    # all at m = 1, find their span not closed.
    "gains_mY": (
        ('"X,T" = (-c) X', '"X,T" = (-c) X + (-m) Y'),
        {"heis-family/jacobi": "at (0, 1, 0, 0): Jacobi fails, triple=(X,Z,T)"}
        | {check_id: "at (0, 1, " for check_id in FLAT_CASES},
    ),
    # m + c^2 keeps Jacobi (m never enters it): a degree-2 file, proved on
    # the larger lattices, fails nothing.
    "c_squared": (('"Z,T" = (-m) X', '"Z,T" = (-m - c*c) X'), {}),
    # [T,Y] = (1 + c) Z - beta Y keeps Jacobi and a nilpotent action, but the
    # action is no longer the flow generator.
    "TY_scaled": (
        ('"Y,T" = (beta) Y - Z', '"Y,T" = (beta) Y + (-1 - c) Z'),
        {"heis-family/isotropy_unipotent": "at (1, 0, 0, 0): induced action"},
    ),
    # Y + c X moves the isotropy at the first lattice point where c is nonzero.
    "isotropy_moves": (
        ("gen = Y", "gen = Y + (c) X"),
        {"heis-family/isotropy_unipotent": "at (1, 0, 0, 0): isotropy or complement moved"},
    ),
    # Y + c T moves it too, and there the complement drops T, which the form reads.
    "isotropy_leaves_the_form": (
        ("gen = Y", "gen = Y + (c) T"),
        {"heis-family/isotropy_unipotent": "at (1, 0, 0, 0): form entry (X,T) uses a label outside"},
    ),
    # [Y,Z] = X + Z gives ad(Y) the eigenvalue 1 on Z, at every point: the
    # origin's action is not nilpotent, and Jacobi fails once beta is nonzero.
    "YZ_gains_Z": (
        ('"Y,Z" = X', '"Y,Z" = X + Z'),
        {
            "heis-family/jacobi": "at (0, 0, 0, 1): Jacobi fails, triple=(Y,Z,T)",
            "heis-family/isotropy_unipotent": "at (0, 0, 0, 0): matrix [0, 1, 0; 0, 1, -1; 0, 0, 0] is not",
        },
    ),
}


def _mutated_family(shipped_text, old, new):
    text = shipped_file_text(FAMILY_ID)
    assert old in text
    shipped_text[FAMILY_ID] = text.replace(old, new)


@pytest.mark.parametrize("name", sorted(FAMILY_MUTATIONS))
def test_family_proofs_fail_on_a_mutated_builder(name, shipped_text):
    (old, new), failing = FAMILY_MUTATIONS[name]
    _mutated_family(shipped_text, old, new)
    checks = catalog.verify_heis_family()
    assert [c.id for c in checks] == [*FAMILY_PROOFS, *FLAT_CASES]
    failures = {c.id: c.witness for c in checks if not c.passed}
    assert failures.keys() == failing.keys()
    for check_id, witness in failing.items():
        assert failures[check_id].startswith(witness), failures[check_id]


def test_family_proofs_take_their_lattices_from_the_file_degree(shipped_text):
    assert [c.value for c in catalog.verify_heis_family()[:2]] == ["15 grid points", "5 affine points"]
    _mutated_family(shipped_text, *FAMILY_MUTATIONS["c_squared"][0])
    catalog._shipped.cache_clear()
    family = catalog._shipped(FAMILY_ID)[1]
    assert dsl.degree(family) == 2
    checks = catalog.verify_heis_family()[:2]
    assert [(c.status, c.value) for c in checks] == [
        ("pass", "70 grid points"),
        ("pass", "15 grid points"),
    ]


def test_family_isotropy_fails_when_the_frame_moves(shipped_text):
    _mutated_family(shipped_text, *FAMILY_MUTATIONS["isotropy_moves"][0])
    failures = {c.id: c.witness for c in failed_checks(verify_all(42))}
    assert failures == {
        "heis-family/isotropy_unipotent": "at (1, 0, 0, 0): isotropy or complement moved"
    }


def test_family_isotropy_needs_a_nilpotent_generator(shipped_text):
    # The points agree with the origin, whose action is tested for nilpotency.
    _mutated_family(shipped_text, *FAMILY_MUTATIONS["YZ_gains_Z"][0])
    failures = {c.id: c for c in catalog.verify_heis_family() if not c.passed}
    assert list(failures) == ["heis-family/jacobi", "heis-family/isotropy_unipotent"]
    check = failures["heis-family/isotropy_unipotent"]
    assert check.witness == "at (0, 0, 0, 0): matrix [0, 1, 0; 0, 1, -1; 0, 0, 0] is not nilpotent"


def test_family_proofs_build_the_family_on_the_grids_only(monkeypatch):
    calls = []
    real = catalog._at

    def counted(spec, point):
        calls.append(point)
        return real(spec, point)

    monkeypatch.setattr(catalog, "_at", counted)
    assert all(c.passed for c in catalog.verify_heis_family())
    # 15 lattice points, 5 affine points for the models, 4 flat cases.
    assert len(calls) == 15 + 5 + 4


@pytest.mark.parametrize(
    "mutation, check_id, proof, grid",
    [
        ("gains_mY", "heis-family/jacobi", catalog._family_jacobi, catalog._lattice(4, 2)),
        ("TY_scaled", "heis-family/isotropy_unipotent", catalog._family_isotropy, catalog._lattice(4, 1)),
    ],
    ids=["jacobi", "isotropy"],
)
def test_a_failing_family_proof_evaluates_each_point_once(
    mutation, check_id, proof, grid, shipped_text, monkeypatch
):
    # The witness reports the defect the proof found, so no point is evaluated again.
    _mutated_family(shipped_text, *FAMILY_MUTATIONS[mutation][0])
    points, entries = [], []
    real_at, real_entry = catalog._at, catalog.entry_from_spec

    def counted_at(spec, point):
        points.append(point)
        return real_at(spec, point)

    def counted_entry(*args):
        entries.append(args[0])
        return real_entry(*args)

    monkeypatch.setattr(catalog, "_at", counted_at)
    monkeypatch.setattr(catalog, "entry_from_spec", counted_entry)
    witness = FAMILY_MUTATIONS[mutation][1][check_id]
    assert proof(check_id).witness.startswith(witness)
    # The proof stops at its first failing point, away from the origin.
    failing = grid.index(points[-1])
    assert witness.startswith(f"at {grid[failing]}: ") and failing > 0
    assert points == list(grid[: failing + 1])
    # The Jacobi proof builds algebras only; the isotropy proof one entry per point.
    assert len(entries) == (failing + 1 if proof is catalog._family_isotropy else 0)


def test_a_model_that_cannot_be_built_fails_the_family_isotropy_at_its_point(shipped_text):
    # c Y: at c = 0 the isotropy generator vanishes, and the complement that
    # completes nothing, X, Y, Z, leaves out the T of the form.
    _mutated_family(shipped_text, "gen = Y", "gen = (c) Y")
    report = verify_all(42)
    assert len(report.checks) == 135
    assert [(c.id, c.witness) for c in failed_checks(report)] == [
        (
            "heis-family/isotropy_unipotent",
            "at (0, 0, 0, 0): form entry (X,T) uses a label outside the complement ['X', 'Y', 'Z']",
        )
    ]


@pytest.mark.parametrize(
    "fault, witness",
    [
        (FileNotFoundError("gone"), "gone"),
        ("[algebra]\nname = x\n", "line 1, col 1: [algebra] must declare name, dim and basis"),
    ],
    ids=["missing", "unparsable"],
)
def test_a_family_file_that_cannot_be_read_fails_the_six_family_checks(fault, witness, shipped_text):
    shipped_text[FAMILY_ID] = fault
    report = verify_all(42)
    assert len(report.checks) == 135
    assert {c.id: c.witness for c in failed_checks(report)} == dict.fromkeys(
        (*FAMILY_PROOFS, *FLAT_CASES), witness
    )


def test_principal_lattices_have_their_point_counts():
    assert len(catalog._lattice(4, 2)) == 15 and len(catalog._lattice(4, 1)) == 5
    assert catalog._lattice(4, 1)[0] == (0, 0, 0, 0)


def test_principal_lattices_are_the_filtered_boxes():
    # The lattice is built by composition, its cost following its C(k + d, d) points;
    # filtering the (d + 1)^k box is the reference, in the same lexicographic order.
    for nvars in range(6):
        for degree in range(5):
            box = itertools.product(range(degree + 1), repeat=nvars)
            assert catalog._lattice(nvars, degree) == tuple(p for p in box if sum(p) <= degree)
    assert len(catalog._lattice(16, 4)) == math.comb(20, 4) == 4845


def test_report_ignores_the_seed():
    a, b = verify_all(42), verify_all(11)
    assert (a.seed, b.seed) == (42, 11)
    assert a.checks == b.checks


def test_no_check_draws_random_numbers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a check drew a random number")

    for name in ("Random", "SystemRandom", "random", "randrange", "randint", "getrandbits",
                 "uniform", "choice", "choices", "sample", "shuffle"):
        monkeypatch.setattr(random, name, refuse)
    assert verify_all(42).all_pass


def test_verify_entry_passes_on_catalog():
    for entry in build_catalog():
        for check in verify_entry(entry):
            assert check.passed, f"{check.id}: {check.witness}"


def test_verify_prop_unimodular_fragment():
    checks = verify_prop_unimodular(build_catalog())
    by_id = {c.id: c for c in checks}
    assert by_id["unimodular3/flat_c3"].value == "Constant(0)"
    assert by_id["unimodular3/heis3"].value == "Constant(0)"
    assert by_id["unimodular3/sol3"].value == "Constant(0)"
    assert by_id["unimodular3/sl2"].value == "Constant(-1/8)"
    assert all(c.passed for c in checks)


def test_general_ab_report_fails_on_a_constant(monkeypatch):
    # The (a, b) = (1, 1) metric on sl(2) is not of constant curvature, so
    # a computation that claims a constant must turn the check to fail.
    def report():
        by_id = {c.id: c for c in verify_section4(build_catalog())}
        return by_id["semisimple4/general_ab_report"]

    assert report().passed
    monkeypatch.setattr(
        "holriem.catalog.constant_curvature", lambda algebra, form: gr(Fraction(-1, 2))
    )
    check = report()
    assert check.status == "fail"
    assert check.witness == "got Constant(-1/2)"
    assert check.value == "Constant(-1/2)"


def test_verify_section5_fragment():
    checks = verify_section5_tables(build_catalog())
    assert all(c.passed for c in checks), [c.id for c in checks if not c.passed]
    ids = {c.id for c in checks}
    assert "solvable4/case2_weights" in ids
    assert "solvable4/case3_center" in ids


def test_verify_isotropy_bounds_fragment():
    checks = verify_isotropy_dimension_bounds(build_catalog())
    assert [c.status for c in checks] == ["pass"] * 4


def test_isotropy_bounds_fail_instead_of_raising(monkeypatch):
    def refuse(form, vectors):
        raise ValueError("no stabilizer")

    monkeypatch.setattr(catalog, "stabilizer_in_skew", refuse)
    failed = failed_checks(verify_all(42))
    assert {c.id: c.witness for c in failed} == {
        f"isotropy-bounds/{name}": "no stabilizer"
        for name in ("so_q_dim", "fix_unit_vector", "fix_null_vector", "fix_frame")
    }


def test_shipped_files_agree_with_catalog():
    checks = verify_shipped_files()
    assert len(checks) == len(build_catalog())
    assert all(c.passed for c in checks), [c.witness for c in checks if not c.passed]


@pytest.fixture
def shipped_text(monkeypatch):
    """Override the text of shipped files by id (a str, or an exception to raise).

    The loader's cache is cleared before and after, so no other test sees it.
    """
    real = catalog.shipped_file_text
    overrides = {}

    def fake(entry_id):
        value = overrides.get(entry_id)
        if value is None:
            return real(entry_id)
        if isinstance(value, Exception):
            raise value
        return value

    monkeypatch.setattr(catalog, "shipped_file_text", fake)
    catalog._shipped.cache_clear()
    yield overrides
    catalog._shipped.cache_clear()


def _unsorted_expected(text):
    head, keys = text.split("[expected]\n")
    return head + "[expected]\n" + "".join(reversed(keys.splitlines(keepends=True)))


@pytest.mark.parametrize("fault", ["misnamed", "unsorted", "unreadable", "unparsable"])
@pytest.mark.parametrize("entry_id", CATALOG_IDS)
def test_file_check_fails_on_a_bad_file(entry_id, fault, shipped_text):
    text = shipped_file_text(entry_id)
    first_key_line = text.splitlines().index("[expected]") + 2
    shipped_text[entry_id], witness = {
        "misnamed": (text.replace(f"name = {entry_id}\n", "name = other\n"), "name is 'other'"),
        "unsorted": (_unsorted_expected(text), f"not canonical at line {first_key_line}"),
        "unreadable": (FileNotFoundError("gone"), "gone"),
        "unparsable": ("[algebra]\nname = x\n", "line 1, col 1: [algebra] must declare"),
    }[fault]
    checks = verify_shipped_files()
    assert [c.id for c in checks] == [f"files/{i}" for i in CATALOG_IDS]
    failures = [c for c in checks if not c.passed]
    assert [c.id for c in failures] == [f"files/{entry_id}"]
    assert failures[0].witness.startswith(witness)


def test_unknown_expected_key_is_checked_last(shipped_text):
    shipped_text["sl2"] = shipped_file_text("sl2") + "zeta = 1\n"
    entry = _by_id(build_catalog(), "sl2")
    assert list(entry.expected)[-2:] == ["derived_dims", "zeta"]
    checks = verify_entry(entry)
    unknown = next(c for c in checks if c.id == "sl2/zeta")
    assert unknown.witness == "unknown expected property 'zeta'"
    assert [c.id for c in verify_shipped_files() if not c.passed] == []


@pytest.fixture(scope="module")
def full_report_ids():
    return [c.id for c in verify_all().checks]


# The fragment checks that read each entry: exactly these fail without it.
READERS = {
    "flat_c3": {"unimodular3/flat_c3", "unimodular3/flat_iff_solvable"},
    "heis3": {"unimodular3/heis3", "unimodular3/flat_iff_solvable"},
    "sol3": {"unimodular3/sol3", "unimodular3/flat_iff_solvable"},
    "sl2": {
        "unimodular3/sl2",
        "unimodular3/flat_iff_solvable",
        "semisimple4/killing_proportional_constant",
        "semisimple4/general_ab_report",
    },
    "c_oplus_sl2": {
        "semisimple4/killing_proportional_constant",
        "semisimple4/general_ab_invariance",
    },
    "c_times_sl2": set(),
    "c_times_sol": {
        "solvable4/case1_center",
        "solvable4/case1_sol_span",
        "solvable4/isotropy_semisimple",
    },
    "c_ltimes_heis": {
        "solvable4/case2_center",
        "solvable4/case2_heis_ideal",
        "solvable4/case2_weights",
        "solvable4/isotropy_semisimple",
    },
    "c2_semidirect_c2": {"solvable4/case3_center", "solvable4/isotropy_semisimple"},
    # Its quotient form is the adapted form Q, and its isotropy action the generator N.
    "heis_stab_zero": {
        "solvable4/family_isotropy_unipotent",
        *(f"isotropy-bounds/{name}" for name in ("so_q_dim", "fix_unit_vector", "fix_null_vector", "fix_frame")),
        *(f"flow/{name}" for name in ("gram_polynomial", "generator_skew", "one_parameter_group")),
    },
    "heis_stab_generic": {"solvable4/family_isotropy_unipotent"},
}


@pytest.mark.parametrize("entry_id", CATALOG_IDS)
def test_missing_entry_fails_the_report(entry_id, full_report_ids):
    report = verify_all(catalog=[e for e in build_catalog() if e.id != entry_id])
    assert not report.all_pass
    by_id = {c.id: c for c in report.checks}
    assert by_id[f"{entry_id}/entry"].witness == "entry missing"
    outside = {i for i in full_report_ids if not i.startswith(f"{entry_id}/")}
    assert outside <= set(by_id)


@pytest.mark.parametrize("entry_id", CATALOG_IDS)
def test_missing_entry_fails_exactly_the_checks_that_read_it(entry_id, full_report_ids):
    report = verify_all(catalog=[e for e in build_catalog() if e.id != entry_id])
    outside = [i for i in full_report_ids if not i.startswith(f"{entry_id}/")]
    assert [c.id for c in report.checks if c.id != f"{entry_id}/entry"] == outside
    failed = {c.id: c.witness for c in report.checks if not c.passed}
    assert failed == dict.fromkeys({f"{entry_id}/entry", *READERS[entry_id]}, "entry missing")


@pytest.mark.parametrize("entry_id", ["flat_c3", "heis3", "sol3", "sl2"])
def test_flat_iff_solvable_fails_without_any_of_its_entries(entry_id):
    checks = verify_prop_unimodular([e for e in build_catalog() if e.id != entry_id])
    check = next(c for c in checks if c.id == "unimodular3/flat_iff_solvable")
    assert (check.status, check.witness, check.value) == ("fail", "entry missing", None)


def test_constant_curvature_none_passes_on_a_metric_of_no_constant_curvature():
    sl2 = next(e for e in build_catalog() if e.id == "sl2")
    generic = CatalogEntry(
        sl2.id,
        sl2.algebra,
        metric_pair(sl2.algebra, catalog._GENERIC_AB_FORM),
        expected={"constant_curvature": "none"},
    )
    (check,) = [c for c in verify_entry(generic) if c.id == "sl2/constant_curvature"]
    assert (check.status, check.value) == ("pass", "NotConstant")


def test_constant_curvature_none_fails_on_a_flat_entry(shipped_text):
    text = shipped_file_text("heis3")
    shipped_text["heis3"] = text.replace("constant_curvature = 0", "constant_curvature = none")
    failed = failed_checks(verify_all(42))
    assert [(c.id, c.witness, c.value) for c in failed] == [
        ("heis3/constant_curvature", "got Constant(0)", "Constant(0)")
    ]


def test_fragments_keep_their_checks_without_entries():
    full = verify_section4(build_catalog()) + verify_section5_tables(build_catalog())
    empty = verify_section4([]) + verify_section5_tables([])
    assert [c.id for c in empty] == [c.id for c in full]
    assert all(c.status == "fail" and c.witness for c in empty)


@pytest.mark.parametrize(
    "entry_id, params",
    [
        ("heis_stab_zero", (0, 0, 0, 0)),
        ("heis_stab_generic", (1, Fraction(1, 2), -1, 3)),
    ],
)
def test_stabilizer_files_are_the_family_at_their_parameters(entry_id, params):
    entry, member = _by_id(build_catalog(), entry_id), family_at(params)
    assert entry.algebra == member.algebra
    assert entry.model == member.model


def test_sl2_form_is_the_killing_form():
    entry = _by_id(build_catalog(), "sl2")
    assert entry.form == killing_form(entry.algebra)


MOBIUS_IDS = ["mobius/identity", "mobius/translation", "mobius/invariance"]


def test_mobius_fixed_matrices(monkeypatch):
    real = catalog._difference_defect
    fixed = {(gr(1), gr(0), gr(0), gr(1)), (gr(1), gr(1), gr(0), gr(1))}

    def wrong_off_the_fixed_matrices(a, b, c, d, z1, z2):
        return real(a, b, c, d, z1, z2) + int((a, b, c, d) not in fixed)

    monkeypatch.setattr(catalog, "_difference_defect", wrong_off_the_fixed_matrices)
    checks = catalog.verify_mobius()
    assert [(c.id, c.passed, c.value) for c in checks] == [
        ("mobius/identity", True, "4 grid points"),
        ("mobius/translation", True, "4 grid points"),
        ("mobius/invariance", False, "96 grid points"),
    ]


def test_mobius_certificate_evaluates_its_grids_exactly(monkeypatch):
    points = []

    def recorded(defect):
        def evaluate(*args):
            assert all(type(x) is GaussianRational for x in args)
            points.append(args)
            return defect(*args)

        return evaluate

    monkeypatch.setattr(catalog, "_difference_defect", recorded(catalog._difference_defect))
    monkeypatch.setattr(catalog, "_derivative_defect", recorded(catalog._derivative_defect))
    assert all(c.passed for c in catalog.verify_mobius())
    # {0,1}^2 twice for the fixed matrices, {0,1}^6 and {0,1}^5 for the invariance.
    assert len(points) == 4 + 4 + 64 + 32
    assert len(set(points[8:72])) == 64 and len(set(points[72:])) == 32


def test_mobius_checks_fail_on_a_wrong_numerator(monkeypatch):
    monkeypatch.setattr(
        catalog,
        "_mobius_numerator",
        lambda a, b, c, d, z1, z2: (a * z1 + b) * (c * z2 + d) + (a * z2 + b) * (c * z1 + d),
    )
    report = verify_all()
    assert [c.id for c in failed_checks(report)] == MOBIUS_IDS
    witnesses = [c.witness for c in failed_checks(report)]
    assert witnesses == [
        "at (z1,z2)=(0, 1): N != (ad-bc)(z1-z2)",
        "at (z1,z2)=(0, 0): N != (ad-bc)(z1-z2)",
        "at (a,b,c,d,z1,z2)=(0, 1, 0, 1, 0, 0): N != (ad-bc)(z1-z2)",
    ]


def test_mobius_invariance_fails_on_a_wrong_derivative(monkeypatch):
    monkeypatch.setattr(
        catalog,
        "_derivative_defect",
        lambda a, b, c, d, z: a * (c * z + d) - c * (a * z + b) - (a * d + b * c),
    )
    failures = failed_checks(verify_all())
    assert [c.id for c in failures] == ["mobius/invariance"]
    assert failures[0].witness == "at (a,b,c,d,z)=(0, 1, 1, 0, 0): a(cz+d) - c(az+b) != ad-bc"


def _failures_of_mutated_zero(shipped_text, old, new):
    """The failing checks, by id, of the report on ``heis_stab_zero.liealg`` with
    ``old`` replaced by ``new``: its quotient form is Q, its isotropy action N."""
    text = shipped_file_text("heis_stab_zero")
    assert old in text
    shipped_text["heis_stab_zero"] = text.replace(old, new)
    report = verify_all()
    assert len(report.checks) == 135
    return {c.id: c.witness for c in failed_checks(report)}


def test_flow_group_law_fails_on_a_wrong_flow(shipped_text):
    # [Y,T] = -Z + T gives N the eigenvalue 1 on T: exp(tN) is no polynomial in t,
    # so neither grid proof applies, and the model is of mixed type.
    failures = _failures_of_mutated_zero(shipped_text, '"Y,T" = - Z', '"Y,T" = - Z + T')
    not_nilpotent = "matrix [0, 1, 0; 0, 0, -1; 0, 0, 1] is not nilpotent"
    assert failures == {
        "heis_stab_zero/isotropy": "got MIXED",
        "heis_stab_zero/invariance": "got false",
        "heis_stab_zero/invariant_form_dim": "got 1",
        "solvable4/family_isotropy_unipotent": "unexpected type at heis_stab_zero",
        "flow/gram_polynomial": not_nilpotent,
        "flow/generator_skew": "N^T Q + Q N nonzero at (i,j)=(0, 2)",
        "flow/one_parameter_group": not_nilpotent,
    }


def test_flow_gram_proof_fails_on_a_group_that_moves_the_form(shipped_text):
    # [Y,T] = Z makes N: e2 -> e1, e3 -> e2, nilpotent, so exp(tN) is a group, but N is
    # not Q-skew: the flow moves the form, which is then no longer invariant.
    failures = _failures_of_mutated_zero(shipped_text, '"Y,T" = - Z', '"Y,T" = Z')
    assert failures == {
        "heis_stab_zero/invariance": "got false",
        "flow/gram_polynomial": "at t=1",
        "flow/generator_skew": "N^T Q + Q N nonzero at (i,j)=(1, 2)",
    }


def test_flow_generator_skew_fails_on_a_non_skew_generator(shipped_text):
    # q(Z,Z) = 2 keeps N and changes Q, for which N is no longer skew; the
    # stabilizer dimensions of so(Q) do not change.
    failures = _failures_of_mutated_zero(shipped_text, '"Z,Z" = 1', '"Z,Z" = 2')
    assert failures == {
        "heis_stab_zero/invariance": "got false",
        "flow/gram_polynomial": "at t=1",
        "flow/generator_skew": "N^T Q + Q N nonzero at (i,j)=(1, 2)",
    }


# The modules that call ``linalg.act`` by name, so that a test can put a
# wrapper in its place.
ACT_CALLERS = (catalog, geometry, models)


def test_act_on_its_first_slot_only_fails_exactly_the_form_checks(monkeypatch):
    # Every check that acts on a form ("dd") fails, and no check that acts on a
    # vector ("u", the isotropy bounds): one slot of a form is not enough.
    def first_slot_only(a, tensor, kinds):
        stride = len(tensor) // a.rows
        out = [None] * len(tensor)
        for rest in range(stride):
            out[rest::stride] = linalg.act(a, tensor[rest::stride], kinds[0])
        return tuple(out)

    for module in ACT_CALLERS:
        monkeypatch.setattr(module, "act", first_slot_only)
    model_ids = [e.id for e in build_catalog() if e.model.isotropy]
    assert len(model_ids) == 7
    assert {c.id for c in failed_checks(verify_all())} == {
        *(f"{i}/invariance" for i in model_ids),
        *(f"{i}/invariant_form_dim" for i in model_ids),
        "semisimple4/general_ab_invariance",
        "flow/generator_skew",
    }


def test_the_form_and_stabilizer_kernels_reach_act(monkeypatch):
    kinds = []

    def recorded(a, tensor, k):
        kinds.append(k)
        return linalg.act(a, tensor, k)

    for module in ACT_CALLERS:
        monkeypatch.setattr(module, "act", recorded)
    model = _by_id(build_catalog(), "c_oplus_sl2").model
    unit = (gr(1), gr(0), gr(0))
    for run, kind in (
        (lambda: models.invariant_forms(model), "dd"),
        (lambda: models.check_invariance(model), "dd"),
        (lambda: geometry.stabilizer_in_skew(QuadraticForm.diagonal([1, 1, 1]), [unit]), "u"),
        (lambda: catalog.verify_flow_identities(build_catalog()), "dd"),
    ):
        kinds.clear()
        run()
        assert kinds and set(kinds) == {kind}


def test_flow_proofs_evaluate_their_grids(monkeypatch):
    times, grids = [], []
    real_exp, real_prove = catalog.exp_nilpotent, catalog._prove

    def recorded_exp(powers, ts):
        ts = list(ts)
        times.append((len(powers), ts))
        return real_exp(powers, ts)

    def recorded_prove(points, defect):
        grids.append(points)
        return real_prove(points, defect)

    monkeypatch.setattr(catalog, "exp_nilpotent", recorded_exp)
    monkeypatch.setattr(catalog, "_prove", recorded_prove)
    assert all(c.passed for c in catalog.verify_flow_identities(build_catalog()))
    # N^3 = 0: each flow L_0, ..., L_4 is built once, for the five points of the
    # Gram proof (degree 4 in t) and the 3 x 3 box of the group law (degree 2 in s and t).
    assert times == [(3, [0, 1, 2, 3, 4])]
    assert grids == [catalog._lattice(1, 4), catalog._box(3, 2), catalog._box(3, 2)]


def test_curvature_antisymmetry_fails_on_a_kernel_fault(monkeypatch):
    right = catalog.curvature

    def lopsided(algebra, connection):
        """The curvature kernel without its -c_ij^l nabla_l e_k term for i > j."""
        r = right(algebra, connection)
        n = algebra.dim

        def fiber(i, j, k):
            if i <= j:
                return r[i][j][k]
            dropped = nabla(connection, algebra.constants[i][j], algebra.basis_vector(k))
            return vadd(r[i][j][k], dropped)

        return tuple(
            tuple(tuple(fiber(i, j, k) for k in range(n)) for j in range(n)) for i in range(n)
        )

    monkeypatch.setattr(catalog, "curvature", lopsided)
    failures = {c.id: c.witness for c in failed_checks(verify_all())}
    assert failures["sl2/curvature_antisymmetry"] == "triple=(H,E,H)"
    # On the three flat entries nabla_[x,y] = 0, so the dropped term is zero there.
    assert [i for i in failures if i.endswith("/curvature_antisymmetry")] == [
        "sl2/curvature_antisymmetry"
    ]


def test_verify_all_green_and_deterministic():
    first = verify_all(seed=7)
    second = verify_all(seed=7)
    assert first.all_pass
    assert report_to_json(first) == report_to_json(second)
    payload = json.loads(report_to_json(first))
    assert set(payload) == {"seed", "checks", "summary"}
    assert payload["summary"] == {"pass": len(payload["checks"]), "fail": 0}
    assert all(set(c) == {"id", "status", "witness", "value"} for c in payload["checks"])


def test_the_fragment_table_walked_by_hand_is_the_report():
    entries = build_catalog()
    walked = [
        check
        for fragment, takes_catalog in catalog.FRAGMENTS
        for check in (fragment(entries) if takes_catalog else fragment())
    ]
    assert tuple(walked) == verify_all(42).checks


def test_verify_all_calls_a_fragment_by_its_module_name(monkeypatch):
    calls = []
    real = catalog.verify_mobius

    def wrapper():
        calls.append("verify_mobius")
        return real()

    monkeypatch.setattr(catalog, "verify_mobius", wrapper)
    assert verify_all(42).all_pass
    assert calls == ["verify_mobius"]


def test_verify_all_rejects_empty_catalog():
    with pytest.raises(ValueError):
        verify_all(catalog=[])


def test_verify_all_rejects_a_repeated_entry_id_by_name(monkeypatch):
    entries = build_catalog()
    with pytest.raises(ValueError, match="^repeated entry id 'flat_c3'$"):
        verify_all(42, entries + [entries[0]])
    # No fragment runs first: the catalog is refused before the report starts.
    monkeypatch.setattr(catalog, "_entry_checks", lambda _: pytest.fail("a fragment ran"))
    with pytest.raises(ValueError, match="'sl2'"):
        verify_all(42, [*entries[:4], _by_id(entries, "sl2"), *entries[4:]])


def test_verify_all_asserts_on_a_fragment_that_repeats_a_check_id(monkeypatch):
    real = catalog.verify_mobius
    monkeypatch.setattr(catalog, "verify_mobius", lambda: real() + real()[:1])
    with pytest.raises(AssertionError, match="duplicate check ids in report"):
        verify_all(42)


@pytest.mark.parametrize(
    "gram, reason",
    [
        # A pair refuses a form of another dimension, and levi_civita checks its own.
        ([[1, 0, 0], [0, 0, 0], [0, 0, 1]], "quadratic form is degenerate"),
    ],
)
def test_a_metric_without_a_connection_fails_the_checks_that_read_it(gram, reason):
    entries = build_catalog()
    k = next(i for i, e in enumerate(entries) if e.id == "sol3")
    sol = entries[k]
    entries[k] = CatalogEntry(sol.id, sol.algebra, metric_pair(sol.algebra, QuadraticForm(gram)), sol.expected)
    report = verify_all(42, entries)
    assert len(report.checks) == 135
    readers = [
        "sol3/constant_curvature",
        "sol3/torsion_free",
        "sol3/metric_compatible",
        "sol3/curvature_antisymmetry",
        "sol3/first_bianchi",
        "sol3/curvature_pair_skew",
        "unimodular3/sol3",
        "unimodular3/flat_iff_solvable",
    ]
    assert {c.id: c.witness for c in failed_checks(report)} == dict.fromkeys(readers, reason)


def test_verify_all_flags_corrupted_catalog(mutate_structure_constant):
    catalog = build_catalog()
    sol = _by_id(catalog, "sol3")
    algebra = mutate_structure_constant(sol.algebra, 0, 1, 0)
    mutated = CatalogEntry(sol.id, algebra, metric_pair(algebra, sol.form), sol.expected)
    swapped = [mutated if e.id == "sol3" else e for e in catalog]
    report = verify_all(catalog=swapped)
    assert not report.all_pass
    assert any(c.witness for c in failed_checks(report))


def test_mutation_keeps_antisymmetry(mutate_structure_constant):
    sol = _by_id(build_catalog(), "sol3").algebra
    mutated = mutate_structure_constant(sol, 1, 2, 0)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert (
                    mutated.constants[i][j][k] + mutated.constants[j][i][k] == gr(0)
                )
