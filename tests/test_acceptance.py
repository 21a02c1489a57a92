"""Acceptance suite: the exit criteria of the build, one pass/fail line each.

Every claim is exact (tolerance 0).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""

import json
import random
from fractions import Fraction

from conftest import conjugate, failed_checks, family_at, metric_pair, sectional_curvature
from holriem.catalog import CatalogEntry, build_catalog, verify_all
from holriem.cli import cli
from holriem.geometry import (
    bianchi_defect,
    compatibility_defect,
    curvature,
    curvature_antisymmetry_defect,
    levi_civita,
    pair_skew_defect,
    stabilizer_in_skew,
    torsion_defect,
)
from holriem.liealg import (
    classify_3d_unimodular,
    jacobi_witness,
    killing_form,
)
from holriem.linalg import CMatrix, vadd
from holriem.models import isotropy_type
from holriem.paper import check_prop_iv, verify_flow_identities, verify_mobius
from holriem.scalars import gr

CATALOG = {entry.id: entry for entry in build_catalog()}


def _report(number: int, description: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status} [{number:2d}] {description}")
    assert ok, f"criterion {number}: {description}"


def _checks_by_prefix(report, prefix):
    return [c for c in report.checks if c.id.startswith(prefix)]


def test_criterion_01_constant_curvature_of_unimodular_classes():
    report = verify_all()
    fragment = {c.id: c for c in _checks_by_prefix(report, "unimodular3/")}
    ok = (
        fragment["unimodular3/flat_c3"].passed
        and fragment["unimodular3/flat_c3"].value == "Constant(0)"
        and fragment["unimodular3/heis3"].value == "Constant(0)"
        and fragment["unimodular3/sol3"].value == "Constant(0)"
        and fragment["unimodular3/sl2"].passed
        and fragment["unimodular3/sl2"].value not in ("Constant(0)", "NotConstant")
        and fragment["unimodular3/flat_iff_solvable"].passed
    )
    _report(1, "flat certificates for the solvable classes, nonzero for sl2, flat iff solvable", ok)


def test_criterion_02_sl2_sectional_value():
    g = CATALOG["sl2"].algebra
    b = killing_form(g)
    tensor = curvature(g, levi_civita(g, b))
    h, e, f = (g.basis_vector(k) for k in range(3))
    planes = [(e, f), (h, vadd(e, f)), (vadd(h, e), f)]
    values = [sectional_curvature(b, tensor, x, y) for x, y in planes]
    expected = gr(Fraction(-1, 8))
    _report(2, "sl2 Killing metric has sectional curvature -1/8 on 3 planes", values == [expected] * 3)


def test_criterion_03_classification_conjugation_robust():
    rng = random.Random(20260809)

    def random_invertible():
        while True:
            candidate = CMatrix(
                [
                    [
                        gr(
                            Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                            Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                        )
                        for _ in range(3)
                    ]
                    for _ in range(3)
                ]
            )
            if candidate.rank() == 3:
                return candidate

    algebras = [
        (CATALOG["flat_c3"].algebra, "ABELIAN_C3"),
        (CATALOG["heis3"].algebra, "HEIS"),
        (CATALOG["sol3"].algebra, "SOL"),
        (CATALOG["sl2"].algebra, "SL2"),
    ]
    ok = True
    for algebra, tag in algebras:
        if classify_3d_unimodular(algebra).name != tag:
            ok = False
        for _ in range(250):
            image = conjugate(algebra, random_invertible())
            if classify_3d_unimodular(image).name != tag:
                ok = False
    _report(3, "classification exact and stable under 1000 random basis conjugations", ok)


def test_criterion_04_solvable_tables(random_family_point):
    catalog = build_catalog()
    by_id = {e.id: e for e in catalog}
    ok = all(
        jacobi_witness(by_id[i].algebra) is None
        for i in ("c_times_sol", "c_ltimes_heis", "c2_semidirect_c2")
    )
    rng = random.Random(4242)
    for _ in range(100):
        if jacobi_witness(family_at(random_family_point(rng)).algebra) is not None:
            ok = False
    from holriem.liealg import center

    centers = [
        len(center(by_id[i].algebra))
        for i in ("c_times_sol", "c_ltimes_heis", "c2_semidirect_c2")
    ]
    ok = ok and centers == [1, 1, 0]
    types = [
        isotropy_type(by_id[i].model).name
        for i in ("c_times_sol", "c_ltimes_heis", "c2_semidirect_c2")
    ]
    ok = ok and types == ["SEMISIMPLE"] * 3
    ok = ok and isotropy_type(family_at((0, 0, 0, 0)).model).name == "UNIPOTENT"
    for _ in range(10):
        if isotropy_type(family_at(random_family_point(rng)).model).name != "UNIPOTENT":
            ok = False
    _report(4, "4-dim solvable tables: Jacobi exact, centers (1,1,0), isotropy types", ok)


def test_criterion_05_stabilizer_family_flat_case():
    ok = True
    for beta in (gr(0), gr(1), gr(0, 1), gr(Fraction(3, 2))):
        if not check_prop_iv((0, 1, -(beta * beta), beta)):
            ok = False
    _report(5, "flat-case span is Heisenberg with central first generator", ok)


def test_criterion_06_isotropy_dimension_bounds():
    # The adapted form is the quotient form of heis_stab_zero.liealg.
    form = next(e for e in build_catalog() if e.id == "heis_stab_zero").form
    unit = (gr(0), gr(1), gr(0))
    null = (gr(1), gr(0), gr(0))
    partner = (gr(1), gr(0), gr(1))
    ok = (
        len(stabilizer_in_skew(form, [])) == 3
        and len(stabilizer_in_skew(form, [unit])) == 1
        and len(stabilizer_in_skew(form, [null])) == 1
        and len(stabilizer_in_skew(form, [unit, partner])) == 0
    )
    _report(6, "so(q) has dim 3; vector stabilizers have dims (1,1,0)", ok)


def test_criterion_07_flow_polynomial_identities():
    checks = [(c.id, c.status) for c in verify_flow_identities(build_catalog())]
    ok = checks == [
        ("flow/gram_polynomial", "pass"),
        ("flow/generator_skew", "pass"),
        ("flow/one_parameter_group", "pass"),
    ]
    _report(7, "unipotent flow preserves the adapted gram, proved on t = 0..4", ok)


def test_criterion_08_surface_model_exact_invariance():
    checks = [(c.id, c.status, c.value) for c in verify_mobius()]
    ok = checks == [
        ("mobius/identity", "pass", "4 grid points"),
        ("mobius/translation", "pass", "4 grid points"),
        ("mobius/invariance", "pass", "96 grid points"),
    ]
    _report(8, "surface-metric invariance proved exactly on {0,1} grids", ok)


def test_criterion_09_connection_and_curvature_identities():
    ok = True
    for entry in build_catalog():
        if entry.model.isotropy:
            continue
        connection = levi_civita(entry.algebra, entry.form)
        tensor = curvature(entry.algebra, connection)
        if torsion_defect(entry.algebra, connection) is not None:
            ok = False
        if compatibility_defect(entry.form, connection) is not None:
            ok = False
        if curvature_antisymmetry_defect(tensor) is not None:
            ok = False
        if bianchi_defect(tensor) is not None:
            ok = False
        if pair_skew_defect(entry.form, tensor) is not None:
            ok = False
    _report(9, "torsion, compatibility and curvature symmetries exact on all metrics", ok)


def test_criterion_10_fault_injection_sensitivity(mutate_structure_constant):
    catalog = build_catalog()
    sol = next(e for e in catalog if e.id == "sol3")
    ok = True
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(3):
                mutated = mutate_structure_constant(sol.algebra, i, j, k)
                mutated_entry = CatalogEntry(
                    id=sol.id,
                    algebra=mutated,
                    model=metric_pair(mutated, sol.form),
                    expected=sol.expected,
                )
                swapped = [mutated_entry if e.id == "sol3" else e for e in catalog]
                report = verify_all(catalog=swapped)
                failures = failed_checks(report)
                if not failures:
                    ok = False
                    continue
                witnesses = " ".join(c.witness or "" for c in failures)
                if "triple=(" not in witnesses:
                    ok = False
    _report(10, "each of the 9 structure-constant faults trips a witnessed failure", ok)


def test_criterion_11_tooling_contract(capsys):
    import holriem.dsl as dsl
    from holriem.catalog import shipped_file_text

    ok = True
    for entry in build_catalog():
        text = shipped_file_text(entry.id)
        spec = dsl.parse(text)
        if dsl.parse(dsl.serialize(spec)) != spec:
            ok = False

    assert cli(["verify-paper", "--seed", "11", "--json"]) == 0
    first = capsys.readouterr().out
    assert cli(["verify-paper", "--seed", "11", "--json"]) == 0
    second = capsys.readouterr().out
    ok = ok and first == second and json.loads(first)["summary"]["fail"] == 0

    ok = ok and cli(["classify", "src/holriem/data/sol3.liealg"]) == 0
    capsys.readouterr()
    ok = ok and cli(["classify", "missing.liealg"]) == 1
    ok = ok and cli(["nonsense"]) == 2
    capsys.readouterr()
    _report(11, "round-trips, byte-identical --json reports, exit-code contract", ok)
