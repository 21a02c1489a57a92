"""Connection, curvature, orthogonal algebra and isotropy flow checks.

The expected Christoffel tables for the heis and sol metrics were
derived independently by expanding the frame identity
2 q(nabla_x y, z) = q([x,y],z) - q([y,z],x) + q([z,x],y) by hand for
every basis triple; those frozen values are asserted here.
"""

import inspect
import random
import textwrap
from fractions import Fraction
from itertools import product

import pytest
from conftest import failed_checks, nabla, scale, sectional_curvature, vscale

from holriem import catalog, geometry, linalg
from holriem.catalog import build_catalog
from holriem.forms import DegenerateForm, QuadraticForm
from holriem.geometry import (
    bianchi_defect,
    compatibility_defect,
    constant_curvature,
    constant_curvature_defect,
    constant_curvature_value,
    curvature,
    curvature_antisymmetry_defect,
    levi_civita,
    pair_skew_defect,
    ricci,
    stabilizer_in_skew,
    torsion_defect,
)
from holriem.liealg import bracket, killing_form
from holriem.linalg import CMatrix, exp_nilpotent, nilpotent_powers, span_basis, vadd
from holriem.scalars import gr

CATALOG = {entry.id: entry for entry in build_catalog()}
# The adapted form Q and the nilpotent isotropy action N of heis_stab_zero.liealg.
ADAPTED = CATALOG["heis_stab_zero"].form
GENERATOR = CATALOG["heis_stab_zero"].model.actions[0]


def unipotent_flow(t) -> CMatrix:
    """exp(tN), as the report builds it from the powers of N."""
    return exp_nilpotent(nilpotent_powers(GENERATOR), [t])[0]


def test_sol_connection_oracle_values():
    g, q = CATALOG["sol3"].algebra, CATALOG["sol3"].form
    conn = levi_civita(g, q)
    y, z, t = (g.basis_vector(k) for k in range(3))
    assert nabla(conn, y, z) == z
    assert nabla(conn, z, y) == (gr(0),) * 3
    assert nabla(conn, y, t) == tuple(-c for c in t)
    assert nabla(conn, t, t) == (gr(0),) * 3


def test_heis_connection_oracle_values():
    g, q = CATALOG["heis3"].algebra, CATALOG["heis3"].form
    conn = levi_civita(g, q)
    x, y, z = (g.basis_vector(k) for k in range(3))
    assert nabla(conn, z, z) == y
    assert nabla(conn, y, z) == (gr(0),) * 3
    assert nabla(conn, z, y) == tuple(-c for c in x)
    for v in (x, y, z):
        assert nabla(conn, x, v) == (gr(0),) * 3


def test_biinvariant_connection_is_half_bracket():
    g = CATALOG["sl2"].algebra
    b = killing_form(g)
    conn = levi_civita(g, b)
    half = gr(Fraction(1, 2))
    for i in range(3):
        for j in range(3):
            expected = vscale(half, bracket(g, g.basis_vector(i), g.basis_vector(j)))
            assert conn[i][j] == expected


def test_flat_catalog_curvatures_vanish():
    for entry in (CATALOG["sol3"], CATALOG["heis3"]):
        g, q = entry.algebra, entry.form
        tensor = curvature(g, levi_civita(g, q))
        assert constant_curvature_defect(q, tensor, 0) is None


def test_sl2_curvature_is_quarter_double_bracket():
    g = CATALOG["sl2"].algebra
    b = killing_form(g)
    tensor = curvature(g, levi_civita(g, b))
    minus_quarter = gr(Fraction(-1, 4))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                double = bracket(
                    g,
                    bracket(g, g.basis_vector(i), g.basis_vector(j)),
                    g.basis_vector(k),
                )
                assert tensor[i][j][k] == vscale(minus_quarter, double)


def test_sectional_curvature_sl2_planes():
    g = CATALOG["sl2"].algebra
    b = killing_form(g)
    tensor = curvature(g, levi_civita(g, b))
    h, e, f = (g.basis_vector(k) for k in range(3))
    expected = gr(Fraction(-1, 8))
    assert sectional_curvature(b, tensor, e, f) == expected
    assert sectional_curvature(b, tensor, h, vadd(e, f)) == expected
    assert sectional_curvature(b, tensor, vadd(h, e), f) == expected


def test_sectional_curvature_degenerate_plane():
    g, q = CATALOG["sol3"].algebra, CATALOG["sol3"].form
    tensor = curvature(g, levi_civita(g, q))
    y, z = g.basis_vector("Y"), g.basis_vector("Z")
    assert sectional_curvature(q, tensor, y, z) is None


def test_sectional_curvature_dependent_vectors():
    g, q = CATALOG["sol3"].algebra, CATALOG["sol3"].form
    tensor = curvature(g, levi_civita(g, q))
    y = g.basis_vector("Y")
    with pytest.raises(ValueError):
        sectional_curvature(q, tensor, y, vscale(gr(2), y))


def test_constant_curvature_results():
    assert constant_curvature(CATALOG["heis3"].algebra, CATALOG["heis3"].form) == gr(0)
    sl2 = CATALOG["sl2"].algebra
    assert constant_curvature(sl2, killing_form(sl2)) == gr(
        Fraction(-1, 8)
    )


def test_constant_curvature_rejects_non_isotropic_center_metric():
    g = CATALOG["heis3"].algebra
    q = QuadraticForm.diagonal([1, 1, 1])
    assert constant_curvature(g, q) is None
    tensor = curvature(g, levi_civita(g, q))
    assert constant_curvature_defect(q, tensor, gr(0)) is not None


def test_constant_curvature_requires_nondegenerate_form():
    with pytest.raises(DegenerateForm):
        constant_curvature(
            CATALOG["heis3"].algebra, QuadraticForm.diagonal([1, 1, 0])
        )


def test_sparse_form_entries_conflict_in_either_order():
    # An entry given as zero is set: a zero first entry once looked unset.
    for entries in ({("a", "b"): 5, ("b", "a"): 0}, {("a", "b"): 0, ("b", "a"): 5}):
        with pytest.raises(ValueError, match="conflicting entries"):
            QuadraticForm.from_sparse(("a", "b"), entries)
    for value in (0, 5):
        form = QuadraticForm.from_sparse(("a", "b"), {("a", "b"): value, ("b", "a"): value})
        assert form.gram == CMatrix([[0, value], [value, 0]])


# Faults in the Nomizu kernel of ``levi_civita`` and the report checks each fails:
# (source fragment, its replacement, the failing checks of ``verify_all(42)``).
CONNECTION_FAULTS = {
    # Gamma_ij = U_ij + c_ij, the whole bracket where half of it belongs.
    "whole_bracket": (
        "addmul(plus[l], x, _HALF), submul(minus[l], x, _HALF)",
        "plus[l] + x, minus[l] - x",
        {
            "heis3/metric_compatible", "heis3/torsion_free", "sl2/constant_curvature",
            "sl2/torsion_free", "sol3/constant_curvature", "sol3/curvature_pair_skew",
            "sol3/metric_compatible", "sol3/torsion_free", "semisimple4/killing_proportional_constant",
            "unimodular3/flat_iff_solvable", "unimodular3/sl2", "unimodular3/sol3",
        },
    ),
    # Half of the term at b = d, where c_abd and c_adb are one term and count twice.
    "no_doubling": ("g if b == d else half", "half", {"heis3/metric_compatible"}),
    # The lowered term at slot b of the pair instead of slot a.
    "slot_b": (
        "pair[a] = addmul(pair[a], x, g if b == d else half)",
        "pair[b] = addmul(pair[b], x, g if b == d else half)",
        {
            *(f"{e}/{check}" for e in ("heis3", "sl2", "sol3")
              for check in ("constant_curvature", "curvature_pair_skew", "metric_compatible")),
            "semisimple4/killing_proportional_constant", "unimodular3/flat_iff_solvable",
            "unimodular3/heis3", "unimodular3/sl2", "unimodular3/sol3",
        },
    ),
}


@pytest.mark.parametrize("fault", sorted(CONNECTION_FAULTS))
def test_a_faulty_connection_kernel_fails_torsion_or_compatibility(fault, monkeypatch):
    old, new, failing = CONNECTION_FAULTS[fault]
    source = textwrap.dedent(inspect.getsource(geometry.levi_civita))
    assert source.count(old) == 1
    namespace = dict(vars(geometry))
    exec(source.replace(old, new), namespace)
    for module in (geometry, catalog):
        monkeypatch.setattr(module, "levi_civita", namespace["levi_civita"])
    assert {check.id for check in failed_checks(catalog.verify_all(42))} == failing


@pytest.mark.parametrize("scale_by", [1, -3, gr(0, 2)])
def test_a_multiple_of_the_killing_form_gives_half_ad_with_no_right_side(scale_by, monkeypatch):
    # A bi-invariant form: c_abd + c_adb = 0, so U = 0 and nabla = ad / 2.
    g, q = CATALOG["sl2"].algebra, CATALOG["sl2"].form
    assert q == killing_form(g)
    right_sides = []

    def recorded(matrix, rhs):
        right_sides.append(len(rhs))
        return linalg.solve(matrix, rhs)

    monkeypatch.setattr(geometry, "solve", recorded)
    form = QuadraticForm(scale(q.gram, scale_by))
    half = gr(Fraction(1, 2))
    assert levi_civita(g, form) == tuple(
        tuple(tuple(half * c for c in g.constants[i][j]) for j in range(3)) for i in range(3)
    )
    assert right_sides == [0]


def test_ricci():
    g, q = CATALOG["sol3"].algebra, CATALOG["sol3"].form
    tensor = curvature(g, levi_civita(g, q))
    assert ricci(tensor).gram.is_zero()

    s = CATALOG["sl2"].algebra
    b = killing_form(s)
    tensor = curvature(s, levi_civita(s, b))
    # Constant curvature k gives Ric = 2 k q in dimension 3: here -B/4.
    assert ricci(tensor).gram == scale(b.gram, gr(Fraction(-1, 4)))

    a = CATALOG["flat_c3"].algebra
    q3 = QuadraticForm.diagonal([1, 2, gr(0, 1)])
    tensor = curvature(a, levi_civita(a, q3))
    assert ricci(tensor).gram.is_zero()


def test_skew_algebra_dimensions():
    assert len(stabilizer_in_skew(QuadraticForm.diagonal([1, 1]), [])) == 1
    assert len(stabilizer_in_skew(ADAPTED, [])) == 3
    assert len(stabilizer_in_skew(QuadraticForm.diagonal([1, 2, -1, gr(0, 1)]), [])) == 6


def test_skew_algebra_random_forms():
    rng = random.Random(31)
    for n in (2, 3, 4, 5, 6):
        for _ in range(3):
            q = _random_nondegenerate_form(rng, n)
            basis = stabilizer_in_skew(q, [])
            assert len(basis) == n * (n - 1) // 2
            for a in basis:
                assert (a.transpose() @ q.gram + q.gram @ a).is_zero()
            v = (gr(0),) * n
            while not any(v):
                v = tuple(gr(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n))
            fixing = stabilizer_in_skew(q, [v])
            # so(q) acts transitively on the nonzero vectors of each length.
            assert len(fixing) == (n - 1) * (n - 2) // 2
            for a in fixing:
                assert (a.transpose() @ q.gram + q.gram @ a).is_zero()
                assert not any(a.apply(v))


def test_stabilizer_rejects_bad_input():
    with pytest.raises(DegenerateForm, match="^quadratic form is degenerate$"):
        stabilizer_in_skew(QuadraticForm.diagonal([1, 0, 1]), [])
    with pytest.raises(ValueError, match="vector length"):
        stabilizer_in_skew(QuadraticForm.diagonal([1, 1, 1]), [(gr(1), gr(0))])


def test_stabilizer_in_one_dimension_is_zero():
    q = QuadraticForm.diagonal([gr(0, 1)])
    assert stabilizer_in_skew(q, []) == []
    assert stabilizer_in_skew(q, [(gr(1),)]) == []


def test_stabilizer_dimensions():
    q = ADAPTED
    unit = (gr(0), gr(1), gr(0))
    null = (gr(1), gr(0), gr(0))
    assert len(stabilizer_in_skew(q, [unit])) == 1
    assert len(stabilizer_in_skew(q, [null])) == 1
    partner = (gr(1), gr(0), gr(1))
    plane = QuadraticForm(
        [[q.apply(unit, unit), q.apply(unit, partner)],
         [q.apply(partner, unit), q.apply(partner, partner)]]
    )
    assert plane.nondegenerate
    assert len(stabilizer_in_skew(q, [unit, partner])) == 0
    for a in stabilizer_in_skew(q, [null]):
        assert not any(a.apply(null))


def test_unipotent_flow_matrix_values():
    assert ADAPTED.gram == CMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert GENERATOR == CMatrix([[0, 1, 0], [0, 0, -1], [0, 0, 0]])
    assert len(nilpotent_powers(GENERATOR)) == 3
    assert unipotent_flow(0) == CMatrix.identity(3)
    assert unipotent_flow(1) == CMatrix(
        [[1, 1, gr(Fraction(-1, 2))], [0, 1, -1], [0, 0, 1]]
    )
    assert unipotent_flow(gr(0, 2)) == CMatrix([[1, gr(0, 2), 2], [0, 1, gr(0, -2)], [0, 0, 1]])


def test_unipotent_flow_group_law_grid():
    # Entries of L(s)L(t) - L(s+t) have degree <= 2 in each variable, so
    # vanishing on the 3x3 grid proves the identity.
    for s in range(3):
        for t in range(3):
            assert unipotent_flow(s) @ unipotent_flow(t) == unipotent_flow(s + t)


def test_flow_polynomial_identities():
    # Entries of L_t^T Q L_t - Q have degree <= 4 in t: five points prove it.
    q, n = ADAPTED.gram, GENERATOR
    for t in range(5):
        assert unipotent_flow(t).transpose() @ q @ unipotent_flow(t) == q
    assert (n.transpose() @ q + q @ n).is_zero()


def test_generator_is_flow_derivative():
    # The central difference (L_1 - L_-1) / 2 is the exact derivative at 0
    # of a matrix whose entries have degree <= 2.
    difference = unipotent_flow(1) + scale(unipotent_flow(-1), -1)
    assert scale(difference, Fraction(1, 2)) == GENERATOR


def test_identities_hold_for_all_catalog_metrics():
    for entry in build_catalog():
        if entry.model.isotropy:
            continue
        conn = levi_civita(entry.algebra, entry.form)
        tensor = curvature(entry.algebra, conn)
        assert torsion_defect(entry.algebra, conn) is None
        assert compatibility_defect(entry.form, conn) is None
        assert curvature_antisymmetry_defect(tensor) is None
        assert bianchi_defect(tensor) is None
        assert pair_skew_defect(entry.form, tensor) is None


def _form(n):
    return QuadraticForm.diagonal([1] * n)


@pytest.mark.parametrize(
    "scan, args, message",
    [
        (pair_skew_defect, (_form(4), "tensor"), "form dimension 4 does not match tensor dimension 3"),
        (pair_skew_defect, (_form(2), "tensor"), "form dimension 2 does not match tensor dimension 3"),
        (constant_curvature_defect, (_form(4), "tensor", 0), "form dimension 4 does not match tensor dimension 3"),
        (constant_curvature_defect, (_form(2), "tensor", 0), "form dimension 2 does not match tensor dimension 3"),
        (constant_curvature_value, (_form(2), "tensor"), "form dimension 2 does not match tensor dimension 3"),
        (compatibility_defect, (_form(4), "connection"), "form dimension 4 does not match connection dimension 3"),
        (compatibility_defect, (_form(2), "connection"), "form dimension 2 does not match connection dimension 3"),
        (torsion_defect, ("algebra", "connection"), "connection dimension 3 does not match algebra dimension 4"),
        (curvature, ("algebra", "connection"), "connection dimension 3 does not match algebra dimension 4"),
    ],
    ids=[
        "pair_skew-4", "pair_skew-2", "constant_curvature_defect-4", "constant_curvature_defect-2",
        "constant_curvature_value-2", "compatibility-4", "compatibility-2", "torsion", "curvature",
    ],
)
def test_scans_reject_inputs_whose_dimensions_disagree(scan, args, message):
    # heis3's connection and tensor, and the 4-dim algebra of a model, against
    # inputs of another dimension: a ValueError names both, never a pass or an IndexError.
    heis = CATALOG["heis3"]
    inputs = {"tensor": heis.tensor, "connection": heis.connection, "algebra": CATALOG["c_times_sol"].algebra}
    with pytest.raises(ValueError) as info:
        scan(*(inputs.get(a, a) if isinstance(a, str) else a for a in args))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "gram, reason",
    [
        ([[1, 0], [0, 1]], "form dimension does not match the algebra"),
        # Both degenerate and of the wrong dimension: degeneracy is reported first.
        ([[1, 0], [0, 0]], "quadratic form is degenerate"),
    ],
    ids=["2-dim", "2-dim-degenerate"],
)
def test_levi_civita_refuses_a_form_of_another_dimension(gram, reason):
    # A catalog entry cannot carry such a form (its pair refuses it); the kernel checks its own.
    with pytest.raises(ValueError, match=f"^{reason}$"):
        levi_civita(CATALOG["sol3"].algebra, QuadraticForm(gram))


def test_constant_curvature_matches_sectional_on_coordinate_planes():
    g = CATALOG["sl2"].algebra
    b = killing_form(g)
    k = constant_curvature(g, b)
    tensor = curvature(g, levi_civita(g, b))
    seen = 0
    for i in range(3):
        for j in range(i + 1, 3):
            value = sectional_curvature(b, tensor, g.basis_vector(i), g.basis_vector(j))
            if value is not None:
                seen += 1
                assert value == k
    assert seen >= 1
    assert ricci(tensor).gram == scale(b.gram, gr(2) * k)


def test_killing_form_is_ad_invariant():
    g = CATALOG["sl2"].algebra
    b = killing_form(g)
    basis = [g.basis_vector(k) for k in range(3)]
    for x in basis:
        for y in basis:
            for z in basis:
                lhs = b.apply(bracket(g, x, y), z) + b.apply(y, bracket(g, x, z))
                assert lhs == gr(0)


def _random_nondegenerate_form(rng, n):
    while True:
        entries = [
            [gr(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
            for _ in range(n)
        ]
        gram = [[entries[i][j] + entries[j][i] for j in range(n)] for i in range(n)]
        q = QuadraticForm(gram)
        if q.nondegenerate:
            return q


def test_connection_identities_on_random_metrics():
    rng = random.Random(812)
    algebras = [CATALOG[i].algebra for i in ("flat_c3", "heis3", "sol3", "sl2")]
    for algebra in algebras:
        for _ in range(3):
            q = _random_nondegenerate_form(rng, 3)
            conn = levi_civita(algebra, q)
            tensor = curvature(algebra, conn)
            assert torsion_defect(algebra, conn) is None
            assert compatibility_defect(q, conn) is None
            assert curvature_antisymmetry_defect(tensor) is None
            assert bianchi_defect(tensor) is None
            assert pair_skew_defect(q, tensor) is None


def test_lowered_defect_scans_match_the_bilinear_reference():
    # Reference: two ``q.apply`` calls on basis vectors per index tuple.
    rng = random.Random(4)
    for algebra in (CATALOG[i].algebra for i in ("heis3", "sol3", "sl2")):
        q = _random_nondegenerate_form(rng, 3)
        conn = levi_civita(algebra, q)
        tensor = curvature(algebra, conn)
        e = [algebra.basis_vector(i) for i in range(3)]
        for _ in range(10):
            c = [[list(v) for v in row] for row in conn]
            r = [[[list(v) for v in fibers] for fibers in plane] for plane in tensor]
            i, j, k, l = (rng.randrange(3) for _ in range(4))
            c[i][j][k] += gr(rng.randint(-2, 2), 1)
            r[i][j][k][l] += gr(1, rng.randint(-2, 2))
            compatibility = next(
                (t for t in product(range(3), repeat=3)
                 if q.apply(c[t[0]][t[1]], e[t[2]]) + q.apply(e[t[1]], c[t[0]][t[2]])),
                None,
            )
            skew = next(
                (t for t in product(range(3), repeat=4)
                 if q.apply(r[t[0]][t[1]][t[2]], e[t[3]]) + q.apply(r[t[0]][t[1]][t[3]], e[t[2]])),
                None,
            )
            lowered_conn = tuple(tuple(map(tuple, row)) for row in c)
            lowered_tensor = tuple(
                tuple(tuple(map(tuple, fibers)) for fibers in plane) for plane in r
            )
            assert compatibility_defect(q, lowered_conn) == compatibility
            assert pair_skew_defect(q, lowered_tensor) == skew


def test_constant_curvature_agrees_with_random_planes():
    g = CATALOG["sl2"].algebra
    b = killing_form(g)
    k = constant_curvature(g, b)
    tensor = curvature(g, levi_civita(g, b))
    rng = random.Random(55)
    checked = 0
    while checked < 15:
        x = tuple(gr(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3))
        y = tuple(gr(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3))
        if len(span_basis([x, y])) != 2:
            continue
        value = sectional_curvature(b, tensor, x, y)
        if value is None:
            continue
        assert value == k
        checked += 1


def test_stabilizer_of_degenerate_plane_pair_also_vanishes():
    # Stronger than the nondegenerate-plane case: a null vector plus an
    # orthogonal unit vector still pin the whole of so(q).
    q = ADAPTED
    null = (gr(1), gr(0), gr(0))
    unit = (gr(0), gr(1), gr(0))
    assert q.apply(null, null) == gr(0) and q.apply(unit, unit) == gr(1)
    assert q.apply(null, unit) == gr(0)
    plane = QuadraticForm(
        [[q.apply(null, null), q.apply(null, unit)],
         [q.apply(unit, null), q.apply(unit, unit)]]
    )
    assert not plane.nondegenerate
    assert len(stabilizer_in_skew(q, [null, unit])) == 0


def test_vector_stabilizer_generators_realize_isotropy_dichotomy():
    # The 1-dim stabilizer of a null vector is nilpotent on the tangent
    # space; that of a unit vector is diagonalizable, matching the
    # unipotent/semisimple split of one-parameter isotropies.
    from holriem.linalg import _squarefree, min_poly, nilpotent_powers

    q = ADAPTED
    null_gen = stabilizer_in_skew(q, [(gr(1), gr(0), gr(0))])[0]
    unit_gen = stabilizer_in_skew(q, [(gr(0), gr(1), gr(0))])[0]
    assert nilpotent_powers(null_gen) and not _squarefree(min_poly(null_gen))
    assert _squarefree(min_poly(unit_gen))
    with pytest.raises(ValueError, match="is not nilpotent"):
        nilpotent_powers(unit_gen)


def test_semisimple_adapted_flow_generator_is_skew():
    # Infinitesimal version of (e1, e2, e3) -> (e1, exp(t) e2, exp(-t) e3)
    # preserving the semisimple adapted gram (unit anchor, isotropic pair).
    gram = CMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    generator = CMatrix.diagonal([0, 1, -1])
    assert (generator.transpose() @ gram + gram @ generator).is_zero()


def test_quadratic_form_refuses_a_gram_matrix_that_is_not_symmetric():
    # Symmetric, not Hermitian: q(x, y) = q(y, x) with no conjugation.
    assert QuadraticForm([[1, gr(0, 1)], [gr(0, 1), 0]]).dim == 2
    for gram, message in (
        ([[1, 2], [3, 4]], "symmetric"),
        ([[0, gr(0, 1)], [gr(0, -1), 0]], "symmetric"),
        ([[1, 0, 0], [0, 1, 0]], "square"),
    ):
        with pytest.raises(ValueError, match=message):
            QuadraticForm(gram)
