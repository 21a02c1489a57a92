"""The sparse connection and curvature kernels against dense references.

``levi_civita``, ``curvature`` and the constant-curvature scans visit only
nonzero entries.  The references in ``conftest`` (and the two below) are
the dense formulas they replaced: a dense ``G^-1`` per basis pair, and
R(e_i,e_j)e_k from three bilinear ``nabla`` calls on basis vectors.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from conftest import conjugate, dense_curvature, dense_levi_civita, sectional_curvature, vscale

from holriem.catalog import build_catalog
from holriem.forms import QuadraticForm
from holriem.geometry import (
    bianchi_defect,
    constant_curvature_defect,
    constant_curvature_value,
    curvature,
    levi_civita,
    pair_skew_defect,
)
from holriem.liealg import LieAlgebra, jacobi_witness, killing_form
from holriem.linalg import CMatrix, vsub
from holriem.scalars import GaussianRational, gr

METRICS = [entry for entry in build_catalog() if entry.form is not None]


def _model_vector(form, i, j, k, n):
    """q(e_j,e_k) e_i - q(e_i,e_k) e_j as a dense vector."""
    out = [gr(0)] * n
    out[i] = out[i] + form.gram.entries[j][k]
    out[j] = out[j] - form.gram.entries[i][k]
    return tuple(out)


def _dense_defect(form, tensor, k):
    n = len(tensor)
    return next(
        (
            t
            for t in product(range(n), repeat=3)
            if any(vsub(tensor[t[0]][t[1]][t[2]], vscale(k, _model_vector(form, *t, n))))
        ),
        None,
    )


def _dense_candidate(form, tensor):
    """First nondegenerate coordinate plane's sectional curvature, else the
    first nonzero model-tensor slot; None when neither exists."""
    n = len(tensor)
    if n < 2:
        return gr(0)
    e = [tuple(gr(int(k == i)) for k in range(n)) for i in range(n)]
    for i, j in product(range(n), repeat=2):
        if i < j:
            value = sectional_curvature(form, tensor, e[i], e[j])
            if value is not None:
                return value
    for i, j, k, l in product(range(n), repeat=4):
        model = _model_vector(form, i, j, k, n)[l]
        if model:
            return tensor[i][j][k][l] / model
    return None


def _random_scalar(rng):
    return gr(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-2, 2))


def _random_table(rng, n, density):
    names = [f"e{k}" for k in range(n)]
    table = {
        (names[i], names[j]): {names[k]: _random_scalar(rng) for k in range(n) if rng.random() < density}
        for i in range(n)
        for j in range(i + 1, n)
    }
    return LieAlgebra.from_table(names, table)


def _random_form(rng, n):
    while True:
        grid = [[gr(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if i == j or rng.random() < 0.3:
                    grid[i][j] = grid[j][i] = _random_scalar(rng)
        form = QuadraticForm(grid)
        if form.nondegenerate:
            return form


def _every_plane_degenerate():
    # q_ii q_jj = q_ij^2 on all coordinate planes, yet det = -4.
    return QuadraticForm([[1, -1, 1], [-1, 1, 1], [1, 1, 1]])


def _sl2_killing_in_a_basis_of_degenerate_planes():
    # Columns (0,1,-1), (i,0,2), (-i,0,2) in (H,E,F): B(p_i,p_i) B(p_j,p_j) = B(p_i,p_j)^2.
    sl2 = next(entry.algebra for entry in METRICS if entry.id == "sl2")
    p = CMatrix([[0, gr(0, 1), gr(0, -1)], [1, 0, 0], [-1, 2, 2]])
    return conjugate(sl2, p), QuadraticForm(p.transpose() @ killing_form(sl2).gram @ p)


def _inputs():
    rng = random.Random(2718)
    cases = [(entry.id, entry.algebra, entry.form) for entry in METRICS]
    for index in range(30):
        n = 1 + index % 6
        algebra = _random_table(rng, n, density=0.25 if index % 3 else 0.5)
        cases.append((f"random{index}/dim{n}", algebra, _random_form(rng, n)))
    for entry in METRICS:
        cases.append((f"{entry.id}/degenerate-planes", entry.algebra, _every_plane_degenerate()))
    cases.append(("sl2-killing/degenerate-planes", *_sl2_killing_in_a_basis_of_degenerate_planes()))
    return cases


INPUTS = _inputs()


def test_inputs_cover_every_dimension_and_broken_jacobi():
    dims = {algebra.dim for _, algebra, _ in INPUTS}
    assert dims == {1, 2, 3, 4, 5, 6}
    assert sum(jacobi_witness(algebra) is not None for _, algebra, _ in INPUTS) >= 5


@pytest.mark.parametrize("name, algebra, form", INPUTS, ids=[case[0] for case in INPUTS])
def test_sparse_kernels_match_the_dense_reference(name, algebra, form):
    table = levi_civita(algebra, form)
    assert table == dense_levi_civita(algebra, form)
    tensor = curvature(algebra, table)
    assert tensor == dense_curvature(algebra, table)
    candidate = _dense_candidate(form, tensor)
    value = constant_curvature_value(form, tensor)
    assert value == (candidate if _dense_defect(form, tensor, candidate) is None else None)
    for k in (candidate, candidate + 1):
        assert constant_curvature_defect(form, tensor, k) == _dense_defect(form, tensor, k)


def test_the_fallback_candidate_finds_a_nonzero_constant():
    algebra, form = _sl2_killing_in_a_basis_of_degenerate_planes()
    n = algebra.dim
    g = form.gram.entries
    assert all(g[i][i] * g[j][j] == g[i][j] ** 2 for i, j in product(range(n), repeat=2))
    assert constant_curvature_value(form, curvature(algebra, levi_civita(algebra, form))) == gr(
        Fraction(-1, 8)
    )


@pytest.mark.parametrize("entry", METRICS, ids=[entry.id for entry in METRICS])
def test_defect_scan_matches_the_reference_on_perturbed_tensors(entry):
    # Every catalog metric has constant curvature; one perturbed entry, on
    # any slot including the planes R(e_i, e_i), must be found as the dense
    # scan finds it.
    tensor = curvature(entry.algebra, levi_civita(entry.algebra, entry.form))
    k = constant_curvature_value(entry.form, tensor)
    assert k is not None
    for i, j, m, l in product(range(len(tensor)), repeat=4):
        comps = [[[list(v) for v in fibers] for fibers in plane] for plane in tensor]
        comps[i][j][m][l] = comps[i][j][m][l] + gr(1, 1)
        perturbed = tuple(tuple(tuple(map(tuple, f)) for f in p) for p in comps)
        defect = constant_curvature_defect(entry.form, perturbed, k)
        assert defect == _dense_defect(entry.form, perturbed, k) == (i, j, m)


def _perturbed(table, i, j, k):
    coeffs = [[list(v) for v in row] for row in table]
    coeffs[i][j][k] = coeffs[i][j][k] + gr(1, 1)
    return tuple(tuple(map(tuple, row)) for row in coeffs)


# Of the 27 single-symbol perturbations, how many break Bianchi or pair skew.
# On flat_c3 none can: the table is zero, and a curvature term needs two
# nonzero symbols, so one perturbed symbol leaves R = 0.
BROKEN_BY_ONE_SYMBOL = {"flat_c3": 0, "heis3": 17, "sol3": 14, "sl2": 27}


@pytest.mark.parametrize("entry", METRICS, ids=[entry.id for entry in METRICS])
def test_a_perturbed_christoffel_symbol_breaks_bianchi_or_pair_skew(entry):
    # The curvature kernel evaluates the formula on whatever table it gets,
    # so the report's identity checks can still fail.
    algebra, form = entry.algebra, entry.form
    table = levi_civita(algebra, form)
    broken = 0
    for slot in product(range(algebra.dim), repeat=3):
        perturbed = _perturbed(table, *slot)
        tensor = curvature(algebra, perturbed)
        assert tensor == dense_curvature(algebra, perturbed)
        broken += (bianchi_defect(tensor), pair_skew_defect(form, tensor)) != (None, None)
    assert broken == BROKEN_BY_ONE_SYMBOL[entry.id]


def test_a_torsion_making_perturbation_names_its_bianchi_triple():
    heis = next(entry for entry in METRICS if entry.id == "heis3")
    tensor = curvature(heis.algebra, _perturbed(levi_civita(heis.algebra, heis.form), 0, 1, 1))
    assert bianchi_defect(tensor) == (0, 1, 2)
    assert pair_skew_defect(heis.form, tensor) == (0, 2, 1, 2)


def _nine_dimensional_metric():
    """sl(2) + heis + sol, orthogonal, under a sparse unimodular basis change."""
    blocks = [next(e for e in METRICS if e.id == name) for name in ("sl2", "heis3", "sol3")]
    n = 9
    constants = [[[gr(0)] * n for _ in range(n)] for _ in range(n)]
    gram = [[gr(0)] * n for _ in range(n)]
    for offset, entry in zip((0, 3, 6), blocks):
        for i, j, k in product(range(3), repeat=3):
            constants[offset + i][offset + j][offset + k] = entry.algebra.constants[i][j][k]
        for i, j in product(range(3), repeat=2):
            gram[offset + i][offset + j] = entry.form.gram.entries[i][j]
    change = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    for r, c, x in ((0, 4, 1), (3, 7, -1), (6, 1, gr(0, 1)), (8, 2, 1), (1, 5, 1), (4, 8, -1), (2, 6, 1)):
        change[r][c] = x
    p = CMatrix(change)
    algebra = conjugate(LieAlgebra([f"e{k}" for k in range(n)], constants), p)
    return algebra, QuadraticForm(p.transpose() @ CMatrix(gram) @ p)


# Scalar products and zero tests of levi_civita + curvature on the metric
# above (352 nonzero curvature entries) with the sparse kernels, the bracket
# terms and the sparse elimination of the Gram matrix.  The dense references
# make 8564 products and 89552 zero tests.
SPARSE_COST = {"__mul__": 5593, "__bool__": 1829}


def _count_scalar_ops(monkeypatch, run):
    counts = dict.fromkeys(SPARSE_COST, 0)
    for name in SPARSE_COST:
        original = getattr(GaussianRational, name)

        def counted(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(GaussianRational, name, counted)
    run()
    monkeypatch.undo()
    return counts


def test_sparse_kernels_stay_sparse(monkeypatch):
    algebra, form = _nine_dimensional_metric()
    assert jacobi_witness(algebra) is None and form.nondegenerate
    sparse = _count_scalar_ops(monkeypatch, lambda: curvature(algebra, levi_civita(algebra, form)))
    dense = _count_scalar_ops(
        monkeypatch, lambda: dense_curvature(algebra, dense_levi_civita(algebra, form))
    )
    assert all(sparse[name] <= 1.5 * budget for name, budget in SPARSE_COST.items()), sparse
    # The guard can fail: the dense formulas break it.
    assert any(dense[name] > 1.5 * budget for name, budget in SPARSE_COST.items()), dense
