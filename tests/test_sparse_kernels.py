"""The sparse connection and curvature kernels against dense references.

``levi_civita``, ``curvature`` and the constant-curvature scans visit only
nonzero entries.  The references in ``conftest`` (and the two below) are
the dense formulas they replaced: the Koszul sums raised through a dense
``G^-1`` per basis pair, and R(e_i,e_j)e_k from three bilinear ``nabla``
calls on basis vectors.
"""

import random
import sys
from fractions import Fraction
from itertools import product

import pytest
from conftest import (
    conjugate,
    dense_bianchi_defect,
    dense_compatibility_defect,
    dense_curvature,
    dense_curvature_antisymmetry_defect,
    dense_levi_civita,
    dense_pair_skew_defect,
    dense_torsion_defect,
    sectional_curvature,
    vscale,
    vsub,
)

from holriem import geometry, scalars
from holriem.catalog import build_catalog
from holriem.forms import QuadraticForm
from holriem.geometry import (
    bianchi_defect,
    compatibility_defect,
    constant_curvature_defect,
    constant_curvature_value,
    curvature,
    curvature_antisymmetry_defect,
    levi_civita,
    pair_skew_defect,
    torsion_defect,
)
from holriem.liealg import LieAlgebra, jacobi_witness, killing_form
from holriem.linalg import CMatrix
from holriem.scalars import GaussianRational, gr

METRICS = [entry for entry in build_catalog() if not entry.model.isotropy]


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


def _nine_dimensional_metric(names=("sl2", "heis3", "sol3")):
    """The orthogonal sum of three catalog metrics (sl(2) + heis + sol unless
    ``names`` says otherwise), under a sparse unimodular basis change."""
    blocks = [next(e for e in METRICS if e.id == name) for name in names]
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
# terms and the one sparse elimination of [G | B].  A fused step
# ``addmul``/``submul`` counts as one product: 5286 of the 5311 are fused
# steps, so the count is the one the dunders made before the steps were fused;
# the other 25 halve the nonzero Gram entries.  levi_civita alone makes 597
# products and 290 zero tests (879 and 656 when it raised the Koszul sums
# through G^-1, for 5593 and 935 in all).  The dense references make 8564
# products and 72353 zero tests.
SPARSE_COST = {"__mul__": 5311, "__bool__": 569}


def _count_scalar_ops(monkeypatch, run):
    counts = dict.fromkeys(SPARSE_COST, 0)
    for name in SPARSE_COST:
        original = getattr(GaussianRational, name)

        def counted(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(GaussianRational, name, counted)
    for fused in (scalars.addmul, scalars.submul):

        def counted_step(s, x, y, _fused=fused):
            counts["__mul__"] += 1
            return _fused(s, x, y)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "holriem" and getattr(module, fused.__name__, None) is fused:
                monkeypatch.setattr(module, fused.__name__, counted_step)
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


def _scan_metrics():
    """Metrics of constant curvature in dimensions 1, 2 and 9: a line, the
    2-dimensional non-abelian algebra, and the flat orthogonal sum heis + sol + C^3
    under a basis change, whose 729 fibers are all zero."""
    line = LieAlgebra(["x"], [[[0]]])
    affine = LieAlgebra.from_table(["x", "y"], {("x", "y"): {"y": 1}})
    yield "dim1", line, QuadraticForm([[gr(0, 1)]])
    yield "dim2", affine, QuadraticForm([[1, 2], [2, 1]])
    yield "dim9-flat", *_nine_dimensional_metric(("heis3", "sol3", "flat_c3"))


SCAN_METRICS = [(entry.id, entry.algebra, entry.form) for entry in METRICS] + list(_scan_metrics())


@pytest.mark.parametrize("name, algebra, form", SCAN_METRICS, ids=[m[0] for m in SCAN_METRICS])
def test_defect_scan_matches_the_reference_on_perturbed_tensors(name, algebra, form):
    # Each single-entry perturbation of a tensor of constant curvature k0, on any
    # slot including the planes R(e_i, e_i), is found at k0 at its own triple; for
    # the flat metrics k0 = 0, where the model row is zero and one comparison
    # settles each pair.  At a k the tensor does not have, the scan agrees with the
    # dense one.
    n = algebra.dim
    tensor = curvature(algebra, levi_civita(algebra, form))
    k0 = constant_curvature_value(form, tensor)
    assert k0 is not None and (k0 == 0) == (name not in ("sl2", "dim2"))
    other = k0 + gr(1, 2)
    first = _dense_defect(form, tensor, other)
    # Below dimension 2 the model tensor vanishes, so every k fits a zero tensor.
    assert (first is None) == (n < 2) and constant_curvature_defect(form, tensor, other) == first
    zero = (gr(0),) * n
    zero_fibers = {"i = j": 0, "i != j": 0}
    for i, j, m, l in product(range(n), repeat=4):
        zero_fibers["i = j" if i == j else "i != j"] += tensor[i][j][m] == zero
        perturbed = _perturbed_tensor(tensor, i, j, m, l, gr(1, 1))
        assert constant_curvature_defect(form, perturbed, k0) == (i, j, m), (i, j, m, l)
        # A perturbation after the first violation leaves it first, as the dense
        # scan would find; the others go through the dense scan.
        if first is not None and (i, j, m) > first:
            expected = first
        else:
            expected = _dense_defect(form, perturbed, other)
        assert constant_curvature_defect(form, perturbed, other) == expected, (i, j, m, l)
    # Perturbed zero fibers: every fiber of the planes R(e_i, e_i), each counted n
    # times (once per entry l), and, for the flat metrics, every fiber of the pairs
    # i != j.
    assert zero_fibers["i = j"] == n**3
    if k0 == 0:
        assert zero_fibers["i != j"] == n**4 - n**3


# -- orbit-reduced identity scans ---------------------------------------------
#
# Each scan tests the first tuple of each symmetry orbit only; its witness
# must be the one the full dense scan (conftest) finds, on valid and invalid
# inputs alike.

# (name, scan, dense reference, its arguments from (algebra, form, connection, tensor),
#  visits on a defect-free input of dimension n: the number of orbits)
IDENTITY_SCANS = (
    ("torsion", torsion_defect, dense_torsion_defect,
     lambda a, q, c, r: (a, c), lambda n: n * (n + 1) // 2),
    ("compatibility", compatibility_defect, dense_compatibility_defect,
     lambda a, q, c, r: (q, c), lambda n: n * n * (n + 1) // 2),
    ("antisymmetry", curvature_antisymmetry_defect, dense_curvature_antisymmetry_defect,
     lambda a, q, c, r: (r,), lambda n: n * n * (n + 1) // 2),
    ("bianchi", bianchi_defect, dense_bianchi_defect,
     lambda a, q, c, r: (r,), lambda n: (n**3 + 2 * n) // 3),
    ("pair_skew", pair_skew_defect, dense_pair_skew_defect,
     lambda a, q, c, r: (q, r), lambda n: n**3 * (n + 1) // 2),
)


def _witnesses(algebra, form, connection, tensor):
    """{scan name: its witness}, after asserting it equals the dense scan's."""
    found = {}
    for name, scan, dense, args, _ in IDENTITY_SCANS:
        inputs = args(algebra, form, connection, tensor)
        found[name] = scan(*inputs)
        assert found[name] == dense(*inputs), name
    return found


def _tally(tally, found):
    for name, witness in found.items():
        tally[name] += witness is not None


def _perturbed_tensor(tensor, i, j, k, l, delta):
    """The tensor with delta added to entry l of fiber (i, j, k), every other plane,
    row and fiber shared with the input."""
    fibers = tensor[i][j]
    fiber = fibers[k][:l] + (fibers[k][l] + delta,) + fibers[k][l + 1:]
    row = fibers[:k] + (fiber,) + fibers[k + 1:]
    plane = tensor[i][:j] + (row,) + tensor[i][j + 1:]
    return tensor[:i] + (plane,) + tensor[i + 1:]


@pytest.mark.parametrize("entry", METRICS, ids=[entry.id for entry in METRICS])
def test_orbit_scans_find_the_dense_witness_on_every_one_entry_perturbation(entry):
    algebra, form = entry.algebra, entry.form
    connection = levi_civita(algebra, form)
    tensor = curvature(algebra, connection)
    n = algebra.dim
    tally = dict.fromkeys((name for name, *_ in IDENTITY_SCANS), 0)
    # Each connection slot, with the curvature of the perturbed table ...
    for slot in product(range(n), repeat=3):
        perturbed = _perturbed(connection, *slot)
        _tally(tally, _witnesses(algebra, form, perturbed, curvature(algebra, perturbed)))
    # ... and each tensor slot, on and off the planes R(e_i, e_i).
    for slot in product(range(n), repeat=4):
        _tally(tally, _witnesses(algebra, form, connection, _perturbed_tensor(tensor, *slot, gr(1, 1))))
    # A perturbed symbol breaks compatibility, and torsion off the diagonal
    # i = j.  A perturbed tensor entry breaks antisymmetry, Bianchi and pair
    # skew; the curvature of a perturbed table keeps antisymmetry.
    assert tally["torsion"] == n**3 - n**2 and tally["compatibility"] == n**3
    assert tally["antisymmetry"] == n**4 <= min(tally["bianchi"], tally["pair_skew"])


def _random_sparse(rng, shape, density):
    if not shape:
        return _random_scalar(rng) if rng.random() < density else gr(0)
    return tuple(_random_sparse(rng, shape[1:], density) for _ in range(shape[0]))


def test_orbit_scans_find_the_dense_witness_on_random_inputs():
    rng = random.Random(1907)
    tally = dict.fromkeys((name for name, *_ in IDENTITY_SCANS), 0)
    for n in range(1, 6):
        for trial in range(8):
            algebra = _random_table(rng, n, density=0.3)
            form = _random_form(rng, n)
            connection = levi_civita(algebra, form)
            tensor = curvature(algebra, connection)
            # Valid up to Jacobi, which a random table breaks: Bianchi fails.
            _tally(tally, _witnesses(algebra, form, connection, tensor))
            # One random entry off in the table and in the tensor.
            slot = [rng.randrange(n) for _ in range(4)]
            delta = _random_scalar(rng) or gr(1)
            _tally(tally, _witnesses(
                algebra, form, _perturbed(connection, *slot[:3]),
                _perturbed_tensor(tensor, *slot, delta),
            ))
            # Random sparse tables and tensors, not antisymmetric, and a
            # possibly degenerate symmetric form.
            density = (0.05, 0.2, 0.5)[trial % 3]
            grid = _random_sparse(rng, (n, n), density)
            symmetric = QuadraticForm([[grid[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
            _tally(tally, _witnesses(
                algebra, symmetric,
                _random_sparse(rng, (n, n, n), density), _random_sparse(rng, (n, n, n, n), density),
            ))
    # The comparisons are not vacuous: each scan found violations.
    assert all(count >= 30 for count in tally.values()), tally


def _sum_algebra(blocks):
    """The direct sum of the given algebras, on basis e0, e1, ..."""
    n = sum(block.dim for block in blocks)
    constants = [[[gr(0)] * n for _ in range(n)] for _ in range(n)]
    offset = 0
    for block in blocks:
        for i, j, k in product(range(block.dim), repeat=3):
            constants[offset + i][offset + j][offset + k] = block.constants[i][j][k]
        offset += block.dim
    return LieAlgebra([f"e{k}" for k in range(n)], constants)


def _defect_free_metrics():
    """Jacobi-satisfying algebras of dims 1-5 under random nondegenerate forms,
    and the 9-dimensional metric."""
    rng = random.Random(33)
    sl2 = next(entry.algebra for entry in METRICS if entry.id == "sl2")
    line = LieAlgebra(["x"], [[[0]]])
    affine = LieAlgebra.from_table(["x", "y"], {("x", "y"): {"y": 1}})
    for blocks in ([line], [affine], [sl2], [sl2, line], [sl2, affine]):
        algebra = _sum_algebra(blocks)
        yield algebra, _random_form(rng, algebra.dim)
    yield _nine_dimensional_metric()


def _visits(monkeypatch, scan, inputs):
    """The scan's witness and how many index tuples it tested."""
    visits = 0
    real = geometry._first

    def counting(points, bad):
        def counted(*point):
            nonlocal visits
            visits += 1
            return bad(*point)

        return real(points, counted)

    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_first", counting)
        return scan(*inputs), visits


DEFECT_FREE = list(_defect_free_metrics())


@pytest.mark.parametrize("algebra, form", DEFECT_FREE, ids=[f"dim{a.dim}" for a, _ in DEFECT_FREE])
def test_orbit_scans_visit_one_tuple_per_orbit(algebra, form, monkeypatch):
    connection = levi_civita(algebra, form)
    tensor = curvature(algebra, connection)
    n = algebra.dim
    for name, scan, dense, args, orbits in IDENTITY_SCANS:
        inputs = args(algebra, form, connection, tensor)
        assert _visits(monkeypatch, scan, inputs) == (None, orbits(n)), name
        # The guard can fail: the full dense scans break it (in dimension 1
        # every orbit is one tuple).
        witness, visits = _visits(monkeypatch, dense, inputs)
        assert witness is None and (visits > orbits(n)) == (n > 1), name
