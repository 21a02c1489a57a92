"""Shared fixtures and the test-only helpers and dense references.

Tests import the plain functions with ``from conftest import ...``.
"""

import random
from fractions import Fraction
from itertools import product
from typing import Sequence

import pytest
from hypothesis import settings

# ``paper`` is loaded lazily by the package; importing it here puts it in ``sys.modules``
# before a test walks the holriem modules to patch a name, so it never binds a patch for good.
from holriem import catalog, geometry, paper
from holriem.geometry import ConnectionTable, CurvatureTensor
from holriem.liealg import LieAlgebra, NotClosed, bracket
from holriem.linalg import CMatrix, Vector, as_vector, span_basis, vadd, zero_vector
from holriem.models import HomogeneousModel
from holriem.scalars import ONE, ZERO, GaussianRational, as_gr, gr

settings.register_profile("exact", derandomize=True)
settings.load_profile("exact")


@pytest.fixture(autouse=True)
def cold_read_memo():
    """Each test starts with an empty ``catalog.read_text`` memo, as a fresh process does."""
    catalog.read_text.cache_clear()


def _mutate_structure_constant(
    algebra: LieAlgebra, i: int, j: int, k: int, delta=1
) -> LieAlgebra:
    if i == j:
        raise ValueError("diagonal brackets stay zero")
    grid = [[list(v) for v in row] for row in algebra.constants]
    grid[i][j][k] = grid[i][j][k] + as_gr(delta)
    grid[j][i][k] = grid[j][i][k] - as_gr(delta)
    return LieAlgebra(algebra.basis_names, grid)


@pytest.fixture
def mutate_structure_constant():
    """Fault injector: copy with ``c^k_{ij}`` shifted by delta (antisymmetry preserved)."""
    return _mutate_structure_constant


def _random_gaussian_rational(rng: random.Random, span: int = 3) -> GaussianRational:
    return gr(
        Fraction(rng.randint(-span, span), rng.randint(1, 2)),
        Fraction(rng.randint(-span, span), rng.randint(1, 2)),
    )


@pytest.fixture
def random_family_point():
    """A point (c, m, k, beta) of the stabilizer family with small random Q(i) entries, from ``rng``."""
    return lambda rng: tuple(_random_gaussian_rational(rng) for _ in range(4))


def metric_pair(algebra: LieAlgebra, form) -> HomogeneousModel:
    """The pair with h = 0 that a metric file gives: ``form`` on the whole basis."""
    return HomogeneousModel(algebra, (), CMatrix.identity(algebra.dim).entries, quotient_form=form)


def family_at(point) -> catalog.CatalogEntry:
    """The stabilizer family's shipped file at ``point`` = (c, m, k, beta), as an entry."""
    family = catalog._shipped(catalog.FAMILY_ID)[1]
    return catalog.entry_from_spec(family.name, *catalog._at(family, point))


# -- test-only matrix and algebra helpers -------------------------------------


def zeros(rows: int, cols: int) -> CMatrix:
    return CMatrix([[0] * cols for _ in range(rows)])


def scale(matrix: CMatrix, scalar) -> CMatrix:
    s = as_gr(scalar)
    return CMatrix([[s * v for v in row] for row in matrix.entries])


def jordan(blocks: Sequence[tuple[GaussianRational, int]]) -> CMatrix:
    """Block-diagonal Jordan matrix of ``(eigenvalue, size)`` blocks."""
    n = sum(size for _, size in blocks)
    rows = [[gr(0)] * n for _ in range(n)]
    start = 0
    for value, size in blocks:
        for k in range(start, start + size):
            rows[k][k] = value
            if k + 1 < start + size:
                rows[k][k + 1] = gr(1)
        start += size
    return CMatrix(rows)


def jordan_blocks(rng: random.Random, pool: Sequence[GaussianRational], n: int) -> list:
    """Random ``(eigenvalue, size)`` blocks of total size n, eigenvalues from ``pool``."""
    blocks = []
    while sum(size for _, size in blocks) < n:
        size = rng.randint(1, n - sum(size for _, size in blocks))
        blocks.append((rng.choice(pool), size))
    return blocks


def vsub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return tuple(a - b for a, b in zip(u, v))


def vscale(scalar, v: Sequence) -> Vector:
    s = as_gr(scalar)
    return tuple(s * a for a in v)


def column(matrix: CMatrix, j: int) -> Vector:
    """Column j of the matrix."""
    return tuple(row[j] for row in matrix.entries)


def trace(matrix: CMatrix) -> GaussianRational:
    return sum((matrix.entries[i][i] for i in range(matrix.rows)), start=gr(0))


def ad(algebra: LieAlgebra, x: Sequence) -> CMatrix:
    """Matrix of ``y -> [x, y]`` in the algebra basis."""
    columns = [bracket(algebra, x, algebra.basis_vector(j)) for j in range(algebra.dim)]
    return CMatrix.from_columns(columns)


def conjugate(
    algebra: LieAlgebra, change: CMatrix, basis_names: Sequence[str] | None = None
) -> LieAlgebra:
    """Pull the bracket back through an invertible basis change P.

    New constants satisfy ``[e_i, e_j]_new = P^-1 [P e_i, P e_j]``.
    """
    n = algebra.dim
    if change.rows != n or change.cols != n:
        raise ValueError("basis change has the wrong shape")
    inverse = dense_inverse(change)
    grid = [
        [inverse.apply(bracket(algebra, column(change, i), column(change, j))) for j in range(n)]
        for i in range(n)
    ]
    return LieAlgebra(tuple(basis_names) if basis_names else algebra.basis_names, grid)


def failed_checks(report) -> list:
    """The failing checks of a ``VerifyReport``, in report order."""
    return [c for c in report.checks if not c.passed]


def curvature_apply(tensor: CurvatureTensor, x: Sequence, y: Sequence, z: Sequence) -> Vector:
    """Trilinear extension ``R(x, y) z`` of the tensor's basis fibers."""
    u, v, w = as_vector(x), as_vector(y), as_vector(z)
    out = list(zero_vector(len(tensor)))
    for i, j, k in product(range(len(tensor)), repeat=3):
        coeff = u[i] * v[j] * w[k]
        if coeff:
            out = [a + coeff * r for a, r in zip(out, tensor[i][j][k])]
    return tuple(out)


def sectional_curvature(form, tensor: CurvatureTensor, x: Sequence, y: Sequence):
    """``K(x, y) = q(R(x,y)y, x) / (q(x,x)q(y,y) - q(x,y)^2)``; None on a degenerate plane."""
    u, v = as_vector(x), as_vector(y)
    if len(span_basis([u, v])) != 2:
        raise ValueError("sectional curvature needs independent vectors")
    denominator = form.apply(u, u) * form.apply(v, v) - form.apply(u, v) ** 2
    if not denominator:
        return None
    return form.apply(curvature_apply(tensor, u, v, v), u) / denominator


# -- dense references for the sparse geometry kernels -------------------------


def nabla(connection: ConnectionTable, x: Sequence, y: Sequence) -> Vector:
    """Bilinear extension of the Christoffel table to constant fields."""
    u, v = as_vector(x), as_vector(y)
    out = list(zero_vector(len(connection)))
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in enumerate(v):
            if not b:
                continue
            coeff = a * b
            for k, c in enumerate(connection[i][j]):
                if c:
                    out[k] = out[k] + coeff * c
    return tuple(out)


def dense_levi_civita(algebra: LieAlgebra, form) -> ConnectionTable:
    """Koszul closed form with dense lowering and a dense G^-1 per pair."""
    n = algebra.dim
    gram_inverse = dense_inverse(form.gram)
    c = [[form.gram.apply(v) for v in row] for row in algebra.constants]
    return tuple(
        tuple(
            gram_inverse.apply([(c[i][j][k] - c[j][k][i] + c[k][i][j]) / 2 for k in range(n)])
            for j in range(n)
        )
        for i in range(n)
    )


def dense_curvature(algebra: LieAlgebra, connection: ConnectionTable) -> CurvatureTensor:
    """R(e_i,e_j)e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k - nabla_[e_i,e_j] e_k,
    term by term on basis vectors."""
    n = algebra.dim
    basis = [algebra.basis_vector(i) for i in range(n)]
    c = connection
    return tuple(
        tuple(
            tuple(
                vsub(
                    vsub(nabla(connection, basis[i], c[j][k]), nabla(connection, basis[j], c[i][k])),
                    nabla(connection, algebra.constants[i][j], basis[k]),
                )
                for k in range(n)
            )
            for j in range(n)
        )
        for i in range(n)
    )


# -- dense references for the orbit-reduced identity scans --------------------
#
# The scans as they were before each tested one tuple per symmetry orbit:
# every tuple of range(n)^arity, with dense lowering and vector sums.  They
# call ``_first`` through the module, so a wrapper of it sees their visits.


def _first_index(n: int, arity: int, bad) -> tuple[int, ...] | None:
    """Lexicographically first index tuple in ``range(n)^arity`` where ``bad`` holds."""
    return geometry._first(product(range(n), repeat=arity), bad)


def dense_torsion_defect(algebra: LieAlgebra, connection: ConnectionTable) -> tuple[int, int] | None:
    """First basis pair with nabla_x y - nabla_y x != [x, y], or None."""
    return _first_index(
        algebra.dim,
        2,
        lambda i, j: any(vsub(vsub(connection[i][j], connection[j][i]), algebra.constants[i][j])),
    )


def dense_compatibility_defect(form, connection: ConnectionTable) -> tuple[int, int, int] | None:
    """First triple violating q(nabla_z x, y) + q(x, nabla_z y) = 0."""
    # low[z][x][y] = q(nabla_z x, e_y); the Gram matrix is symmetric.
    low = [[form.gram.apply(v) for v in row] for row in connection]
    return _first_index(
        len(connection), 3, lambda z, x, y: low[z][x][y] + low[z][y][x]
    )


def dense_curvature_antisymmetry_defect(tensor: CurvatureTensor) -> tuple[int, int, int] | None:
    """First triple violating R(x,y)z + R(y,x)z = 0, or None."""
    return _first_index(
        len(tensor), 3, lambda i, j, k: any(vadd(tensor[i][j][k], tensor[j][i][k]))
    )


def dense_bianchi_defect(tensor: CurvatureTensor) -> tuple[int, int, int] | None:
    """First triple violating R(x,y)z + R(y,z)x + R(z,x)y = 0."""
    return _first_index(
        len(tensor),
        3,
        lambda i, j, k: any(vadd(vadd(tensor[i][j][k], tensor[j][k][i]), tensor[k][i][j])),
    )


def dense_pair_skew_defect(form, tensor: CurvatureTensor) -> tuple[int, int, int, int] | None:
    """First quadruple violating q(R(x,y)z, w) = -q(R(x,y)w, z)."""
    # low[i][j][k][l] = q(R(e_i,e_j)e_k, e_l); the Gram matrix is symmetric.
    low = [[[form.gram.apply(v) for v in fibers] for fibers in plane] for plane in tensor]
    return _first_index(
        len(tensor), 4, lambda i, j, k, l: low[i][j][k][l] + low[i][j][l][k]
    )


# -- dense references for the sparse matrix product and apply -----------------


def dense_matmul(a: CMatrix, b: CMatrix) -> CMatrix:
    """A B with each entry the full sum over k of A[i][k] B[k][j], zero terms included."""
    return CMatrix(
        [[sum((x * y for x, y in zip(row, col)), ZERO) for col in zip(*b.entries)] for row in a.entries]
    )


def dense_apply(a: CMatrix, v: Sequence) -> Vector:
    """A v with each entry the full sum over k of A[i][k] v[k], zero terms included."""
    vec = as_vector(v)
    return tuple(sum((x * y for x, y in zip(row, vec)), ZERO) for row in a.entries)


# -- dense references for the sparse elimination and bracket terms -----------


def dense_reduce(
    rows: list[list[GaussianRational]], width: int | None = None
) -> tuple[list[list[GaussianRational]], list[int]]:
    """Reduced row echelon form, pivoting in the first ``width`` columns (all by
    default), that divides and subtracts every entry of each pivot row, zero or
    not; returns (rows, pivot columns)."""
    if not rows:
        return rows, []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols if width is None else width):
        pivot_row = next((k for k in range(r, n_rows) if rows[k][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        if pivot != ONE:
            rows[r] = [v / pivot for v in rows[r]]
        for k in range(n_rows):
            if k != r and rows[k][c]:
                factor = rows[k][c]
                rows[k] = [a - factor * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def dense_inverse(matrix: CMatrix) -> CMatrix:
    """A^-1 read from the right half of ``dense_reduce`` of [A | I]; ValueError when
    A is not square or is singular."""
    n = matrix.rows
    if matrix.cols != n:
        raise ValueError("inverse of a non-square matrix")
    identity = CMatrix.identity(n).entries
    rows, pivots = dense_reduce([list(row) + list(e) for row, e in zip(matrix.entries, identity)], n)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return CMatrix([row[n:] for row in rows])


def dense_bracket(algebra: LieAlgebra, x: Sequence, y: Sequence) -> Vector:
    """``[x, y] = sum_ijk x_i y_j c_ij^k e_k`` over the whole dense table."""
    u, v = as_vector(x), as_vector(y)
    n = algebra.dim
    out = [ZERO] * n
    for i, j, k in product(range(n), repeat=3):
        out[k] = out[k] + u[i] * v[j] * algebra.constants[i][j][k]
    return tuple(out)


def dense_jacobi_witness(algebra: LieAlgebra) -> tuple[int, int, int] | None:
    """First triple i < j < k whose Jacobiator, built from dense brackets of
    basis vectors, is nonzero."""
    n = algebra.dim
    e = [algebra.basis_vector(i) for i in range(n)]
    for i, j, k in product(range(n), repeat=3):
        if i < j < k:
            total = zero_vector(n)
            for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                total = vadd(total, dense_bracket(algebra, dense_bracket(algebra, e[a], e[b]), e[d]))
            if any(total):
                return i, j, k
    return None


# -- references for the structure kernels -------------------------------------


def _bracket_span(algebra: LieAlgebra, left: Sequence[Vector], right: Sequence[Vector]) -> list[Vector]:
    return span_basis([bracket(algebra, u, v) for u in left for v in right])


def reference_derived_series(algebra: LieAlgebra) -> tuple[int, ...]:
    """Derived series with every step bracketing all ordered pairs, [g, g] included."""
    current = [algebra.basis_vector(i) for i in range(algebra.dim)]
    dims = [algebra.dim]
    while True:
        nxt = _bracket_span(algebra, current, current)
        dims.append(len(nxt))
        if len(nxt) == 0 or len(nxt) == len(current):
            return tuple(dims)
        current = nxt


def reference_lower_central_series(algebra: LieAlgebra) -> tuple[int, ...]:
    """Lower central series with [g, g] bracketed from all ordered pairs."""
    full = [algebra.basis_vector(i) for i in range(algebra.dim)]
    current = full
    dims = [algebra.dim]
    while True:
        nxt = _bracket_span(algebra, full, current)
        dims.append(len(nxt))
        if len(nxt) == 0 or len(nxt) == len(current):
            return tuple(dims)
        current = nxt


def reference_in_span(vectors: Sequence[Sequence], v: Sequence) -> bool:
    """Span membership as a comparison of the ranks of two ``span_basis`` calls."""
    base = span_basis(vectors)
    return len(span_basis(base + [as_vector(v)])) == len(base)


def reference_is_ideal(algebra: LieAlgebra, vectors: Sequence[Sequence]) -> bool:
    """One span-membership test per bracket ``[e_i, v]``."""
    vecs = [as_vector(v) for v in vectors]
    return all(
        reference_in_span(vecs, bracket(algebra, algebra.basis_vector(i), v))
        for i in range(algebra.dim)
        for v in vecs
    )


def reference_greedy_complement(algebra: LieAlgebra, isotropy: Sequence[Vector]) -> list:
    """Scan the basis in declared order, keeping each vector outside the span so far."""
    current = list(isotropy)
    chosen = []
    for position, label in enumerate(algebra.basis_names):
        if len(chosen) == algebra.dim - len(isotropy):
            break
        candidate = algebra.basis_vector(position)
        if not reference_in_span(current, candidate):
            current.append(candidate)
            chosen.append((label, candidate))
    return chosen


def reference_subalgebra(
    algebra: LieAlgebra, vectors: Sequence[Sequence], basis_names: Sequence[str] | None = None
) -> LieAlgebra:
    """Every ordered generator pair bracketed densely, k^2 in all, each image's
    coordinates and closure read from a dense elimination of [T | I], and the
    k x k table built by ``LieAlgebra``."""
    vecs = [as_vector(v) for v in vectors]
    k, n = len(vecs), algebra.dim
    identity = [[ONE if c == r else ZERO for c in range(n)] for r in range(n)]
    rows, pivots = dense_reduce([[v[r] for v in vecs] + identity[r] for r in range(n)])
    if pivots[:k] != list(range(k)):
        raise ValueError("subalgebra generators are linearly dependent")
    coords, members = [row[k:] for row in rows[:k]], [row[k:] for row in rows[k:]]
    grid = []
    for i, u in enumerate(vecs):
        grid.append([])
        for j, w in enumerate(vecs):
            image = dense_bracket(algebra, u, w)
            if any(sum((a * b for a, b in zip(m, image)), ZERO) for m in members):
                raise NotClosed(f"bracket of generators {i} and {j} leaves the span")
            grid[-1].append([sum((a * b for a, b in zip(c, image)), ZERO) for c in coords])
    names = tuple(basis_names) if basis_names else tuple(f"s{i}" for i in range(k))
    return LieAlgebra(names, grid)
