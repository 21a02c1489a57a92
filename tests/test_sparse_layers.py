"""The sparse elimination and bracket terms against dense references.

``linalg._reduce`` divides and subtracts only at the nonzero columns of
each pivot row, and ``LieAlgebra.terms`` lists the nonzero entries of
every bracket once.  The references in ``conftest`` are the dense forms
they replaced: an elimination over whole rows, and brackets and
Jacobiators summed over the whole structure-constant table.
"""

import random
from fractions import Fraction

import pytest
from conftest import dense_bracket, dense_jacobi_witness, dense_reduce

from holriem import linalg
from holriem.catalog import build_catalog
from holriem.liealg import LieAlgebra, bracket, jacobi_witness
from holriem.linalg import CMatrix, kernel, solve
from holriem.scalars import gr

ALGEBRAS = [(entry.id, entry.algebra) for entry in build_catalog()]


def _scalar(rng, density=1.0):
    if rng.random() >= density:
        return gr(0)
    return gr(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-2, 2))


def _matrix(rng, rows, cols, density=1.0):
    return [[_scalar(rng, density) for _ in range(cols)] for _ in range(rows)]


def _matrices():
    """Seeded Q(i) matrices of every shape the elimination meets."""
    rng = random.Random(1618)
    cases = []
    for index in range(6):
        n = 2 + index % 5
        cases.append((f"dense{index}", _matrix(rng, n, n)))
        cases.append((f"sparse{index}", _matrix(rng, n, n, density=0.25)))
        # Rank at most n - 1: each row combines the same n - 1 rows.
        base = _matrix(rng, n - 1, n, density=0.6)
        mix = _matrix(rng, n, n - 1)
        cases.append(
            (f"singular{index}", [[sum((m[t] * base[t][c] for t in range(n - 1)), gr(0)) for c in range(n)] for m in mix])
        )
        cases.append((f"wide{index}", _matrix(rng, n, 2 * n, density=0.5)))
        cases.append((f"tall{index}", _matrix(rng, 2 * n, n, density=0.5)))
        square = _matrix(rng, n, n, density=0.4)
        cases.append(
            (f"augmented{index}", [row + [gr(int(i == j)) for j in range(n)] for i, row in enumerate(square)])
        )
    return cases


MATRICES = _matrices()


@pytest.mark.parametrize("name, rows", MATRICES, ids=[name for name, _ in MATRICES])
def test_reduce_matches_the_dense_elimination(name, rows):
    # Pivoting in all columns, and in the left half only as ``solve`` does.
    for width in (None, len(rows[0]) // 2):
        sparse = linalg._reduce([list(row) for row in rows], width)
        dense = dense_reduce([list(row) for row in rows], width)
        assert sparse == dense


def test_the_matrices_include_singular_and_full_rank_ones():
    ranks = {name: (CMatrix(rows).rank(), len(rows)) for name, rows in MATRICES}
    assert all(rank < n for name, (rank, n) in ranks.items() if name.startswith("singular"))
    assert any(rank == n for name, (rank, n) in ranks.items() if name.startswith("dense"))


def _solved(matrix):
    """The solutions against I (the columns of the inverse, when there is one), the
    kernel and the rank of one matrix."""
    return solve(matrix, CMatrix.identity(matrix.rows).entries), kernel(matrix), matrix.rank()


@pytest.mark.parametrize("name, rows", MATRICES, ids=[name for name, _ in MATRICES])
def test_linear_kernels_agree_with_the_dense_elimination(name, rows, monkeypatch):
    matrix = CMatrix(rows)
    sparse = _solved(matrix)
    monkeypatch.setattr(linalg, "_reduce", dense_reduce)
    assert _solved(matrix) == sparse


def _random_table(rng, n, density):
    """Antisymmetric dense table; most of these break Jacobi."""
    grid = [[[gr(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            grid[i][j] = [_scalar(rng, density) for _ in range(n)]
            grid[j][i] = [-x for x in grid[i][j]]
    return LieAlgebra([f"e{k}" for k in range(n)], grid)


RANDOM_ALGEBRAS = [
    (f"random{index}/dim{2 + index % 6}", _random_table(random.Random(index), 2 + index % 6, 0.3 if index % 2 else 0.6))
    for index in range(30)
]


@pytest.mark.parametrize(
    "name, algebra", ALGEBRAS + RANDOM_ALGEBRAS, ids=[name for name, _ in ALGEBRAS + RANDOM_ALGEBRAS]
)
def test_terms_are_the_nonzero_structure_constants(name, algebra):
    n = algebra.dim
    for i in range(n):
        for j in range(n):
            expected = tuple((k, c) for k, c in enumerate(algebra.constants[i][j]) if c)
            assert algebra.terms[i][j] == expected


def test_terms_stay_out_of_equality_hash_and_repr():
    algebra = ALGEBRAS[3][1]
    copy = LieAlgebra(algebra.basis_names, algebra.constants)
    assert copy == algebra and hash(copy) == hash(algebra) and copy.terms == algebra.terms
    assert "terms" not in repr(algebra)
    renamed = LieAlgebra(("a", "b", "c"), algebra.constants)
    assert renamed.terms == algebra.terms


@pytest.mark.parametrize("seed", range(20))
def test_antisymmetry_names_the_first_bad_pair(seed):
    rng = random.Random(seed)
    n = 2 + seed % 4
    grid = [[[x for x in v] for v in row] for row in _random_table(rng, n, 0.5).constants]
    i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    grid[i][j][k] = grid[i][j][k] + 1
    first = next(
        (a, b)
        for a in range(n)
        for b in range(a, n)
        if any(x + y for x, y in zip(grid[a][b], grid[b][a]))
    )
    with pytest.raises(ValueError, match=rf"not antisymmetric at \(e{first[0]},e{first[1]}\)$"):
        LieAlgebra([f"e{k}" for k in range(n)], grid)


@pytest.mark.parametrize(
    "name, algebra", ALGEBRAS + RANDOM_ALGEBRAS, ids=[name for name, _ in ALGEBRAS + RANDOM_ALGEBRAS]
)
def test_bracket_matches_the_dense_bracket(name, algebra):
    rng = random.Random(name)
    for _ in range(5):
        x = [_scalar(rng, 0.6) for _ in range(algebra.dim)]
        y = [_scalar(rng, 0.6) for _ in range(algebra.dim)]
        assert bracket(algebra, x, y) == dense_bracket(algebra, x, y)


def test_jacobi_witness_matches_the_dense_scan(mutate_structure_constant):
    # Random tables break Jacobi at (0, 1, 2); one shifted constant of a
    # catalog algebra breaks it at later triples too.
    perturbed = [
        mutate_structure_constant(algebra, i, j, k)
        for _, algebra in ALGEBRAS
        for i in range(algebra.dim)
        for j in range(i + 1, algebra.dim)
        for k in range(algebra.dim)
    ]
    algebras = [algebra for _, algebra in ALGEBRAS + RANDOM_ALGEBRAS] + perturbed
    witnesses = [jacobi_witness(algebra) for algebra in algebras]
    assert witnesses == [dense_jacobi_witness(algebra) for algebra in algebras]
    assert witnesses[: len(ALGEBRAS)] == [None] * len(ALGEBRAS)
    assert {w for w in witnesses if w is not None} == {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)}
