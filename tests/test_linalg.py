"""Exact linear-algebra kernels: solve, kernel, minimal polynomials, semisimplicity."""

import random
from fractions import Fraction
from itertools import product

import pytest
from conftest import dense_apply, dense_inverse, dense_matmul, dense_reduce, jordan, jordan_blocks, scale, zeros

from holriem.forms import QuadraticForm
from holriem import linalg
from holriem.linalg import (
    CMatrix,
    _annihilated,
    _squarefree,
    act,
    exp_nilpotent,
    kernel,
    min_poly,
    nilpotent_powers,
    solve,
    span_basis,
)
from holriem.scalars import ZERO, GaussianRational, gr


def test_solve_identity():
    b = (gr(3), gr(0, 1), gr(Fraction(1, 2)))
    assert solve(CMatrix.identity(3), [b]) == ([b], [])


def test_solve_inconsistent_rank2():
    # Third row is the sum of the first two, b sits outside the column space.
    a = CMatrix([[1, 0, 0], [0, 1, 0], [1, 1, 0]])
    assert a.rank() == 2
    assert solve(a, [(0, 0, 1)])[0] == [None]


def test_solve_underdetermined_reports_kernel_dim():
    a = CMatrix([[1, 1, 0]])
    (solution,), null = solve(a, [(1,)])
    assert len(null) == 2
    assert a.apply(solution) == (gr(1),)


@pytest.mark.parametrize("columns", [[[1, 0], [0, 1, 0]], [[1, 0, 0], [0, 1]]])
def test_from_columns_rejects_ragged_columns(columns):
    with pytest.raises(ValueError, match="ragged columns"):
        CMatrix.from_columns(columns)


def test_kernel_zero_matrix():
    assert len(kernel(zeros(3, 3))) == 3


def test_kernel_invertible():
    assert kernel(CMatrix([[1, 1], [0, 1]])) == []


def test_kernel_rank_one():
    a = CMatrix([[1, 2, 3], [2, 4, 6], [-1, -2, -3]])
    assert a.rank() == 1
    vectors = kernel(a)
    assert len(vectors) == 2
    for v in vectors:
        assert not any(a.apply(v))


def test_min_poly_identity():
    assert min_poly(CMatrix.identity(3)) == (-1, 1)


def test_min_poly_nilpotent_block():
    a = CMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert min_poly(a) == (0, 0, 0, 1)


def test_min_poly_diagonal():
    assert min_poly(CMatrix.diagonal([1, -1])) == (-1, 0, 1)


def test_nilpotent_examples():
    # The powers up to the nilpotency index, or a ValueError when A^n != 0.
    a = CMatrix([[0, 5, 7], [0, 0, -2], [0, 0, 0]])
    assert nilpotent_powers(a) == [CMatrix.identity(3), a, a @ a]
    with pytest.raises(ValueError, match=r"^matrix \[1, 0, 0; 0, 1, 0; 0, 0, 1\] is not nilpotent$"):
        nilpotent_powers(CMatrix.identity(3))
    assert nilpotent_powers(CMatrix([[0, 0], [0, 0]])) == [CMatrix.identity(2)]
    assert nilpotent_powers(CMatrix([[1, 1], [-1, -1]])) == [CMatrix.identity(2), CMatrix([[1, 1], [-1, -1]])]
    # The adapted-frame flow generator: e2 -> e1, e3 -> -e2.
    n = CMatrix([[0, 1, 0], [0, 0, -1], [0, 0, 0]])
    assert len(nilpotent_powers(n)) == 3
    with pytest.raises(ValueError, match="non-square"):
        nilpotent_powers(CMatrix([[0, 1]]))


def test_exp_nilpotent_sums_the_powers():
    # exp(tJ) = I + tJ + t^2 J^2 / 2 for the Jordan block of size 3, at integer and Gaussian t.
    j = CMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    flows = exp_nilpotent(nilpotent_powers(j), [0, 2, gr(0, 1)])
    half = gr(Fraction(-1, 2))
    assert flows == [
        CMatrix.identity(3),
        CMatrix([[1, 2, 2], [0, 1, 2], [0, 0, 1]]),
        CMatrix([[1, gr(0, 1), half], [0, 1, gr(0, 1)], [0, 0, 1]]),
    ]
    assert exp_nilpotent([CMatrix.identity(2)], [5]) == [CMatrix.identity(2)]


def test_semisimple_examples():
    assert _squarefree(min_poly(CMatrix.diagonal([1, 0, -1])))
    assert not _squarefree(min_poly(CMatrix([[0, 1], [0, 0]])))
    assert not _squarefree(min_poly(CMatrix([[1, 1], [0, 1]])))


def _random_matrix(rng, n):
    return CMatrix(
        [
            [
                gr(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                   Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def test_min_poly_annihilates_random_matrices():
    rng = random.Random(20240811)
    for _ in range(25):
        n = rng.choice([2, 3])
        a = _random_matrix(rng, n)
        p = min_poly(a)
        acc = zeros(n, n)
        power = CMatrix.identity(n)
        for c in p:
            acc = acc + scale(power, c)
            power = power @ a
        assert acc.is_zero()


def _times_linear(p, root):
    """Coefficients of p(t) (t - root), ascending."""
    return tuple(a - root * b for a, b in zip((gr(0), *p), (*p, gr(0))))


def test_semisimple_exactly_when_the_jordan_form_is_diagonal():
    # Eigenvalues from a pool of two, so most matrices repeat one.
    rng = random.Random(20261018)
    seen = {True: 0, False: 0}
    for _ in range(80):
        pool = rng.sample([gr(0), gr(1), gr(-2), gr(0, 1), gr(1, -1)], 2)
        blocks = jordan_blocks(rng, pool, rng.randint(1, 4))
        n = sum(size for _, size in blocks)
        while True:
            change = _random_matrix(rng, n)
            if change.rank() == n:
                break
        a = change @ jordan(blocks) @ dense_inverse(change)
        diagonal = all(size == 1 for _, size in blocks)
        assert _squarefree(min_poly(a)) == diagonal
        # The minimal polynomial is prod (t - value)^(largest block of value).
        expected = (gr(1),)
        for value in {value for value, _ in blocks}:
            for _ in range(max(size for v, size in blocks if v == value)):
                expected = _times_linear(expected, value)
        assert min_poly(a) == expected
        seen[diagonal] += 1
    assert min(seen.values()) >= 20


@pytest.mark.parametrize(
    "blocks, semisimple",
    [
        # (t - i)^2 (t + 1): the repeated root i is in Q(i) but not in Q.
        (((gr(0, 1), 2), (gr(-1), 1)), False),
        # (t^2 + 1)^2, a square over Q(i) of a polynomial irreducible over Q.
        (((gr(0, 1), 2), (gr(0, -1), 2)), False),
        # (t - (1 + i))^3 in a single block.
        (((gr(1, 1), 3),), False),
        # (t - i)(t + i)(t + 1) and (t - (1 + i))(t - i): distinct roots off Q.
        (((gr(0, 1), 1), (gr(0, -1), 1), (gr(-1), 1)), True),
        (((gr(1, 1), 1), (gr(0, 1), 1), (gr(1, 1), 1)), True),
    ],
)
def test_semisimplicity_with_roots_in_q_i_only(blocks, semisimple):
    n = sum(size for _, size in blocks)
    change = CMatrix([[1, gr(0, 1), 0, 2], [0, 1, gr(1, -1), 0], [1, 0, 1, 0], [0, 0, 0, 1]])
    change = CMatrix([row[:n] for row in change.entries[:n]])
    a = change @ jordan(blocks) @ dense_inverse(change)
    expected = (gr(1),)
    for value in {value for value, _ in blocks}:
        for _ in range(max(size for v, size in blocks if v == value)):
            expected = _times_linear(expected, value)
    assert min_poly(a) == expected
    assert _squarefree(min_poly(a)) is semisimple


def test_kernel_dimension_and_residual_random():
    rng = random.Random(99)
    for _ in range(25):
        a = _random_matrix(rng, 3)
        vectors = kernel(a)
        assert len(vectors) == 3 - a.rank()
        for v in vectors:
            assert not any(a.apply(v))
        assert len(span_basis(vectors)) == len(vectors)


def test_nilpotent_and_semisimple_exclusive_for_nonzero():
    rng = random.Random(5)
    seen_nilpotent = 0
    for _ in range(40):
        a = _random_matrix(rng, 2)
        if a.is_zero():
            continue
        try:
            nilpotent_powers(a)
        except ValueError:
            continue
        seen_nilpotent += 1
        assert not _squarefree(min_poly(a))
    upper = CMatrix([[0, 1], [0, 0]])
    assert nilpotent_powers(upper) and not _squarefree(min_poly(upper))


def test_solve_against_the_identity_gives_the_inverse_or_a_kernel():
    a = CMatrix([[1, gr(0, 1)], [0, 2]])
    columns, null = solve(a, CMatrix.identity(2).entries)
    assert null == [] and CMatrix.from_columns(columns) @ a == CMatrix.identity(2)
    assert CMatrix.from_columns(columns) == dense_inverse(a)
    columns, null = solve(CMatrix([[1, 1], [1, 1]]), CMatrix.identity(2).entries)
    assert columns == [None, None] and null == [(gr(-1), gr(1))]


def test_solve_pivots_inside_the_matrix_only(monkeypatch):
    # Each inconsistent right side would be a pivot column if the search ran past
    # A, and would be subtracted from the right sides after it (pivots [0, 2, 3]).
    seen = []
    real = linalg._reduce

    def recorded(rows, width=None):
        reduced, pivots = real(rows, width)
        seen.append(pivots)
        return reduced, pivots

    monkeypatch.setattr(linalg, "_reduce", recorded)
    a = CMatrix([[1, 1], [1, 1], [2, 2]])
    solutions, null = solve(a, [(1, 0, 0), (0, 1, 0), (1, 1, 2)])
    assert seen == [[0]]
    assert solutions == [None, None, (gr(1), gr(0))] and null == [(gr(-1), gr(1))]


def test_solve_overdetermined_consistent():
    a = CMatrix([[1], [1]])
    assert solve(a, [(2, 2), (2, 3)]) == ([(gr(2),), None], [])


def _sparse_vector(rng, size):
    """Random Q(i) entries, each zero with probability one half."""
    return tuple(
        gr(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-3, 3))
        if rng.random() < 0.5
        else gr(0)
        for _ in range(size)
    )


def _dense_kernel(a):
    """The kernel basis read from ``dense_reduce``: one vector per free column."""
    reduced, pivots = dense_reduce([list(row) for row in a.entries])
    basis = []
    for free in (c for c in range(a.cols) if c not in pivots):
        v = [gr(0)] * a.cols
        v[free] = gr(1)
        for row, c in zip(reduced, pivots):
            v[c] = -row[free]
        basis.append(tuple(v))
    return basis


def _random_system(rng, rows, cols, rank):
    """A rows x cols matrix of the given rank over Q(i), a product of sparse random factors."""
    while True:
        left = CMatrix([_sparse_vector(rng, rank) for _ in range(rows)]) if rank else None
        right = CMatrix([_sparse_vector(rng, cols) for _ in range(rank)]) if rank else None
        a = left @ right if rank else zeros(rows, cols)
        if a.rank() == rank:
            return a


@pytest.mark.parametrize(
    "rows, cols, rank",
    # Square of full rank (unique), square and rectangular of lower rank
    # (underdetermined, with inconsistent right sides), wide, tall, and zero.
    [(3, 3, 3), (4, 4, 2), (2, 5, 2), (3, 5, 2), (5, 3, 3), (5, 3, 2), (3, 3, 0)],
)
def test_solve_gives_solutions_none_and_the_kernel(rows, cols, rank):
    rng = random.Random(f"solve/{rows}x{cols}/{rank}")
    seen = {"consistent": 0, "inconsistent": 0}
    for _ in range(6):
        a = _random_system(rng, rows, cols, rank)
        rhs = [a.apply(_sparse_vector(rng, cols)) for _ in range(3)]
        rhs += [_sparse_vector(rng, rows) for _ in range(3)] + [(gr(0),) * rows]
        solutions, null = solve(a, rhs)
        assert null == kernel(a) == _dense_kernel(a) and len(null) == cols - rank
        assert solve(a, []) == ([], null)
        pivots = dense_reduce([list(row) for row in a.entries])[1]
        for b, x in zip(rhs, solutions):
            # b is outside the column space exactly when [A | b] has a pivot at b.
            consistent = cols not in dense_reduce([list(row) + [v] for row, v in zip(a.entries, b)])[1]
            seen["consistent" if consistent else "inconsistent"] += 1
            if not consistent:
                assert x is None
                continue
            assert a.apply(x) == tuple(b)
            # The particular solution sets every free variable to zero.
            assert all(not x[c] for c in range(cols) if c not in pivots)
    assert seen["consistent"] and (seen["inconsistent"] or rank == rows)


def test_solve_refuses_right_sides_of_the_wrong_length():
    with pytest.raises(ValueError, match="right sides of length 2"):
        solve(CMatrix.identity(2), [(1, 0), (1, 0, 0)])


def _rows_flat(matrix):
    return tuple(x for row in matrix.entries for x in row)


def _dense_dddu(a, t, n):
    """Entry (i,j,k,l) of A acting on a dddu tensor T, summed densely: sum_p of
    A[l][p] T(i,j,k,p) - A[p][i] T(p,j,k,l) - A[p][j] T(i,p,k,l) - A[p][k] T(i,j,p,l)."""
    m = a.entries

    def at(i, j, k, l):
        return t[((i * n + j) * n + k) * n + l]

    return tuple(
        sum(
            (
                m[l][p] * at(i, j, k, p)
                - m[p][i] * at(p, j, k, l)
                - m[p][j] * at(i, p, k, l)
                - m[p][k] * at(i, j, p, l)
                for p in range(n)
            ),
            gr(0),
        )
        for i, j, k, l in product(range(n), repeat=4)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_act_matches_dense_references(n):
    # A is not symmetric (for n > 1), so a slot rule that takes A^T for A,
    # or A for -A^T, shows; half the tensor entries are zero.
    rng = random.Random(2100 + n)
    for _ in range(5):
        a = _random_matrix(rng, n)
        assert n == 1 or a != a.transpose()
        v = _sparse_vector(rng, n)
        assert act(a, v, "u") == a.apply(v)
        s = CMatrix([_sparse_vector(rng, n) for _ in range(n)])
        assert act(a, _rows_flat(s), "dd") == _rows_flat(scale(a.transpose() @ s + s @ a, -1))
        assert s.flat == _rows_flat(s)
        t = _sparse_vector(rng, n**4)
        assert act(a, t, "dddu") == _dense_dddu(a, t, n)
        assert act(a, (gr(0),) * n**4, "dddu") == (gr(0),) * n**4


def test_act_refuses_shapes_it_cannot_act_on():
    a = CMatrix([[1, 2], [0, 1]])
    for matrix, tensor, kinds in (
        (a, (gr(1),) * 3, "u"),
        (a, (gr(1),) * 2, "dd"),
        (a, (gr(1),) * 4, "ux"),
        (CMatrix([[1, 2]]), (gr(1),) * 2, "u"),
    ):
        with pytest.raises(ValueError, match="action on"):
            act(matrix, tensor, kinds)


def test_annihilated_is_the_basis_without_images_and_a_kernel_with_them():
    basis = [CMatrix([[1, 0], [0, 0]]), CMatrix([[0, 1], [0, 0]]), CMatrix([[0, 0], [1, 1]])]
    assert _annihilated(basis, [(), (), ()]) == basis
    assert _annihilated([], []) == []
    # Images (1, 1), (1, 1), (0, 0): the kernel is spanned by b0 - b1 and b2.
    images = [(gr(1), gr(1)), (gr(1), gr(1)), (gr(0), gr(0))]
    assert _annihilated(basis, images) == [CMatrix([[-1, 1], [0, 0]]), CMatrix([[0, 0], [1, 1]])]


def test_act_on_tensors_side_by_side_acts_on_each():
    # Entry k of tensor b sits at k * m + b: a last slot of size m that A does not act on.
    rng = random.Random(2500)
    for n, kinds, m in ((1, "u", 3), (2, "u", 1), (2, "dd", 3), (3, "dd", 6), (2, "dud", 2)):
        a = _random_matrix(rng, n)
        tensors = [_sparse_vector(rng, n ** len(kinds)) for _ in range(m)]
        acted = act(a, tuple(x for entries in zip(*tensors) for x in entries), kinds)
        assert [acted[b::m] for b in range(m)] == [act(a, t, kinds) for t in tensors]
    with pytest.raises(ValueError, match="action on"):
        act(CMatrix([[1, 2], [0, 1]]), (), "u")


# -- the sparse product and apply ---------------------------------------------


def _sparse_matrix(rng, rows, cols, zero_row=None, zero_col=None):
    """Small Q(i) entries, about half of them zero, with row ``zero_row`` and
    column ``zero_col`` all zero."""
    return CMatrix(
        [
            [gr(0) if r == zero_row or c == zero_col else x for c, x in enumerate(_sparse_vector(rng, cols))]
            for r in range(rows)
        ]
    )


def _is_kernel_built(matrix, rows, cols):
    """A result of the kernels' own constructor holds what the public one would."""
    return (
        type(matrix.entries) is tuple
        and len(matrix.entries) == rows
        and all(type(row) is tuple and len(row) == cols for row in matrix.entries)
        and all(type(x) is GaussianRational for row in matrix.entries for x in row)
        and matrix == CMatrix(matrix.entries)
        and hash(matrix) == hash(CMatrix(matrix.entries))
    )


# (rows of A, columns of A = rows of B, columns of B): 1 x 1, square and non-square.
SHAPES = [(1, 1, 1), (3, 3, 3), (2, 3, 4), (4, 2, 3), (1, 4, 1), (3, 1, 2), (4, 4, 1)]


@pytest.mark.parametrize("m, k, n", SHAPES)
def test_product_and_apply_equal_the_dense_references(m, k, n):
    rng = random.Random(2400 + 100 * m + 10 * k + n)
    cases = 0
    for _ in range(6):
        # A zero row and a zero column in each operand, one at a time and together.
        for zeros_a, zeros_b in (((None, None), (None, None)), ((0, None), (None, n - 1)),
                                 ((None, k - 1), (0, None)), ((m - 1, 0), (k - 1, 0))):
            a, b = _sparse_matrix(rng, m, k, *zeros_a), _sparse_matrix(rng, k, n, *zeros_b)
            v = _sparse_vector(rng, k)
            product_ = a @ b
            assert product_ == dense_matmul(a, b)
            assert _is_kernel_built(product_, m, n)
            assert a.apply(v) == dense_apply(a, v)
            assert all(type(x) is GaussianRational for x in a.apply(v))
            assert _is_kernel_built(a.transpose(), k, m)
            cases += 1
    assert cases == 24
    zero_a, zero_v = CMatrix([[0] * k for _ in range(m)]), (gr(0),) * k
    assert zero_a @ _sparse_matrix(rng, k, n) == CMatrix([[0] * n for _ in range(m)])
    assert zero_a.apply(zero_v) == (ZERO,) * m == dense_apply(zero_a, zero_v)


def test_sum_is_built_like_public_matrices():
    a = CMatrix([[1, gr(0, 1), 0], [0, 2, 0], [gr(1, 1), 0, 1]])
    assert _is_kernel_built(a + a, 3, 3) and a + a == CMatrix([[2 * x for x in row] for row in a.entries])


def test_shape_mismatches_raise():
    a, b = CMatrix([[1, 2, 3], [4, 5, 6]]), CMatrix([[1, 2], [3, 4]])
    q = QuadraticForm.diagonal([1, 1])
    for bad in (lambda: a @ b, lambda: a @ a, lambda: a.apply((1, 2)), lambda: a.apply((1, 2, 3, 4)),
                lambda: a + b,
                lambda: q.apply((1,), (1, 1)), lambda: q.apply((1, 1, 5), (1, 1)),
                lambda: q.apply((1, 1), (1,)), lambda: q.apply((1, 1), (1, 1, 5))):
        with pytest.raises(ValueError):
            bad()


@pytest.mark.parametrize(
    "rows, error",
    [
        ([], ValueError),
        ([[]], ValueError),
        ([[], []], ValueError),
        ([[1, 2], [3]], ValueError),
        ([[1], [2, 3]], ValueError),
        ([[1.5]], TypeError),
        ([[1, "2"]], TypeError),
        ([[1, None]], TypeError),
    ],
)
def test_public_constructor_rejects_what_is_not_a_matrix(rows, error):
    with pytest.raises(error):
        CMatrix(rows)
