"""Dense exact matrices over Q(i) and the linear-algebra kernels.

Gaussian elimination over exact Q(i) scalars keeps every rank, kernel
and solution exact; there is no numerical pivoting or tolerance anywhere in
this module.  Every elimination runs through ``_reduce``, which visits
only the nonzero entries of each pivot row.  ``solve``, one elimination of
[A | b_1 ... b_m] pivoting inside A, gives a solution per right side, or None,
and the kernel basis of A; it answers every span, frame and so(q) question:
``kernel``, ``in_span``, ``liealg.subalgebra`` and ``is_ideal``, the model
frames and ``geometry.stabilizer_in_skew``.  ``_completion``, the basis vectors
that complete a span in order, reads the pivots of one elimination of [T | I].
A product A B adds a B[k][j] over the nonzero a = A[i][k] and B[k][j] only,
row by row (Gustavson, ACM TOMS 4(3), 1978).  A minimal polynomial is the
tuple of its coefficients in ascending degree, read from one elimination
over the powers of A, and semisimplicity is a gcd: A is diagonalizable
exactly when its minimal polynomial p has no repeated root, that is when
gcd(p, p') = 1 (Hoffman and Kunze, *Linear Algebra*, section 6.4).
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import Callable, Iterable, Sequence

from .scalars import GaussianRational, ONE, Record, ZERO, addmul, as_gr, submul

Vector = tuple[GaussianRational, ...]


def as_vector(values: Iterable) -> Vector:
    vec = tuple(values)
    for v in vec:
        if type(v) is not GaussianRational:
            return tuple(map(as_gr, vec))
    return vec


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def vadd(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return tuple(a + b for a, b in zip(u, v))


class CMatrix(Record):
    """Immutable dense matrix with GaussianRational entries."""

    __slots__ = _fields = ("entries",)
    entries: tuple[tuple[GaussianRational, ...], ...]

    def __init__(self, rows: Iterable[Iterable]):
        grid = tuple(map(as_vector, rows))
        if not grid or not grid[0]:
            raise ValueError("matrices must have at least one row and column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("ragged rows in matrix")
        object.__setattr__(self, "entries", grid)

    @classmethod
    @cache  # one per n, shared: a matrix is immutable
    def identity(cls, n: int) -> "CMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values: Iterable) -> "CMatrix":
        vals = [as_gr(v) for v in values]
        n = len(vals)
        return cls([[vals[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "CMatrix":
        cols = [list(c) for c in columns]
        if not cols:
            raise ValueError("need at least one column")
        if any(len(c) != len(cols[0]) for c in cols):
            raise ValueError("ragged columns in matrix")
        return cls(list(zip(*cols)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def flat(self) -> Vector:
        """The entries row by row: the matrix as a tensor for ``act``."""
        return tuple(x for row in self.entries for x in row)

    def __add__(self, other: "CMatrix") -> "CMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return _matrix(tuple(map(vadd, self.entries, other.entries)))

    def __matmul__(self, other: "CMatrix") -> "CMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        right, width, out = [_nonzero(row) for row in other.entries], other.cols, []
        for row in self.entries:
            acc = [ZERO] * width
            for a, nonzero in zip(row, right):
                if a:
                    for j, b in nonzero:
                        acc[j] = addmul(acc[j], a, b)
            out.append(tuple(acc))
        return _matrix(tuple(out))

    def apply(self, v: Sequence) -> Vector:
        vec = as_vector(v)
        if len(vec) != self.cols:
            raise ValueError("shape mismatch in matrix-vector product")
        nonzero = _nonzero(vec)
        return tuple(_dot(row, nonzero) for row in self.entries)

    def transpose(self) -> "CMatrix":
        return _matrix(tuple(zip(*self.entries)))

    def is_zero(self) -> bool:
        return all(not v for row in self.entries for v in row)

    def rank(self) -> int:
        _, pivots = _reduce([list(row) for row in self.entries])
        return len(pivots)

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(map(str, row)) for row in self.entries) + "]"


def _matrix(grid: tuple[Vector, ...]) -> CMatrix:
    """A matrix of rows a kernel built as tuples of scalars, unchecked and uncoerced."""
    matrix = object.__new__(CMatrix)
    object.__setattr__(matrix, "entries", grid)
    return matrix


def _first(points: Iterable[tuple], bad: Callable[..., object]) -> tuple | None:
    """First point of ``points``, in order, where ``bad`` holds, or None: the one first-failure scan."""
    return next((p for p in points if bad(*p)), None)


def _nonzero(vector: Sequence[GaussianRational]) -> list[tuple[int, GaussianRational]]:
    return [] if vector == (ZERO,) * len(vector) else [(k, x) for k, x in enumerate(vector) if x]


def _dot(u: Sequence[GaussianRational], nonzero: Iterable[tuple]) -> GaussianRational:
    """u . v for the vector v given by ``_nonzero(v)``."""
    total = ZERO
    for k, b in nonzero:
        a = u[k]
        if a:
            total = addmul(total, a, b)
    return total


def _reduce(
    rows: list[list[GaussianRational]], width: int | None = None
) -> tuple[list[list[GaussianRational]], list[int]]:
    """In-place reduced row echelon form, pivoting in the first ``width`` columns
    (all by default); returns (rows, pivot columns).

    Each step divides and subtracts only at the nonzero columns of the
    pivot row, so the cost of a step follows that row's nonzero entries,
    not the width of the matrix.
    """
    if not rows:
        return rows, []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols if width is None else width):
        for pivot_row in range(r, n_rows):
            if rows[pivot_row][c]:
                break
        else:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        row = rows[r]
        pivot = row[c]
        # Left of c the pivot row is already zero.
        support = [j for j in range(c, n_cols) if row[j]]
        if pivot != ONE:
            for j in support:
                row[j] = row[j] / pivot
        for k, other in enumerate(rows):
            if k != r and other[c]:
                factor = other[c]
                for j in support:
                    other[j] = submul(other[j], factor, row[j])
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def _completion(vectors: Sequence[Vector], n: int) -> list[int]:
    """Positions p of the basis vectors e_p that complete the span of the vectors, in order:
    a pivot k + p of [T | I], T the k vectors as columns, marks e_p outside the span of T,
    e_0, ..., e_(p-1); the first n - k of them (all when k > n; all n, unreduced, if k = 0)."""
    k = len(vectors)
    if not k:
        return list(range(n))
    rows = [[v[r] for v in vectors] + [ONE if c == r else ZERO for c in range(n)] for r in range(n)]
    positions = [p - k for p in _reduce(rows)[1] if p >= k]
    return positions if k > n else positions[: n - k]


def solve(matrix: CMatrix, rhs: Sequence[Sequence]) -> tuple[list[Vector | None], list[Vector]]:
    """One elimination of [A | b_1 ... b_m]: per b_k, a solution of A x = b_k with its
    free variables zero, or None when b_k is outside the column space; and the
    canonical exact basis of the null space ``{x : A x = 0}``."""
    n, height = matrix.cols, matrix.rows
    columns = [as_vector(b) for b in rhs]
    if any(len(b) != height for b in columns):
        raise ValueError(f"right sides of length {height} expected")
    reduced, pivots = _reduce([list(row) + [b[r] for b in columns] for r, row in enumerate(matrix.entries)], n)
    rank, solutions, basis = len(pivots), [], []
    for k in range(n, n + len(columns)):
        x = [ZERO] * n
        for row, c in zip(reduced, pivots):
            x[c] = row[k]
        # Rows past the rank of A are zero on A: A x = b_k holds when they are zero at b_k.
        solutions.append(None if any(row[k] for row in reduced[rank:]) else tuple(x))
    for free in (c for c in range(n) if c not in pivots):
        v = [ZERO] * n
        v[free] = ONE
        for row, c in zip(reduced, pivots):
            v[c] = -row[free]
        basis.append(tuple(v))
    return solutions, basis


def kernel(matrix: CMatrix) -> list[Vector]:
    """Canonical exact basis of the null space ``{x : A x = 0}``."""
    return solve(matrix, [])[1]


def _combinations(basis: Sequence[CMatrix], coefficients: Iterable[Sequence]) -> list[CMatrix]:
    """The combination sum_b c_b basis[b] for each coefficient vector c, summed over the
    nonzero coefficients and the nonzero entries of the basis only."""
    height, width = basis[0].rows, basis[0].cols
    cells = [[(r, c, x) for r, row in enumerate(b.entries) for c, x in enumerate(row) if x] for b in basis]
    out = []
    for sol in coefficients:
        rows = [[ZERO] * width for _ in range(height)]
        for coefficient, nonzero in zip(sol, cells):
            if coefficient:
                for r, c, x in nonzero:
                    rows[r][c] = addmul(rows[r][c], coefficient, x)
        out.append(_matrix(tuple(map(tuple, rows))))
    return out


def _annihilated(basis: Sequence[CMatrix], images: Sequence[Sequence]) -> list[CMatrix]:
    """Basis of the combinations of ``basis`` whose images under a linear map vanish,
    ``images[b]`` being that of ``basis[b]``: one kernel over the coefficients, or the
    basis itself when the images are empty."""
    constraints = list(zip(*images))
    return _combinations(basis, kernel(_matrix(tuple(constraints)))) if constraints else list(basis)


def act(a: CMatrix, tensor: Sequence[GaussianRational], kinds: str) -> Vector:
    """A as a derivation of a tensor flat in lexicographic index order: with one
    letter of ``kinds`` per slot, a ``u`` (vector) slot takes A and a ``d``
    (covector) slot takes -A^T, so a form S goes to -(A^T S + S A).  A tensor with
    m times n^len(kinds) entries has one more slot, last, of size m, on which A does
    not act: m tensors side by side, acted on in one call.  Visits the nonzero
    entries of the tensor and of A only."""
    n, size = a.rows, len(tensor)
    if a.cols != n or not size or size % n ** len(kinds) or not set(kinds) <= {"u", "d"}:
        raise ValueError(f"no {a.rows}x{a.cols} action on {size} entries of kinds {kinds!r}")
    # x at index p of a slot adds A[r][p] x at r in a u slot (column p), -A[p][r] x in a d slot.
    moves = {kind: [[(r, y) for r, y in enumerate(line) if y] for line in lines]
             for kind, lines in (("u", zip(*a.entries)), ("d", a.entries)) if kind in kinds}
    out = [ZERO] * size
    for index, x in enumerate(tensor):
        if x:
            stride = size
            for kind in kinds:
                stride //= n
                p = index // stride % n
                for r, y in moves[kind][p]:
                    k = index + (r - p) * stride
                    out[k] = addmul(out[k], y, x) if kind == "u" else submul(out[k], y, x)
    return tuple(out)


def span_basis(vectors: Iterable[Sequence]) -> list[Vector]:
    """Canonical (reduced row echelon) basis of the span of the inputs."""
    rows = [list(as_vector(v)) for v in vectors]
    if not rows:
        return []
    reduced, pivots = _reduce(rows)
    return [tuple(reduced[r]) for r in range(len(pivots))]


def in_span(vectors: Sequence[Sequence], v: Sequence) -> bool:
    """True iff A x = v is consistent, A the vectors as columns; the empty span is 0."""
    if not vectors:
        return not any(as_vector(v))
    return solve(CMatrix.from_columns(vectors), [v])[0][0] is not None


def min_poly(matrix: CMatrix) -> Vector:
    """Monic minimal polynomial, exact, as coefficients in ascending degree.

    One elimination over the columns I, A, ..., A^n (flat): the first non-pivot
    column is the first power that is a combination of the lower ones (at most
    A^n, by Cayley-Hamilton), and its reduced entries are the coefficients.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("minimal polynomial of a non-square matrix")
    n = matrix.rows
    powers = [CMatrix.identity(n), matrix]
    while len(powers) <= n:
        powers.append(powers[-1] @ matrix)
    reduced, pivots = _reduce([list(row) for row in zip(*(p.flat for p in powers))])
    degree = next(j for j, c in enumerate(pivots + [n + 1]) if c != j)
    return tuple(-reduced[r][degree] for r in range(degree)) + (ONE,)


def nilpotent_powers(matrix: CMatrix) -> list[CMatrix]:
    """I, A, ..., A^(k-1) for the least k with A^k = 0, the one nilpotency test: a ValueError
    when ``A**n != 0``, n the matrix dimension."""
    if matrix.rows != matrix.cols:
        raise ValueError("nilpotency of a non-square matrix")
    powers, power = [CMatrix.identity(matrix.rows)], matrix
    while not power.is_zero():
        if len(powers) == matrix.rows:
            raise ValueError(f"matrix {matrix} is not nilpotent")
        powers.append(power)
        power = power @ matrix
    return powers


def exp_nilpotent(powers: Sequence[CMatrix], times: Iterable) -> list[CMatrix]:
    """exp(tA) at each time t: the combination of the ``nilpotent_powers`` A^k of a
    nilpotent A with the coefficients t^k / k!."""
    return _combinations(powers, [[t**k / factorial(k) for k in range(len(powers))] for t in map(as_gr, times)])


def _squarefree(a: Sequence[GaussianRational]) -> bool:
    """True iff gcd(p, p') = 1 for the polynomial p with coefficients ``a`` in ascending
    degree, by Euclid over Q(i), since a common root of p and p' is a repeated root of p.
    Applied to the minimal polynomial, it is true exactly when the matrix is
    diagonalizable over C."""
    b = [k * c for k, c in enumerate(a)][1:]
    while b:
        # (a, b) -> (b, a mod b) on coefficients in ascending degree, stripped of zeros on top.
        a = list(a)
        while len(a) >= len(b):
            factor, shift = a.pop() / b[-1], len(a) - len(b) + 1
            for k, c in enumerate(b[:-1]):
                a[shift + k] = submul(a[shift + k], factor, c)
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1
