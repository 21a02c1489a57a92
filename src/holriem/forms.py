"""Symmetric complex bilinear forms with exact nondegeneracy certificates."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .linalg import CMatrix, _dot, _matrix, _nonzero, as_vector
from .scalars import GaussianRational, Record, ZERO, as_gr


class DegenerateForm(ValueError):
    """Raised when an operation needs a nondegenerate quadratic form."""


class QuadraticForm(Record):
    """Symmetric complex bilinear form given by its exact Gram matrix.

    Nondegeneracy is not required at construction.  ``nondegenerate`` tests
    it by one rank; the operations that demand it certify it by an elimination
    of G that finds no kernel.
    """

    __slots__ = _fields = ("gram",)
    gram: CMatrix

    def __init__(self, gram: CMatrix | Iterable[Iterable]):
        matrix = gram if isinstance(gram, CMatrix) else CMatrix(gram)
        if matrix.rows != matrix.cols:
            raise ValueError("Gram matrix must be square")
        if matrix.entries != tuple(zip(*matrix.entries)):
            raise ValueError("Gram matrix must be symmetric")
        object.__setattr__(self, "gram", matrix)

    @classmethod
    def from_sparse(
        cls,
        labels: Sequence[str],
        entries: Mapping[tuple[str, str], object],
    ) -> "QuadraticForm":
        """Build from sparse label-keyed entries; omitted entries are zero."""
        n = len(labels)
        index = {name: k for k, name in enumerate(labels)}
        grid = [[ZERO] * n for _ in range(n)]
        seen = set()  # an entry given as zero is set too
        for (a, b), value in entries.items():
            i, j = index[a], index[b]
            v = as_gr(value)
            if (i, j) in seen and grid[i][j] != v:
                raise ValueError(f"conflicting entries for ({a},{b})")
            seen.update(((i, j), (j, i)))
            grid[i][j] = grid[j][i] = v
        return cls(_matrix(tuple(map(tuple, grid))) if n else grid)  # exact as built; CMatrix refuses n = 0

    @classmethod
    def diagonal(cls, values: Iterable) -> "QuadraticForm":
        return cls(CMatrix.diagonal(values))

    @property
    def dim(self) -> int:
        return self.gram.rows

    def apply(self, x: Sequence, y: Sequence) -> GaussianRational:
        x = as_vector(x)
        if len(x) != self.dim:
            raise ValueError("shape mismatch in form application")
        return _dot(x, _nonzero(self.gram.apply(y)))

    @property
    def nondegenerate(self) -> bool:
        return self.gram.rank() == self.dim

