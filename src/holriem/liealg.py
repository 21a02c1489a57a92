"""Finite-dimensional complex Lie algebras given by structure constants.

An algebra is a basis-labelled antisymmetric table ``[e_i, e_j] = sum_k
c[i][j][k] e_k`` over Q(i).  Antisymmetry is enforced at construction; the
Jacobi identity is checked by ``jacobi_witness``, ``linalg._first`` over the
triples i < j < k, so that corrupted tables can be built and diagnosed.

``constants`` is the canonical dense table.  Construction also derives
``terms``, the nonzero ``(k, c_ij^k)`` of every bracket, once; the
antisymmetry test, ``bracket``, the Jacobi scan and the connection and
curvature kernels loop over these terms and never rescan the table.
Both series start from [g, g], the span of the ``c_ij`` with i < j read
from the table with no bracket call; a caller that needs both passes
one [g, g] to each.  ``subalgebra`` brackets its generators in the pairs
i < j only, solves the generators against the brackets once (``linalg.solve``)
and returns through ``from_table``, as every algebra here does.
``forms`` is bound unexecuted (``holriem._lazy``), so a command that builds no
Killing form never compiles it.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import TYPE_CHECKING, Mapping, Sequence

from . import _lazy
from .linalg import (
    CMatrix,
    Vector,
    _dot,
    _first,
    _matrix,
    _nonzero,
    as_vector,
    kernel,
    solve,
    span_basis,
    zero_vector,
)
from .scalars import ONE, Record, ZERO, addmul, as_gr

if TYPE_CHECKING:
    from .forms import QuadraticForm

forms = _lazy(f"{__package__}.forms")


class WrongDimension(ValueError):
    """The operation is only defined for a specific algebra dimension."""


class NotUnimodular(ValueError):
    """The classification targets unimodular algebras only."""


class NotClosed(ValueError):
    """A claimed subalgebra is not closed under the bracket."""


class AlgebraClass(Enum):
    """The four isomorphism classes of 3-dimensional unimodular complex Lie algebras."""

    ABELIAN_C3 = "ABELIAN_C3"
    HEIS = "HEIS"
    SOL = "SOL"
    SL2 = "SL2"


class LieAlgebra(Record):
    _fields = ("basis_names", "constants")
    # terms[i][j]: the tuple of the nonzero (k, c_ij^k), derived from constants.
    __slots__ = _fields + ("terms",)
    basis_names: tuple[str, ...]
    constants: tuple[tuple[Vector, ...], ...]

    def __init__(self, basis_names: Sequence[str], constants: Sequence[Sequence[Sequence]]):
        names = tuple(basis_names)
        n = len(names)
        if len(set(names)) != n:
            raise ValueError("duplicate basis labels")
        table = tuple(
            tuple(as_vector(entry) for entry in row) for row in constants
        )
        if len(table) != n or any(
            len(row) != n or any(len(v) != n for v in row) for row in table
        ):
            raise ValueError("structure constant tensor has wrong shape")
        terms = tuple(
            tuple(tuple((k, c) for k, c in enumerate(v) if c) for v in row) for row in table
        )
        # Symmetric in (i, j): the first bad pair has i <= j.
        for i in range(n):
            for j in range(i, n):
                if terms[i][j] != tuple((k, -c) for k, c in terms[j][i]):
                    raise ValueError(
                        f"structure constants not antisymmetric at ({names[i]},{names[j]})"
                    )
        object.__setattr__(self, "basis_names", names)
        object.__setattr__(self, "constants", table)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_table(
        cls,
        basis_names: Sequence[str],
        table: Mapping[tuple[str, str], Mapping[str, object]],
    ) -> "LieAlgebra":
        """Build from a sparse bracket table keyed by basis-label pairs.

        Each entry gives ``[a, b]`` as a label-to-coefficient mapping;
        omitted brackets are zero and ``[b, a]`` is filled by antisymmetry.
        One pass builds the table and its terms, antisymmetric and of the right
        shape by construction; of ``__init__``'s checks only the label one is left."""
        names = tuple(basis_names)
        n = len(names)
        index = {name: k for k, name in enumerate(names)}
        constants = [[zero_vector(n)] * n for _ in range(n)]
        terms = [[()] * n for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for (a, b), combo in table.items():
            i, j = index[a], index[b]
            value = [ZERO] * n
            for label, coeff in combo.items():
                value[index[label]] = as_gr(coeff)
            if i == j:
                if any(value):
                    raise ValueError(f"[{a},{a}] must vanish")
                continue
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"bracket ({a},{b}) specified twice")
            seen.add(key)
            constants[i][j] = tuple(value)
            constants[j][i] = negated = tuple(-c if c else c for c in value)
            terms[i][j] = tuple((k, c) for k, c in enumerate(value) if c)
            terms[j][i] = tuple((k, negated[k]) for k, _ in terms[i][j])
        if len(set(names)) != n:
            raise ValueError("duplicate basis labels")
        algebra = object.__new__(cls)
        object.__setattr__(algebra, "basis_names", names)
        object.__setattr__(algebra, "constants", tuple(map(tuple, constants)))
        object.__setattr__(algebra, "terms", tuple(map(tuple, terms)))
        return algebra

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    def index(self, label: str) -> int:
        return self.basis_names.index(label)

    def basis_vector(self, which: int | str) -> Vector:
        i = which if isinstance(which, int) else self.index(which)
        return tuple(ONE if k == i else ZERO for k in range(self.dim))

    def vector(self, combo: Mapping[str, object] | str) -> Vector:
        """Vector from a label-to-coefficient mapping (or a single label)."""
        if isinstance(combo, str):
            return self.basis_vector(combo)
        v = [ZERO] * self.dim
        for label, coeff in combo.items():
            v[self.index(label)] = as_gr(coeff)
        return tuple(v)


def bracket(algebra: LieAlgebra, x: Sequence, y: Sequence) -> Vector:
    """Exact bilinear antisymmetric bracket of two coefficient vectors."""
    u, v = as_vector(x), as_vector(y)
    n = algebra.dim
    if len(u) != n or len(v) != n:
        raise ValueError("vector length does not match the algebra dimension")
    out = list(zero_vector(n))
    right = [(j, b) for j, b in enumerate(v) if b]
    for i, a in enumerate(u):
        if not a:
            continue
        row = algebra.terms[i]
        for j, b in right:
            if row[j]:
                coeff = a * b
                for k, c in row[j]:
                    out[k] = addmul(out[k], coeff, c)
    return tuple(out)


def jacobi_witness(algebra: LieAlgebra) -> tuple[int, int, int] | None:
    """First basis triple i < j < k violating the Jacobi identity, or None."""
    t, n = algebra.terms, algebra.dim

    def nonzero_jacobiator(i: int, j: int, k: int) -> bool:
        total = [ZERO] * n
        # [[e_a, e_b], e_d] = sum_l c_ab^l [e_l, e_d], read from the terms.
        for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
            for l, x in t[a][b]:
                for m, y in t[l][d]:
                    total[m] = addmul(total[m], x, y)
        return total != [ZERO] * n

    return _first(combinations(range(n), 3), nonzero_jacobiator)


def killing_form(algebra: LieAlgebra) -> QuadraticForm:
    """``B(x, y) = trace(ad x . ad y)``, exact and symmetric.

    Read straight from the structure constants, with no ``ad`` matrices:
    ``B_ij = sum_{k,l} c_ik^l c_jl^k``.
    """
    c, n = algebra.constants, algebra.dim
    pairs = [(k, l) for k in range(n) for l in range(n)]
    ads = [[c[i][k][l] for k, l in pairs] for i in range(n)]
    transposed = [_nonzero(tuple(c[j][l][k] for k, l in pairs)) for j in range(n)]
    return forms.QuadraticForm([[_dot(ads[i], transposed[j]) for j in range(n)] for i in range(n)])


def derived_algebra(algebra: LieAlgebra) -> list[Vector]:
    """Canonical basis of [g, g], the span of the constants ``c_ij`` for
    i < j, read from the table with no bracket call."""
    c = algebra.constants
    return span_basis(c[i][j] for i, j in combinations(range(algebra.dim), 2))


def _series(algebra: LieAlgebra, current: list[Vector] | None, step) -> tuple[int, ...]:
    """Dimensions of g, [g, g], step([g, g]), ... until stabilization or zero.

    ``current`` is a basis of [g, g] the caller already holds, or None to
    derive it here.
    """
    if current is None:
        current = derived_algebra(algebra)
    dims = [algebra.dim]
    while True:
        dims.append(len(current))
        if not current or len(current) == dims[-2]:
            return tuple(dims)
        current = step(current)


def derived_series(
    algebra: LieAlgebra, commutator: list[Vector] | None = None
) -> tuple[int, ...]:
    """Dimensions of the derived series until stabilization or zero.

    A step spans ``[u, v]`` over the pairs u < v of the current basis;
    antisymmetry makes the other pairs redundant.
    """
    return _series(
        algebra,
        commutator,
        lambda current: span_basis(bracket(algebra, u, v) for u, v in combinations(current, 2)),
    )


def lower_central_series(
    algebra: LieAlgebra, commutator: list[Vector] | None = None
) -> tuple[int, ...]:
    """Dimensions of the lower central series until stabilization or zero."""
    basis = [algebra.basis_vector(i) for i in range(algebra.dim)]
    return _series(
        algebra,
        commutator,
        lambda current: span_basis(bracket(algebra, e, v) for e in basis for v in current),
    )


def center(algebra: LieAlgebra) -> list[Vector]:
    """Exact basis of ``{x : [x, y] = 0 for all y}``."""
    c, r = algebra.constants, range(algebra.dim)
    return kernel(_matrix(tuple(tuple(c[i][j][k] for i in r) for j in r for k in r)))


def is_unimodular(algebra: LieAlgebra) -> bool:
    """True iff every ``trace(ad e_i) = sum_k c_ik^k`` vanishes."""
    c, n = algebra.constants, algebra.dim
    return all(not sum((c[i][k][k] for k in range(n)), ZERO) for i in range(n))


def is_nilpotent(algebra: LieAlgebra, commutator: list[Vector] | None = None) -> bool:
    return lower_central_series(algebra, commutator)[-1] == 0


def is_semisimple(algebra: LieAlgebra) -> bool:
    return killing_form(algebra).nondegenerate


def classify_3d_unimodular(algebra: LieAlgebra, facts=None) -> AlgebraClass:
    """Classify a 3-dimensional unimodular complex Lie algebra by invariants.

    The tag is decided by basis-free data (Killing rank, derived
    dimension, nilpotency), so it is invariant under any exact change of
    basis.  They are read, as far as the decision needs, from ``facts``'
    ``semisimple``, ``derived_algebra`` and ``nilpotent`` (a ``CatalogEntry``
    derives each once), or else derived here from one [g, g].
    """
    if algebra.dim != 3:
        raise WrongDimension("classification requires a 3-dimensional algebra")
    if not is_unimodular(algebra):
        raise NotUnimodular("classification requires a unimodular algebra")
    if is_semisimple(algebra) if facts is None else facts.semisimple:
        return AlgebraClass.SL2
    commutator = derived_algebra(algebra) if facts is None else facts.derived_algebra
    if not commutator:
        return AlgebraClass.ABELIAN_C3
    if is_nilpotent(algebra, commutator) if facts is None else facts.nilpotent:
        return AlgebraClass.HEIS
    return AlgebraClass.SOL


def subalgebra(
    algebra: LieAlgebra,
    vectors: Sequence[Sequence],
    basis_names: Sequence[str] | None = None,
) -> LieAlgebra:
    """Restrict the bracket to the span of independent vectors.

    Raises NotClosed when a bracket leaves the span, ValueError when the generators are
    missing, dependent or of the wrong length, or the names not one per generator."""
    vecs = [as_vector(v) for v in vectors]
    k, n = len(vecs), algebra.dim
    if not vecs or any(len(v) != n for v in vecs):
        raise ValueError(f"subalgebra needs one or more generators of length {n}")
    pairs = list(combinations(range(k), 2))
    coords, null = solve(CMatrix.from_columns(vecs), [bracket(algebra, vecs[i], vecs[j]) for i, j in pairs])
    if null:
        raise ValueError("subalgebra generators are linearly dependent")
    names = tuple(basis_names) if basis_names else tuple(f"s{i}" for i in range(k))
    if len(names) != k:
        raise ValueError(f"{len(names)} basis names for {k} generators")
    if len(set(names)) != k:
        raise ValueError("duplicate basis labels")
    table = {}
    for (i, j), x in zip(pairs, coords):
        if x is None:
            raise NotClosed(f"bracket of generators {i} and {j} leaves the span")
        table[names[i], names[j]] = dict(zip(names, x))
    return LieAlgebra.from_table(names, table)


def is_ideal(algebra: LieAlgebra, vectors: Sequence[Sequence]) -> bool:
    """True iff the span of the vectors absorbs brackets with the whole algebra."""
    vecs = [as_vector(v) for v in vectors]
    images = [bracket(algebra, algebra.basis_vector(i), v) for i in range(algebra.dim) for v in vecs]
    return not vecs or None not in solve(CMatrix.from_columns(vecs), images)[0]
