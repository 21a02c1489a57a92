"""Levi-Civita connections, curvature and orthogonal-algebra computations.

All metrics are left-invariant: a quadratic form on the Lie algebra
stands for the metric on the whole group, and the Koszul identity for
frames with constant inner products determines the connection,

    2 q(nabla_x y, z) = q([x,y], z) - q([y,z], x) + q([z,x], y).

Split into parts antisymmetric and symmetric in (x, y), this is Nomizu's
form (Amer. J. Math. 1954; with no isotropy, Milnor's closed form, Adv. Math.
1976): nabla_x y = [x, y] / 2 + U(x, y), 2 q(U(x,y), z) = q([z,x], y) + q(x, [z,y]).
With ``c_abd = sum_l c_ab^l G_ld = q([e_a,e_b], e_d)``, G the Gram matrix, each
pair b <= d solves G U(e_b, e_d) = ((c_abd + c_adb) / 2)_a; the pairs with a
nonzero right side share one elimination of [G | B] (``linalg.solve``), and
a kernel of G means a degenerate form.  A bi-invariant form has none: nabla = ad / 2.

Curvature convention used throughout (flatness does not depend on it):

    R(x, y) z = nabla_x nabla_y z - nabla_y nabla_x z - nabla_[x,y] z,
    K(x, y) = q(R(x,y)y, x) / (q(x,x) q(y,y) - q(x,y)^2).

In operator form, with Lambda(x) = nabla_x as an endomorphism of the
algebra, R(x, y) = [Lambda(x), Lambda(y)] - Lambda([x, y]).  With
Gamma_ij^l the components of nabla_{e_i} e_j, each fiber is

    R(e_i,e_j)e_k = sum_l Gamma_jk^l nabla_{e_i} e_l
                    - Gamma_ik^l nabla_{e_j} e_l - c_ij^l nabla_{e_l} e_k.

Most entries of these tables are zero, so the kernels loop over lists
of the nonzero entries of each slot only: the algebra's ``terms`` for
c_ij, and lists made here for G and Gamma_ij.  ``levi_civita`` adds each
term of the lowered constants once, at slot a of the pair {b, d}, and sets
Gamma_ij = U_ij + c_ij / 2 and Gamma_ji = U_ij - c_ij / 2, the one tuple U_ij
for both when c_ij = 0; ``curvature`` fills the n^3 fibers in one loop nest, reading the
lists of Gamma_i, Gamma_j and c_ij once per pair (i, j), and appends one
shared zero fiber wherever no term reaches.  No fiber is copied from
another by antisymmetry, Bianchi or pair skew, the identities that
``*_defect`` checks on the result.  A whole fiber or vector is tested for
zero by one tuple comparison with the zero vector, which CPython settles
in C by identity where entries are the shared ``ZERO`` (see ``scalars``);
equality, not identity, decides the result.  ``constant_curvature_defect``
thus settles a pair (i, j) whose model row is zero (i = j, or k = 0) by one
comparison of its n fibers with the zero row, and builds k q only for k != 0.

Each ``*_defect`` scan returns the first index tuple, in lexicographic
order, where its identity fails, through ``linalg._first``; compatibility
and pair skew are one scan, ``_outside_so_q``, of operators in so(q).  On
any input the defect takes one value on each orbit of an index symmetry:
torsion is antisymmetric in (i, j), as ``LieAlgebra`` keeps c_ji = -c_ij;
the compatibility, antisymmetry and pair-skew sums are symmetric in the two
indices they swap; the Bianchi sum is cyclic.  So a scan tests only the
first tuple of each orbit, and finds the same witness: the first member of
the orbit of the full scan's first violating tuple t violates too and cannot
come before t, so it is t.  Per tuple, the scans add nonzero components only.

The orthogonal algebra so(q) = {A : A^T G + G A = 0} is read from G^-1,
whose columns are the solutions of G x = e_b, one ``linalg.solve`` of [G | I]
that finds no kernel exactly when q is nondegenerate: A is in so(q) exactly
when G A is antisymmetric, so G^-1 (E_ab - E_ba), a < b, is a basis.  A
stabilizer in it is one kernel, ``linalg._annihilated`` over the images
``linalg.act(A, v, "u")`` of that basis.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product
from typing import Iterable, Mapping, Sequence

from .forms import DegenerateForm, QuadraticForm
from .liealg import LieAlgebra
from .linalg import CMatrix, Vector, _annihilated, _first, _nonzero, act, solve
from .scalars import GaussianRational, ONE, ZERO, addmul, as_gr, submul

_HALF = ONE / 2


# nabla_{e_i} e_j is ``connection[i][j]`` and R(e_i, e_j) e_k is
# ``tensor[i][j][k]``, each a vector in the frame.
ConnectionTable = tuple[tuple[Vector, ...], ...]
CurvatureTensor = tuple[tuple[tuple[Vector, ...], ...], ...]


def _same_dim(first: str, m: int, second: str, n: int) -> None:
    if m != n:
        raise ValueError(f"{first} dimension {m} does not match {second} dimension {n}")


def _solve_gram(form: QuadraticForm, rhs: Sequence[Vector]) -> list[Vector]:
    """The solutions U of G U = b, one per right side b, from one elimination of
    [G | B]; a kernel of G, that is a degenerate form, raises ``DegenerateForm``."""
    solutions, null = solve(form.gram, rhs)
    if null:
        raise DegenerateForm("quadratic form is degenerate")
    return solutions


def levi_civita(algebra: LieAlgebra, form: QuadraticForm) -> ConnectionTable:
    """Unique torsion-free metric connection of a left-invariant metric."""
    n = algebra.dim
    if form.dim != n:
        _solve_gram(form, [])  # a degenerate form reports that first
        raise ValueError("form dimension does not match the algebra")
    # (d, G_ld, G_ld / 2) for the nonzero G_ld of each row l.
    gram_rows = [[(d, g, g * _HALF) for d, g in _nonzero(row)] for row in form.gram.entries]
    # low[b, d][a] = q(U(e_b, e_d), e_a) = (c_abd + c_adb) / 2 for b <= d, held only where a
    # term reaches: the term x G_ld of c_abd lands halved, or whole when b = d, where it is c_adb too.
    low: dict[tuple[int, int], list] = {}
    for a, b in product(range(n), repeat=2):
        for l, x in algebra.terms[a][b]:
            for d, g, half in gram_rows[l]:
                pair = low.setdefault((b, d) if b <= d else (d, b), [ZERO] * n)
                pair[a] = addmul(pair[a], x, g if b == d else half)
    zero = (ZERO,) * n
    lowered = {pair: v for pair, v in zip(low, map(tuple, low.values())) if v != zero}
    symmetric = dict(zip(lowered, _solve_gram(form, list(lowered.values()))))
    # Gamma_ij = U_ij + c_ij / 2 and Gamma_ji = U_ij - c_ij / 2.
    table = [[zero] * n for _ in range(n)]
    for i, j in _pairs(n):
        u, c_ij = symmetric.get((i, j), zero), algebra.terms[i][j]
        if not c_ij:
            table[i][j] = table[j][i] = u
            continue
        plus, minus = list(u), list(u)
        for l, x in c_ij:
            plus[l], minus[l] = addmul(plus[l], x, _HALF), submul(minus[l], x, _HALF)
        table[i][j], table[j][i] = tuple(plus), tuple(minus)
    return tuple(map(tuple, table))


def curvature(algebra: LieAlgebra, connection: ConnectionTable) -> CurvatureTensor:
    """R(e_i,e_j)e_k, each of the n^3 fibers from the nonzero entries only."""
    n = algebra.dim
    _same_dim("connection", len(connection), "algebra", n)
    gamma = [[_nonzero(v) for v in row] for row in connection]
    zero = (ZERO,) * n
    tensor = []
    for gamma_i, brackets in zip(gamma, algebra.terms):
        plane = []
        for gamma_j, c_ij in zip(gamma, brackets):
            fibers = []
            for k, (gamma_jk, gamma_ik) in enumerate(zip(gamma_j, gamma_i)):
                if not (gamma_jk or gamma_ik or c_ij):
                    fibers.append(zero)  # no term reaches this fiber
                    continue
                out = [ZERO] * n
                # Gamma_jk^l nabla_i e_l - Gamma_ik^l nabla_j e_l - c_ij^l nabla_l e_k
                for l, a in gamma_jk:
                    for m, b in gamma_i[l]:
                        out[m] = addmul(out[m], a, b)
                for l, a in gamma_ik:
                    for m, b in gamma_j[l]:
                        out[m] = submul(out[m], a, b)
                for l, a in c_ij:
                    for m, b in gamma[l][k]:
                        out[m] = submul(out[m], a, b)
                fibers.append(tuple(out))
            plane.append(tuple(fibers))
        tensor.append(tuple(plane))
    return tuple(tensor)


def _model_entry(gram, i: int, j: int, k: int, l: int) -> GaussianRational:
    """Entry l of q(e_j,e_k) e_i - q(e_i,e_k) e_j."""
    value = gram[j][k] if l == i else ZERO
    return value - gram[i][k] if l == j else value


def constant_curvature(
    algebra: LieAlgebra, form: QuadraticForm
) -> GaussianRational | None:
    """Constant k with ``R(x,y)z = k (q(y,z)x - q(x,z)y)``, else None."""
    return constant_curvature_value(form, curvature(algebra, levi_civita(algebra, form)))


def constant_curvature_value(
    form: QuadraticForm, tensor: CurvatureTensor
) -> GaussianRational | None:
    """The constant of ``constant_curvature`` for an already derived tensor.

    The candidate is R / M at the first nonzero entry of the model tensor
    M(x,y)z = q(y,z)x - q(x,z)y; the identity is then verified on all basis
    triples.  Under constant curvature every nonzero entry of M gives the
    same candidate, so which one is read does not change the result.
    """
    n, gram = len(tensor), form.gram.entries
    _same_dim("form", form.dim, "tensor", n)
    if n < 2:
        # The model tensor vanishes: only R = 0 qualifies.
        candidate = ZERO
    else:
        slot = _first(product(range(n), repeat=4), lambda i, j, k, l: _model_entry(gram, i, j, k, l))
        if slot is None:
            raise DegenerateForm("no usable plane for the curvature candidate")
        i, j, k, l = slot
        candidate = tensor[i][j][k][l] / _model_entry(gram, *slot)
    if constant_curvature_defect(form, tensor, candidate) is not None:
        return None
    return candidate


def constant_curvature_defect(
    form: QuadraticForm, tensor: CurvatureTensor, k
) -> tuple[int, int, int] | None:
    """First basis triple violating ``R(x,y)z = k (q(y,z)x - q(x,z)y)``; a loop of its own,
    not ``_first``, settles a pair whose model row is zero by one comparison of its n fibers."""
    n = len(tensor)
    _same_dim("form", form.dim, "tensor", n)
    value, zero = as_gr(k), (ZERO,) * n
    zero_row, flat = (zero,) * n, not value
    if not flat:
        kq = [[value * g for g in row] for row in form.gram.entries]
        minus_kq = [[-x for x in row] for row in kq]
    for i, j in product(range(n), repeat=2):
        fibers = tensor[i][j]
        if flat or i == j:  # a zero model row: one comparison settles the pair
            if fibers != zero_row:
                return i, j, next(m for m in range(n) if fibers[m] != zero)
            continue
        for m in range(n):
            model = [ZERO] * n  # k q_jm at slot i and -k q_im at slot j
            model[i], model[j] = kq[j][m], minus_kq[i][m]
            if fibers[m] != tuple(model):
                return i, j, m
    return None


def ricci(tensor: CurvatureTensor) -> QuadraticForm:
    """``Ric(x, y) = trace(z -> R(z, x) y)``, exact and symmetric; a trace needs no metric."""
    r = range(len(tensor))
    return QuadraticForm([[sum((tensor[i][a][b][i] for i in r), ZERO) for b in r] for a in r])


# -- connection/curvature identity checks --------------------------------


def _add(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    """a + b, added only when both are nonzero."""
    if a:
        return a + b if b else a
    return b


def _nonzero_sum(*vectors: Sequence) -> bool:
    """Whether the sum of the vectors has a nonzero component; zero vectors drop out."""
    zero = (ZERO,) * len(vectors[0])
    vectors = [v for v in vectors if v != zero]
    for m in range(len(zero)):
        total = None
        for v in vectors:
            if v[m]:
                total = v[m] if total is None else total + v[m]
        if total:
            return True
    return False


def _pairs(n: int) -> Iterable[tuple[int, int]]:
    """The pairs i <= j in lexicographic order: the first of each swap orbit."""
    return combinations_with_replacement(range(n), 2)


def torsion_defect(algebra: LieAlgebra, connection: ConnectionTable) -> tuple[int, int] | None:
    """First basis pair with nabla_x y - nabla_y x != [x, y], or None."""
    _same_dim("connection", len(connection), "algebra", algebra.dim)
    c, r = algebra.constants, range(algebra.dim)
    return _first(
        _pairs(algebra.dim),
        lambda i, j: any(
            connection[i][j][m] != _add(connection[j][i][m], c[i][j][m]) for m in r
        ),
    )


def _outside_so_q(form: QuadraticForm, operators: Mapping[tuple, Sequence[Vector]]) -> tuple | None:
    """First (index..., x, y), x <= y, with q(L e_x, e_y) + q(e_x, L e_y) != 0 for the
    operator L = ``operators[index]``, given by its columns L e_x, keys in scan order."""
    # low[p][x][y] = q(L e_x, e_y) for the p-th operator L, lowered once; the Gram matrix is symmetric.
    low = [[form.gram.apply(v) for v in columns] for columns in operators.values()]
    found = _first(
        ((p, x, y) for p in range(len(low)) for x, y in _pairs(form.dim)),
        lambda p, x, y: _add(low[p][x][y], low[p][y][x]),
    )
    return found and (*list(operators)[found[0]], *found[1:])


def compatibility_defect(
    form: QuadraticForm, connection: ConnectionTable
) -> tuple[int, int, int] | None:
    """First triple violating q(nabla_z x, y) + q(x, nabla_z y) = 0: each nabla_z in so(q)."""
    _same_dim("form", form.dim, "connection", len(connection))
    return _outside_so_q(form, {(z,): vectors for z, vectors in enumerate(connection)})


def curvature_antisymmetry_defect(tensor: CurvatureTensor) -> tuple[int, int, int] | None:
    """First triple violating R(x,y)z + R(y,x)z = 0, or None.

    For ``curvature`` output the sum is -sum_l (c_ij^l + c_ji^l) nabla_l e_k,
    which ``LieAlgebra`` already keeps zero; so this guards the kernel,
    which evaluates every fiber on its own, not the input.
    """
    n = len(tensor)
    return _first(
        ((i, j, k) for i, j in _pairs(n) for k in range(n)),
        lambda i, j, k: _nonzero_sum(tensor[i][j][k], tensor[j][i][k]),
    )


def bianchi_defect(tensor: CurvatureTensor) -> tuple[int, int, int] | None:
    """First triple violating R(x,y)z + R(y,z)x + R(z,x)y = 0."""
    n = len(tensor)
    # (i, j, k) comes first among its rotations when i < j, k or i = j <= k.
    return _first(
        ((i, j, k) for i, j, k in product(range(n), repeat=3) if i < min(j, k) or i == j <= k),
        lambda i, j, k: _nonzero_sum(tensor[i][j][k], tensor[j][k][i], tensor[k][i][j]),
    )


def pair_skew_defect(
    form: QuadraticForm, tensor: CurvatureTensor
) -> tuple[int, int, int, int] | None:
    """First quadruple violating q(R(x,y)z, w) = -q(R(x,y)w, z): each R(e_i, e_j) in so(q)."""
    _same_dim("form", form.dim, "tensor", len(tensor))
    return _outside_so_q(form, {(i, j): tensor[i][j] for i, j in product(range(len(tensor)), repeat=2)})


# -- orthogonal algebra ---------------------------------------------------


def stabilizer_in_skew(form: QuadraticForm, vectors: Sequence[Sequence]) -> list[CMatrix]:
    """Basis of ``{A in so(q) : A v = 0 for each given v}``, cut by
    ``stabilizer`` from the basis B_ab = G^-1 (E_ab - E_ba), a < b, of so(q)."""
    inverse, n = _solve_gram(form, CMatrix.identity(form.dim).entries), form.dim
    if any(len(v) != n for v in vectors):
        raise ValueError("vector length does not match the form")
    # Column b of B_ab is column a of G^-1, column a minus column b; G^-1 is symmetric, so g is a row.
    skew = [
        CMatrix([[g[a] if c == b else -g[b] if c == a else ZERO for c in range(n)] for g in inverse])
        for a, b in combinations(range(n), 2)
    ]
    return stabilizer(skew, vectors)


def stabilizer(basis: Sequence[CMatrix], vectors: Sequence[Sequence]) -> list[CMatrix]:
    """Basis of ``{A in span(basis) : A v = 0 for each given v}``, the combinations
    of the basis whose images ``act(A, v, "u")`` vanish; the basis when no v is given."""
    return _annihilated(basis, [[x for v in vectors for x in act(a, v, "u")] for a in basis])
