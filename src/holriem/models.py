"""Homogeneous pairs (algebra, isotropy) and their quotient data.

A model stores an explicit complement basis for the quotient, so the
induced isotropy action is a concrete exact matrix: reductions project
modulo the isotropy onto the complement.  Construction inverts the
(isotropy, complement) frame once; that inverse certifies that the frame
spans the algebra and gives every ``induced_ad`` its coordinates.  It
then derives ``actions``, the induced action of each isotropy vector,
once; computing them tests that the isotropy is a subalgebra, and the
isotropy type, the invariance check (of the quotient form or of any
other form on the quotient) and the invariant forms read them.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .forms import QuadraticForm
from .liealg import LieAlgebra, bracket
from .linalg import (
    CMatrix,
    Vector,
    as_vector,
    is_nilpotent_matrix,
    is_semisimple_matrix,
    kernel,
)
from .scalars import Record, ZERO


class NotSubalgebraInvariant(ValueError):
    """The isotropy is not preserved by the requested adjoint action."""


class WrongIsotropyDimension(ValueError):
    """The operation expects a one-dimensional isotropy."""


class MissingForm(ValueError):
    """The model carries no quotient form."""


class IsotropyType(Enum):
    UNIPOTENT = "UNIPOTENT"
    SEMISIMPLE = "SEMISIMPLE"
    MIXED = "MIXED"


class HomogeneousModel(Record):
    _fields = ("algebra", "isotropy", "complement", "quotient_form")
    # Derived once: frame_inverse, the inverse of the isotropy and complement columns,
    # and actions[a] = induced_ad(self, isotropy[a]).
    __slots__ = _fields + ("frame_inverse", "actions")
    algebra: LieAlgebra
    isotropy: tuple[Vector, ...]
    complement: tuple[Vector, ...]
    quotient_form: QuadraticForm | None

    def __init__(
        self,
        algebra: LieAlgebra,
        isotropy: Sequence[Sequence],
        complement: Sequence[Sequence],
        quotient_form: QuadraticForm | None = None,
    ):
        iso = tuple(as_vector(v) for v in isotropy)
        comp = tuple(as_vector(v) for v in complement)
        if len(iso) + len(comp) != algebra.dim:
            raise ValueError("isotropy and complement sizes must add up to the dimension")
        frame = iso + comp
        # Wrong-length vectors do not span either; dim 0 fails the next check.
        try:
            inverse = CMatrix.from_columns(frame).inverse() if frame else None
        except (ValueError, ZeroDivisionError):
            raise ValueError("isotropy plus complement must span the algebra") from None
        if not comp:
            raise ValueError("isotropy spans the whole algebra; the quotient is empty")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "isotropy", iso)
        object.__setattr__(self, "complement", comp)
        object.__setattr__(self, "frame_inverse", inverse)
        # induced_ad(self, u) raises when some [u, v], v in the isotropy,
        # leaves the isotropy, so deriving the actions tests closure.
        try:
            actions = tuple(induced_ad(self, u) for u in iso)
        except NotSubalgebraInvariant:
            raise ValueError("isotropy vectors do not span a subalgebra") from None
        if quotient_form is not None and quotient_form.dim != len(comp):
            raise ValueError("quotient form dimension must match the complement")
        object.__setattr__(self, "quotient_form", quotient_form)
        object.__setattr__(self, "actions", actions)


def induced_ad(model: HomogeneousModel, y: Sequence) -> CMatrix:
    """Matrix of ad(y) modulo the isotropy on the complement basis.

    Well-definedness needs ``[y, isotropy]`` inside the isotropy; a
    violation raises NotSubalgebraInvariant.
    """
    vec = as_vector(y)
    inverse = model.frame_inverse
    k = len(model.isotropy)
    for u in model.isotropy:
        coords = inverse.apply(bracket(model.algebra, vec, u))
        if any(coords[k:]):
            raise NotSubalgebraInvariant(
                "adjoint action does not preserve the isotropy subalgebra"
            )
    columns = []
    for v in model.complement:
        coords = inverse.apply(bracket(model.algebra, vec, v))
        columns.append(coords[k:])
    return CMatrix.from_columns(columns)


def isotropy_type(model: HomogeneousModel) -> IsotropyType:
    """Classify a one-dimensional isotropy through its induced action."""
    if len(model.isotropy) != 1:
        raise WrongIsotropyDimension("isotropy type needs a 1-dimensional isotropy")
    action = model.actions[0]
    if is_nilpotent_matrix(action):
        return IsotropyType.UNIPOTENT
    if is_semisimple_matrix(action):
        return IsotropyType.SEMISIMPLE
    return IsotropyType.MIXED


def invariant_forms(model: HomogeneousModel) -> list[QuadraticForm]:
    """Exact basis of symmetric forms S with A^T S + S A = 0 for the isotropy.

    Members may be degenerate; callers pick a nondegenerate one when they
    need a metric.
    """
    d = len(model.complement)
    # Unknowns: entries s_{ij}, i <= j, of the symmetric matrix S.
    slots = [(i, j) for i in range(d) for j in range(i, d)]
    position = {pair: k for k, pair in enumerate(slots)}

    def s_index(i: int, j: int) -> int:
        return position[(i, j) if i <= j else (j, i)]

    rows = []
    for action in model.actions:
        a = action.entries
        for p in range(d):
            for q in range(p, d):
                # (A^T S + S A)_{pq} = sum_k (A_{kp} S_{kq} + S_{pk} A_{kq})
                row = [ZERO] * len(slots)
                for k in range(d):
                    row[s_index(k, q)] = row[s_index(k, q)] + a[k][p]
                    row[s_index(p, k)] = row[s_index(p, k)] + a[k][q]
                rows.append(row)
    forms = []
    # With no isotropy, one zero row leaves every symmetric S.
    for sol in kernel(CMatrix(rows or [[ZERO] * len(slots)])):
        gram = [[ZERO] * d for _ in range(d)]
        for (i, j), k in position.items():
            gram[i][j] = sol[k]
            gram[j][i] = sol[k]
        forms.append(QuadraticForm(gram))
    return forms


def check_invariance(model: HomogeneousModel, form: QuadraticForm | None = None) -> bool:
    """True iff ``form``, by default the quotient form, is killed by every
    induced isotropy action."""
    form = model.quotient_form if form is None else form
    if form is None:
        raise MissingForm("model carries no quotient form")
    s = form.gram
    for a in model.actions:
        if not (a.transpose() @ s + s @ a).is_zero():
            return False
    return True
