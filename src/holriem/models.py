"""Homogeneous pairs (algebra, isotropy) and their quotient data, a metric file being the
pair with no isotropy, the standard basis as complement and the shared identity as frame.

A model stores an explicit complement basis for the quotient, so the
induced isotropy action is a concrete exact matrix: reductions project
modulo the isotropy onto the complement.  A model keeps its (isotropy,
complement) ``frame``, and ``induced_ad`` reads the coordinates of its brackets
from one ``linalg.solve`` against it, where a kernel means the frame does not
span the algebra.  Construction derives ``actions``, the induced action of each
isotropy vector, once; computing them tests that the isotropy is a subalgebra.  The
isotropy type reads one minimal polynomial of the action: nilpotent when it
is t^k, else semisimple when it is coprime to its derivative.  ``linalg.act``
on forms reads the actions too: one zero test for the invariance check, and
for the invariant forms one kernel over the distinct entries p <= q of the
images of the symmetric basis.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from itertools import combinations_with_replacement
from typing import Sequence

from .forms import QuadraticForm
from .liealg import LieAlgebra, bracket
from .linalg import (
    CMatrix,
    Vector,
    _annihilated,
    _squarefree,
    act,
    as_vector,
    kernel,
    min_poly,
    solve,
)
from .scalars import ONE, Record, ZERO

_NO_SPAN = "isotropy plus complement must span the algebra"


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
    # Derived once: frame, the isotropy and complement as columns, and
    # actions[a] = induced_ad(self, isotropy[a]).
    __slots__ = _fields + ("frame", "actions")
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
        iso, comp = tuple(map(as_vector, isotropy)), tuple(complement)
        if len(iso) + len(comp) != algebra.dim:
            raise ValueError("isotropy and complement sizes must add up to the dimension")
        frame = CMatrix.identity(algebra.dim)
        if iso or comp != frame.entries:  # a metric file's standard basis spans, with no test
            comp = tuple(map(as_vector, comp))
            # Wrong-length or dependent vectors do not span; induced_ad tests the latter when it runs.
            if any(len(v) != algebra.dim for v in iso + comp) or (
                not (iso and comp) and kernel(CMatrix.from_columns(iso + comp))
            ):
                raise ValueError(_NO_SPAN)
            frame = CMatrix.from_columns(iso + comp)
        if not comp:
            raise ValueError("isotropy spans the whole algebra; the quotient is empty")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "isotropy", iso)
        object.__setattr__(self, "complement", comp)
        object.__setattr__(self, "frame", frame)
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
    k = len(model.isotropy)
    coords, null = solve(model.frame, [bracket(model.algebra, y, v) for v in model.isotropy + model.complement])
    if null:
        raise ValueError(_NO_SPAN)
    if any(x for c in coords[:k] for x in c[k:]):
        raise NotSubalgebraInvariant("adjoint action does not preserve the isotropy subalgebra")
    return CMatrix.from_columns([c[k:] for c in coords[k:]])


def isotropy_type(model: HomogeneousModel) -> IsotropyType:
    """Classify a one-dimensional isotropy through its induced action."""
    if len(model.isotropy) != 1:
        raise WrongIsotropyDimension("isotropy type needs a 1-dimensional isotropy")
    p = min_poly(model.actions[0])
    if not any(p[:-1]):  # p = t^k: the action is nilpotent
        return IsotropyType.UNIPOTENT
    if _squarefree(p):
        return IsotropyType.SEMISIMPLE
    return IsotropyType.MIXED


@cache
def _symmetric_basis(d: int) -> tuple[tuple[CMatrix, ...], Vector, tuple[int, ...]]:
    """E_ii, E_ij + E_ji (i < j) in d dimensions, also flat side by side (entry k of member
    b at k * len(basis) + b), and the positions p * d + q, p <= q; a constant of d."""
    pairs = list(combinations_with_replacement(range(d), 2))
    basis = tuple(
        CMatrix([[ONE if (r, c) in ((i, j), (j, i)) else ZERO for c in range(d)] for r in range(d)])
        for i, j in pairs
    )
    side_by_side = tuple(x for entries in zip(*(b.flat for b in basis)) for x in entries)
    return basis, side_by_side, tuple(p * d + q for p, q in pairs)


def invariant_forms(model: HomogeneousModel) -> list[QuadraticForm]:
    """Exact basis of the symmetric forms S with act(A, S, "dd") = -(A^T S + S A) = 0
    for every isotropy action A: the combinations of E_ii, E_ij + E_ji (i < j) kept by
    ``linalg._annihilated``, constrained by the entries p <= q of each (symmetric)
    image only, one ``act`` per action on the whole basis side by side.  Members may
    be degenerate; callers pick a nondegenerate one."""
    basis, side_by_side, upper = _symmetric_basis(len(model.complement))
    m = len(basis)
    acted = [act(a, side_by_side, "dd") for a in model.actions]
    images = [[image[k * m + b] for image in acted for k in upper] for b in range(m)]
    return [QuadraticForm(s) for s in _annihilated(basis, images)]


def check_invariance(model: HomogeneousModel, form: QuadraticForm | None = None) -> bool:
    """True iff ``form``, by default the quotient form, is killed by every
    induced isotropy action."""
    form = model.quotient_form if form is None else form
    if form is None:
        raise MissingForm("model carries no quotient form")
    s = form.gram.flat
    return not any(x for a in model.actions for x in act(a, s, "dd"))
