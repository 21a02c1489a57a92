"""Exact verification toolkit for left-invariant holomorphic Riemannian
metrics on low-dimensional complex Lie algebras."""

from .scalars import GaussianRational, as_gr, gr
from .linalg import (
    CMatrix,
    kernel,
    min_poly,
    nilpotent_powers,
)
from .forms import DegenerateForm, QuadraticForm
from .liealg import (
    AlgebraClass,
    LieAlgebra,
    NotUnimodular,
    WrongDimension,
    bracket,
    center,
    classify_3d_unimodular,
    derived_series,
    is_nilpotent,
    is_semisimple,
    is_unimodular,
    jacobi_witness,
    killing_form,
    lower_central_series,
    subalgebra,
)
from .geometry import (
    ConnectionTable,
    CurvatureTensor,
    constant_curvature,
    curvature,
    levi_civita,
    ricci,
    stabilizer_in_skew,
)
from .models import (
    HomogeneousModel,
    IsotropyType,
    check_invariance,
    induced_ad,
    invariant_forms,
    isotropy_type,
)
from .catalog import (
    CatalogEntry,
    VerifyReport,
    build_catalog,
    check_prop_iv,
    verify_all,
)

__version__ = "0.1.0"
