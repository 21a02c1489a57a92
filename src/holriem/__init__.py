"""Exact verification toolkit for left-invariant holomorphic Riemannian
metrics on low-dimensional complex Lie algebras.

The names below are re-exported lazily (PEP 562): ``from holriem import X``
imports the module of X when X is first asked for, so ``import holriem``
loads no submodule.  README "Cold start" lists the modules each command loads."""

from importlib import import_module

__version__ = "0.1.0"

# The re-exported names, by the module that defines them.
_EXPORTS = {
    "scalars": ("GaussianRational", "as_gr", "gr"),
    "linalg": ("CMatrix", "kernel", "min_poly", "nilpotent_powers"),
    "forms": ("DegenerateForm", "QuadraticForm"),
    "liealg": (
        "AlgebraClass",
        "LieAlgebra",
        "NotUnimodular",
        "WrongDimension",
        "bracket",
        "center",
        "classify_3d_unimodular",
        "derived_series",
        "is_nilpotent",
        "is_semisimple",
        "is_unimodular",
        "jacobi_witness",
        "killing_form",
        "lower_central_series",
        "subalgebra",
    ),
    "geometry": (
        "ConnectionTable",
        "CurvatureTensor",
        "constant_curvature",
        "curvature",
        "levi_civita",
        "ricci",
        "stabilizer_in_skew",
    ),
    "models": (
        "HomogeneousModel",
        "IsotropyType",
        "check_invariance",
        "induced_ad",
        "invariant_forms",
        "isotropy_type",
    ),
    "catalog": ("CatalogEntry", "VerifyReport", "build_catalog", "verify_all"),
    "paper": ("check_prop_iv",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = tuple(_MODULE_OF)


def __getattr__(name: str):
    """The exported ``name``, read from its module on each access, so it is never stale."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def _lazy(name: str):
    """The module ``name``, registered in ``sys.modules`` now and run on its first attribute
    access (``LazyLoader``): a command that reads nothing of it never compiles it.  Registered,
    it is in ``sys.modules`` with every other layer, where ``bench/tracer.py`` looks.  The
    loader is imported here, so a bare ``import holriem`` does not import ``importlib.util``."""
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    if name in sys.modules:
        return sys.modules[name]
    spec = find_spec(name)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    setattr(sys.modules[package], child, module)
    return module
