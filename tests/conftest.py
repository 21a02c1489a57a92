import random
from fractions import Fraction

import pytest
from hypothesis import settings

from holriem.catalog import ParamExtension
from holriem.liealg import LieAlgebra
from holriem.scalars import GaussianRational, as_gr, gr

settings.register_profile("exact", derandomize=True)
settings.load_profile("exact")


def _mutate_structure_constant(
    algebra: LieAlgebra, i: int, j: int, k: int, delta=1
) -> LieAlgebra:
    if i == j:
        raise ValueError("diagonal brackets stay zero")
    grid = [[list(v) for v in row] for row in algebra.constants]
    grid[i][j][k] = grid[i][j][k] + as_gr(delta)
    grid[j][i][k] = grid[j][i][k] - as_gr(delta)
    return LieAlgebra(algebra.basis_names, grid)


@pytest.fixture
def mutate_structure_constant():
    """Fault injector: copy with ``c^k_{ij}`` shifted by delta (antisymmetry preserved)."""
    return _mutate_structure_constant


def _random_gaussian_rational(rng: random.Random, span: int = 3) -> GaussianRational:
    return gr(
        Fraction(rng.randint(-span, span), rng.randint(1, 2)),
        Fraction(rng.randint(-span, span), rng.randint(1, 2)),
    )


@pytest.fixture
def random_param_extension():
    """Stabilizer-family parameters with small random Q(i) entries, from ``rng``."""
    return lambda rng: ParamExtension(*(_random_gaussian_rational(rng) for _ in range(4)))
