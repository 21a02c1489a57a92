"""The series, ``in_span``, ``is_ideal``, the greedy complement, ``subalgebra``
and the model actions against the references they replaced.

``derived_series`` and ``lower_central_series`` read [g, g] from the
constants and bracket only the pairs u < v in a derived step; ``in_span``,
``is_ideal`` and the greedy complement ``linalg._completion`` eliminate
once; ``subalgebra`` brackets only the generator pairs i < j; a model
derives its isotropy actions at construction.  The references in
``conftest`` bracket every ordered pair and test span membership vector by
vector, as a comparison of two ranks.  The outputs agree for any
antisymmetric table, Jacobi or not.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from conftest import (
    conjugate,
    dense_inverse,
    family_at,
    reference_derived_series,
    reference_greedy_complement,
    reference_in_span,
    reference_is_ideal,
    reference_lower_central_series,
    reference_subalgebra,
)

from holriem import catalog
from holriem.catalog import build_catalog
from holriem.liealg import (
    LieAlgebra,
    NotClosed,
    bracket,
    derived_series,
    is_ideal,
    jacobi_witness,
    lower_central_series,
    subalgebra,
)
from holriem.linalg import CMatrix, _completion, in_span, span_basis
from holriem.models import HomogeneousModel, induced_ad
from holriem.scalars import gr

CATALOG = build_catalog()
# The stabilizer family's degree-2 lattice, as the report proves Jacobi on it.
GRID = tuple(p for p in product(range(3), repeat=4) if sum(p) <= 2)
GRID_ALGEBRAS = [family_at(p).algebra for p in GRID]
MODELS = [entry.model for entry in CATALOG if entry.model.isotropy] + [
    family_at(p).model for p in GRID
]


def _greedy_complement(g, vectors):
    """(label, basis vector) at each position ``_completion`` keeps, as the reference lists them."""
    return [(g.basis_names[p], g.basis_vector(p)) for p in _completion(vectors, g.dim)]


def _scalar(rng):
    return gr(Fraction(rng.randint(-2, 2), rng.randint(1, 2)), rng.randint(-1, 1))


def _random_table(rng, n, density):
    grid = [[[gr(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if rng.random() < density:
                    c = _scalar(rng)
                    grid[i][j][k], grid[j][i][k] = c, -c
    return LieAlgebra([f"e{k}" for k in range(n)], grid)


def _random_algebras():
    """30 seeded antisymmetric tables of dims 1-6, plus conjugated catalog algebras."""
    rng = random.Random(2718)
    tables = [
        _random_table(rng, 1 + index % 6, (0.15, 0.35, 0.7)[index % 3]) for index in range(30)
    ]
    for entry in CATALOG[:8]:
        n = entry.algebra.dim
        change = CMatrix([[_scalar(rng) for _ in range(n)] for _ in range(n)])
        if change.rank() == n:
            tables.append(conjugate(entry.algebra, change))
    return tables


RANDOM = _random_algebras()


def _random_isotropy(rng, n):
    """Up to n random vectors; half of the sets get a dependent one appended
    (a zero vector when the set is empty), so a set can hold n + 1."""
    vectors = [
        tuple(_scalar(rng) if rng.random() < 0.5 else gr(0) for _ in range(n))
        for _ in range(rng.randint(0, n))
    ]
    if rng.random() < 0.5:
        if vectors:
            a, b = rng.choice(vectors), rng.choice(vectors)
            vectors.append(tuple(2 * x - y for x, y in zip(a, b)))
        else:
            vectors.append(tuple(gr(0) for _ in range(n)))
    return vectors


def test_random_tables_cover_jacobi_and_its_failure():
    broken = sum(jacobi_witness(g) is not None for g in RANDOM)
    assert 0 < broken < len(RANDOM)
    assert {g.dim for g in RANDOM} == {1, 2, 3, 4, 5, 6}


@pytest.mark.parametrize("algebras", [[e.algebra for e in CATALOG], GRID_ALGEBRAS, RANDOM],
                         ids=["catalog", "heis-family-grid", "random"])
def test_series_match_the_all_pairs_reference(algebras):
    assert len(GRID) == 15
    for g in algebras:
        assert derived_series(g) == reference_derived_series(g)
        assert lower_central_series(g) == reference_lower_central_series(g)


@pytest.mark.parametrize("algebras", [[e.algebra for e in CATALOG], GRID_ALGEBRAS, RANDOM],
                         ids=["catalog", "heis-family-grid", "random"])
def test_is_ideal_and_greedy_complement_match_the_span_scan(algebras):
    rng, probes = random.Random(314), random.Random(315)
    dependent = members = 0
    for g in algebras:
        for _ in range(4):
            vectors = _random_isotropy(rng, g.dim)
            dependent += len(span_basis(vectors)) < len(vectors)
            assert is_ideal(g, vectors) == reference_is_ideal(g, vectors)
            assert _greedy_complement(g, vectors) == reference_greedy_complement(g, vectors)
            for v in _random_isotropy(probes, g.dim) + [bracket(g, u, w) for u in vectors for w in vectors]:
                member = in_span(vectors, v)
                assert member == reference_in_span(vectors, v)
                members += member
    assert dependent > 0 and members > 0


def test_model_isotropies_match_the_span_scan():
    for model in MODELS:
        g, iso = model.algebra, list(model.isotropy)
        assert is_ideal(g, iso) == reference_is_ideal(g, iso)
        assert _greedy_complement(g, iso) == reference_greedy_complement(g, iso)


def test_model_actions_are_the_induced_actions():
    assert len(MODELS) == 7 + 15
    for model in MODELS:
        assert model.actions == tuple(induced_ad(model, u) for u in model.isotropy)


def test_construction_rejects_what_the_subalgebra_loop_rejects():
    """On random tables, a model builds exactly when no bracket of two
    isotropy vectors leaves the isotropy, as the pairwise loop tested."""
    rng = random.Random(1414)
    built = rejected = 0
    for g in RANDOM:
        for _ in range(4):
            iso = _random_isotropy(rng, g.dim)
            if not iso or len(span_basis(iso)) != len(iso) or len(iso) == g.dim:
                continue
            complement = [v for _, v in reference_greedy_complement(g, iso)]
            inverse = dense_inverse(CMatrix.from_columns(iso + complement))
            closed = not any(
                any(inverse.apply(bracket(g, u, v))[len(iso):]) for u in iso for v in iso
            )
            if closed:
                model = HomogeneousModel(g, iso, complement)
                assert model.actions == tuple(induced_ad(model, u) for u in iso)
                built += 1
            else:
                with pytest.raises(ValueError, match="isotropy vectors do not span a subalgebra"):
                    HomogeneousModel(g, iso, complement)
                rejected += 1
    assert built and rejected


def _outcome(build, algebra, vectors, names=None):
    """The algebra built with its derived terms, or the type and text of the error raised."""
    try:
        built = build(algebra, vectors, names)
    except ValueError as exc:
        return type(exc), str(exc)
    return built, built.terms


def test_report_spans_match_the_all_pairs_subalgebra(monkeypatch):
    spans = []

    def recorded(algebra, vectors, basis_names=None):
        spans.append((algebra, vectors, basis_names))
        return subalgebra(algebra, vectors, basis_names)

    monkeypatch.setattr(catalog, "subalgebra", recorded)
    assert catalog.verify_all(42).all_pass
    assert len(spans) == 6
    for span in spans:
        assert _outcome(subalgebra, *span) == _outcome(reference_subalgebra, *span)


def test_random_spans_match_the_all_pairs_subalgebra():
    """Random spans, [g, g] and random bases of the random tables of dims 3-6, each
    also with a dependent vector appended, sometimes with names given."""
    rng = random.Random(4242)
    kinds = {"closed": 0, "not closed": 0, "dependent": 0}
    for g in [g for g in RANDOM if g.dim >= 3]:
        n = g.dim
        spans = [[tuple(_scalar(rng) for _ in range(n)) for _ in range(rng.randint(1, n))]]
        spans += [span_basis(g.constants[i][j] for i in range(n) for j in range(n)) or spans[0]]
        spans += [[tuple(_scalar(rng) for _ in range(n)) for _ in range(n)]]
        spans += [span + [tuple(2 * x - y for x, y in zip(span[0], span[-1]))] for span in spans]
        for span in spans:
            names = [f"u{i}" for i in range(len(span))] if rng.random() < 0.5 else None
            got = _outcome(subalgebra, g, span, names)
            assert got == _outcome(reference_subalgebra, g, span, names)
            if isinstance(got[0], LieAlgebra):
                kinds["closed"] += len(span) > 1
            else:
                kinds["not closed" if got[0] is NotClosed else "dependent"] += 1
    assert min(kinds.values()) > 0, kinds
