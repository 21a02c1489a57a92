"""Homogeneous models: induced actions, isotropy types, invariant forms."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from conftest import column, dense_inverse, family_at, jordan, jordan_blocks, metric_pair

from holriem.catalog import _lattice, build_catalog
from holriem.forms import QuadraticForm
from holriem.liealg import LieAlgebra
from holriem.linalg import CMatrix, in_span, span_basis
from holriem.models import (
    HomogeneousModel,
    IsotropyType,
    MissingForm,
    NotSubalgebraInvariant,
    WrongIsotropyDimension,
    check_invariance,
    induced_ad,
    invariant_forms,
    isotropy_type,
)
from holriem.scalars import gr


CATALOG = {entry.id: entry for entry in build_catalog()}


def test_induced_ad_weights():
    model = CATALOG["c_ltimes_heis"].model
    action = induced_ad(model, model.isotropy[0])
    assert action == CMatrix.diagonal([0, 1, -1])


def test_induced_ad_two_dim_quotient():
    h = CATALOG["heis3"].algebra
    model = HomogeneousModel(
        h,
        isotropy=[h.vector("Y")],
        complement=[h.vector("X"), h.vector("Z")],
    )
    action = induced_ad(model, h.vector("Y"))
    assert action == CMatrix([[0, 1], [0, 0]])


def test_induced_ad_zero_vector():
    model = CATALOG["c_times_sol"].model
    assert induced_ad(model, (gr(0),) * 4).is_zero()


def test_induced_ad_requires_invariant_isotropy():
    s = CATALOG["sol3"].algebra
    model = HomogeneousModel(
        s,
        isotropy=[s.vector("Y")],
        complement=[s.vector("Z"), s.vector("T")],
    )
    with pytest.raises(NotSubalgebraInvariant):
        induced_ad(model, s.vector("Z"))


def test_isotropy_types():
    assert isotropy_type(CATALOG["c_times_sol"].model) is IsotropyType.SEMISIMPLE
    assert isotropy_type(family_at((0, 0, 0, 0)).model) is IsotropyType.UNIPOTENT


def test_isotropy_type_mixed():
    # Y acting on an abelian ideal by a 2-Jordan block with eigenvalue 1:
    # neither nilpotent nor semisimple.
    mixed = LieAlgebra.from_table(
        ("A", "B", "C", "Y"),
        {
            ("Y", "A"): {"A": 1},
            ("Y", "B"): {"A": 1, "B": 1},
        },
    )
    model = HomogeneousModel(
        mixed,
        isotropy=[mixed.vector("Y")],
        complement=[mixed.vector("A"), mixed.vector("B"), mixed.vector("C")],
    )
    assert isotropy_type(model) is IsotropyType.MIXED


def _semidirect_model(actions):
    """Isotropy Y_1, ..., Y_k acting on an abelian ideal C^d, Y_a by ``actions[a]``,
    with [Y_a, Y_b] = 0.  With more than one action the table need not satisfy
    Jacobi; the invariant forms read the actions only."""
    k, d = len(actions), actions[0].rows
    names = [f"Y{a}" for a in range(k)] + [f"e{i}" for i in range(d)]
    grid = [[[gr(0)] * (k + d) for _ in range(k + d)] for _ in range(k + d)]
    for a, action in enumerate(actions):
        for i in range(d):
            image = [gr(0)] * k + list(column(action, i))
            grid[a][k + i] = image
            grid[k + i][a] = [-x for x in image]
    algebra = LieAlgebra(names, grid)
    return HomogeneousModel(
        algebra,
        isotropy=[algebra.basis_vector(a) for a in range(k)],
        complement=[algebra.basis_vector(k + i) for i in range(d)],
    )


def _random_scalar(rng):
    return gr(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-2, 2))


def _random_invertible(rng, n):
    while True:
        change = CMatrix([[_random_scalar(rng) for _ in range(n)] for _ in range(n)])
        if change.rank() == n:
            return change


def test_isotropy_type_of_conjugated_jordan_actions():
    # Eigenvalues from pools of two, so that repeats are common.
    rng = random.Random(20261019)
    seen = dict.fromkeys(IsotropyType, 0)
    for _ in range(120):
        pool = rng.sample([gr(0), gr(0), gr(1), gr(-2), gr(0, 1), gr(1, -1)], 2)
        blocks = jordan_blocks(rng, pool, rng.randint(1, 4))
        change = _random_invertible(rng, sum(size for _, size in blocks))
        action = change @ jordan(blocks) @ dense_inverse(change)
        model = _semidirect_model([action])
        assert model.actions == (action,)
        if all(not value for value, _ in blocks):
            expected = IsotropyType.UNIPOTENT
        elif all(size == 1 for _, size in blocks):
            expected = IsotropyType.SEMISIMPLE
        else:
            expected = IsotropyType.MIXED
        assert isotropy_type(model) is expected, blocks
        seen[expected] += 1
    assert min(seen.values()) >= 15, seen


def test_isotropy_type_wrong_dimension():
    a = CATALOG["c_times_sol"].algebra
    model = HomogeneousModel(
        a,
        isotropy=[a.vector("X"), a.vector("Y")],
        complement=[a.vector("Z"), a.vector("T")],
    )
    with pytest.raises(WrongIsotropyDimension):
        isotropy_type(model)


def test_invariant_forms_trivial_isotropy():
    a = CATALOG["flat_c3"].algebra
    model = HomogeneousModel(
        a,
        isotropy=[],
        complement=[a.basis_vector(k) for k in range(3)],
    )
    assert len(invariant_forms(model)) == 6


def test_invariant_forms_semisimple_weights():
    model = CATALOG["c_times_sol"].model
    forms = invariant_forms(model)
    assert len(forms) == 2
    # The solution space is spanned by the (X,X) slot and the Z-T pairing.
    basis_grams = [f.gram for f in forms]
    expected_span = [
        CMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
        CMatrix([[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
    ]
    flatten = lambda m: [v for row in m.entries for v in row]
    got = span_basis([flatten(m) for m in basis_grams])
    want = span_basis([flatten(m) for m in expected_span])
    assert got == want


def test_invariant_forms_unipotent_contains_adapted_gram():
    model = family_at((1, 2, -3, gr(0, 1))).model
    forms = invariant_forms(model)
    assert len(forms) == 2
    flatten = lambda m: [v for row in m.entries for v in row]
    # The adapted form and the nilpotent generator are those of heis_stab_zero.liealg.
    adapted = CATALOG["heis_stab_zero"].model
    target = flatten(adapted.quotient_form.gram)
    span = [flatten(f.gram) for f in forms]
    assert in_span(span, tuple(target))
    # Sanity: the induced action is the adapted-frame nilpotent generator.
    assert induced_ad(model, model.isotropy[0]) == adapted.actions[0]


def test_check_invariance():
    good = CATALOG["c_ltimes_heis"].model
    assert check_invariance(good)
    bad = HomogeneousModel(
        good.algebra,
        good.isotropy,
        good.complement,
        QuadraticForm.from_sparse(
            ("X", "Z", "T"), {("X", "X"): 1, ("Z", "Z"): 1, ("T", "T"): 1}
        ),
    )
    assert not check_invariance(bad)


def test_check_invariance_missing_form():
    h = CATALOG["heis3"].algebra
    model = HomogeneousModel(
        h, isotropy=[h.vector("Y")], complement=[h.vector("X"), h.vector("Z")]
    )
    with pytest.raises(MissingForm):
        check_invariance(model)


def test_check_invariance_trivial_isotropy():
    a = CATALOG["flat_c3"].algebra
    model = HomogeneousModel(
        a,
        isotropy=[],
        complement=[a.basis_vector(k) for k in range(3)],
        quotient_form=QuadraticForm.diagonal([1, 2, 3]),
    )
    assert check_invariance(model)


def test_model_validation_errors():
    s = CATALOG["sol3"].algebra
    with pytest.raises(ValueError):
        HomogeneousModel(
            s, isotropy=[s.vector("Z")], complement=[s.vector("Y")]
        )  # sizes do not add up
    with pytest.raises(ValueError, match="the quotient is empty"):
        HomogeneousModel(s, isotropy=[s.basis_vector(k) for k in range(3)], complement=[])
    g = CATALOG["c_ltimes_heis"].algebra
    with pytest.raises(ValueError):
        HomogeneousModel(
            g,
            isotropy=[g.vector("Z"), g.vector("T")],  # [Z,T] = X leaves the span
            complement=[g.vector("X"), g.vector("Y")],
        )


@pytest.mark.parametrize("gram", [[[1, 0], [0, 1]], [[1, 0], [0, 0]]], ids=["2-dim", "2-dim-degenerate"])
def test_a_metric_pair_refuses_a_form_of_another_dimension(gram):
    # The pair of a metric file has h = 0: its complement is the whole basis of sol3.
    with pytest.raises(ValueError, match="^quotient form dimension must match the complement$"):
        metric_pair(CATALOG["sol3"].algebra, QuadraticForm(gram))


def test_subalgebra_error_comes_before_the_form_size_error():
    g = CATALOG["c_ltimes_heis"].algebra
    with pytest.raises(ValueError, match="isotropy vectors do not span a subalgebra"):
        HomogeneousModel(
            g,
            isotropy=[g.vector("Z"), g.vector("T")],  # [Z,T] = X leaves the span
            complement=[g.vector("X"), g.vector("Y")],
            quotient_form=QuadraticForm.diagonal([1, 2, 3]),  # 3 != 2 complement vectors
        )
    with pytest.raises(ValueError, match="quotient form dimension must match the complement"):
        HomogeneousModel(
            g,
            isotropy=[g.vector("X"), g.vector("T")],
            complement=[g.vector("Y"), g.vector("Z")],
            quotient_form=QuadraticForm.diagonal([1, 2, 3]),
        )


def test_catalog_models_wellformed():
    for entry in build_catalog():
        if not entry.model.isotropy:
            continue
        for y in entry.model.isotropy:
            induced_ad(entry.model, y)  # well-defined for every generator
        assert check_invariance(entry.model)


def test_section4_models():
    first = CATALOG["c_oplus_sl2"].model
    assert isotropy_type(first) is IsotropyType.SEMISIMPLE
    assert induced_ad(first, first.isotropy[0]) == CMatrix.diagonal([0, 2, -2])
    second = CATALOG["c_times_sl2"].model
    assert isotropy_type(second) is IsotropyType.SEMISIMPLE
    assert check_invariance(second)


def test_isotropy_type_invariant_under_generator_rescaling():
    base = family_at((1, 2, 3, 4)).model
    for scale in (gr(2), gr(0, 1), gr(-3, 5)):
        rescaled = HomogeneousModel(
            base.algebra,
            isotropy=[tuple(scale * c for c in base.isotropy[0])],
            complement=base.complement,
            quotient_form=base.quotient_form,
        )
        assert isotropy_type(rescaled) is isotropy_type(base)
    semi = CATALOG["c_times_sol"].model
    rescaled = HomogeneousModel(
        semi.algebra,
        isotropy=[tuple(gr(0, 2) * c for c in semi.isotropy[0])],
        complement=semi.complement,
        quotient_form=semi.quotient_form,
    )
    assert isotropy_type(rescaled) is IsotropyType.SEMISIMPLE


def test_invariant_forms_satisfy_equation_exactly():
    for model in (
        family_at((1, 2, -3, 4)).model,
        CATALOG["c_times_sol"].model,
        CATALOG["c_oplus_sl2"].model,
    ):
        actions = [induced_ad(model, y) for y in model.isotropy]
        for f in invariant_forms(model):
            for a in actions:
                assert (a.transpose() @ f.gram + f.gram @ a).is_zero()


@pytest.mark.parametrize("position", [0, 2])  # an isotropy or a complement vector
@pytest.mark.parametrize("length", [2, 4])
def test_model_rejects_frame_vectors_of_the_wrong_length(position, length):
    s = CATALOG["sol3"].algebra
    frame = [list(s.basis_vector(k)) for k in range(3)]
    frame[position] = (frame[position] + [0])[:length]
    with pytest.raises(ValueError, match="isotropy plus complement must span the algebra"):
        HomogeneousModel(s, isotropy=frame[:1], complement=frame[1:])


def test_invariant_forms_count_matches_the_dense_constraint_rank():
    # dim = d(d+1)/2 - rank of the dense A^T S + S A over the symmetric basis.
    rng = random.Random(20261020)
    for _ in range(40):
        d, k = rng.randint(1, 4), rng.randint(1, 2)
        actions = [
            CMatrix([[_random_scalar(rng) if rng.random() < 0.5 else gr(0) for _ in range(d)] for _ in range(d)])
            for _ in range(k)
        ]
        basis = [
            CMatrix([[int((r, c) in ((i, j), (j, i))) for c in range(d)] for r in range(d)])
            for i, j in combinations_with_replacement(range(d), 2)
        ]
        columns = [
            [x for a in actions for row in (a.transpose() @ s + s @ a).entries for x in row]
            for s in basis
        ]
        forms = invariant_forms(_semidirect_model(actions))
        assert len(forms) == len(basis) - CMatrix.from_columns(columns).rank()
        assert len(span_basis([f.gram.flat for f in forms])) == len(forms)
        for f in forms:
            for a in actions:
                assert (a.transpose() @ f.gram + f.gram @ a).is_zero()


def test_invariant_forms_digest():
    # The forms, and their order, on the catalog models and on the stabilizer
    # family at the 15 points of the degree-2 lattice in (c, m, k, beta).
    models = [entry.model for entry in build_catalog() if entry.model.isotropy]
    models += [family_at(p).model for p in _lattice(4, 2)]
    assert len(models) == 22
    text = "\n".join(" | ".join(str(f.gram) for f in invariant_forms(m)) for m in models)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9873e4eceb3844e07325d17aa3e97fd52c7d394a994d3fdd9e5f4a1d47a739d5"
    )
