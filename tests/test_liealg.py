"""Lie algebra structure: brackets, invariants, classification."""

import random
import re
from fractions import Fraction

import pytest
from conftest import ad, conjugate, trace

from holriem.catalog import build_catalog, shipped_file_text
from holriem.dsl import DslError, parse
from holriem.liealg import (
    AlgebraClass,
    LieAlgebra,
    NotClosed,
    NotUnimodular,
    WrongDimension,
    bracket,
    center,
    classify_3d_unimodular,
    derived_series,
    is_ideal,
    is_nilpotent,
    is_semisimple,
    is_unimodular,
    jacobi_witness,
    killing_form,
    lower_central_series,
    subalgebra,
)
from holriem.linalg import CMatrix, in_span
from holriem.scalars import GaussianRational, as_gr, gr

CATALOG = {entry.id: entry for entry in build_catalog()}


def test_bracket_examples():
    h = CATALOG["heis3"].algebra
    assert bracket(h, h.vector("Y"), h.vector("Z")) == h.vector("X")
    s = CATALOG["sol3"].algebra
    assert bracket(s, s.vector("Y"), s.vector("T")) == tuple(-c for c in s.vector("T"))


def test_bracket_antisymmetry_random():
    s = CATALOG["sol3"].algebra
    rng = random.Random(101)
    for _ in range(20):
        x = tuple(gr(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(3))
        assert not any(bracket(s, x, x))
        y = tuple(gr(rng.randint(-4, 4)) for _ in range(3))
        xy = bracket(s, x, y)
        yx = bracket(s, y, x)
        assert xy == tuple(-c for c in yx)


# -- from_table against the dense constructor --------------------------------


def _dense_grid(names, table):
    """The full table of a sparse one, entry by entry, with [b, a] = -[a, b]."""
    n = len(names)
    index = {name: k for k, name in enumerate(names)}
    grid = [[[gr(0)] * n for _ in range(n)] for _ in range(n)]
    for (a, b), combo in table.items():
        for label, coeff in combo.items():
            grid[index[a]][index[b]][index[label]] = as_gr(coeff)
            grid[index[b]][index[a]][index[label]] = -as_gr(coeff)
    return grid


def _assert_from_table_is_dense(names, table):
    algebra = LieAlgebra.from_table(names, table)
    dense = LieAlgebra(names, _dense_grid(names, table))
    assert algebra == dense and algebra.terms == dense.terms


def test_from_table_builds_the_dense_algebra_of_each_shipped_file():
    for entry in build_catalog():
        spec = parse(shipped_file_text(entry.id))
        _assert_from_table_is_dense(spec.labels, spec.brackets)


def test_from_table_builds_the_dense_algebra_of_each_parsed_corpus_file():
    from test_dsl import _golden_corpus

    parsed = 0
    for text, _ in _golden_corpus():
        try:
            spec = parse(text)
        except DslError:
            continue
        _assert_from_table_is_dense(spec.labels, spec.brackets)
        parsed += 1
    assert parsed > 100


def test_from_table_builds_the_dense_algebra_of_random_sparse_tables():
    rng = random.Random(1919)
    coefficients = (0, 1, -2, Fraction(1, 3), gr(0, 1), gr(Fraction(-1, 2), 2))
    for n in range(7):
        for _ in range(20):
            names = [f"e{k}" for k in range(n)]
            table = {}
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < 0.5:
                        # Either orientation; [a, a] only with zero coefficients.
                        a, b = (names[i], names[j]) if rng.random() < 0.5 else (names[j], names[i])
                        table[a, b] = {
                            label: 0 if i == j else rng.choice(coefficients)
                            for label in names
                            if rng.random() < 0.4
                        }
            _assert_from_table_is_dense(names, table)


def test_from_table_negates_each_nonzero_constant_once(monkeypatch):
    # [e0, e1] = 2 e0 - i e2 and [e2, e1] = e1/3: three nonzero constants, so
    # three negations build both [e1, e0] and [e1, e2], as constants and as terms.
    negations = []
    real = GaussianRational.__neg__
    monkeypatch.setattr(GaussianRational, "__neg__", lambda x: negations.append(x) or real(x))
    table = {("e0", "e1"): {"e0": 2, "e2": gr(0, -1)}, ("e2", "e1"): {"e1": Fraction(1, 3)}}
    LieAlgebra.from_table(["e0", "e1", "e2"], table)
    assert sorted(map(str, negations)) == ["-i", "1/3", "2"]


# Each message was taken from the one-pass construction's predecessor, which
# built the dense grid and passed it to ``LieAlgebra``.
@pytest.mark.parametrize(
    "names, table, error, message",
    [
        (("X", "Y", "X"), {("X", "Y"): {"Y": 1}}, ValueError, "duplicate basis labels"),
        (("X", "X"), {}, ValueError, "duplicate basis labels"),
        (("X", "Y"), {("X", "X"): {"Y": 1}}, ValueError, "[X,X] must vanish"),
        (("X", "Y"), {("X", "Y"): {"X": 1}, ("Y", "X"): {"X": 1}}, ValueError, "bracket (Y,X) specified twice"),
        (("X", "Y", "Z"), {("Y", "X"): {"Z": 1}, ("X", "Y"): {"Z": -1}}, ValueError, "bracket (X,Y) specified twice"),
        (("X", "Y"), {("X", "Y"): {}, ("Y", "X"): {}}, ValueError, "bracket (Y,X) specified twice"),
        (("X", "Y"), {("X", "Q"): {"Y": 1}}, KeyError, "'Q'"),
        (("X", "Y"), {("X", "Y"): {"Q": 1}}, KeyError, "'Q'"),
        (("X", "Y"), {("X", "X"): {"Q": 0}}, KeyError, "'Q'"),
        (("X", "Y"), {("X", "Y"): {"X": 1.5}}, TypeError, "cannot interpret 1.5 as a Gaussian rational"),
        # Combinations: the first error met, in table order, wins, and the
        # duplicate-label error comes last.
        (("X", "X"), {("X", "X"): {"X": 1}}, ValueError, "[X,X] must vanish"),
        (("X", "Y", "X"), {("X", "Y"): {"Y": 1}, ("Y", "X"): {"Y": 1}}, ValueError, "bracket (Y,X) specified twice"),
        (("X", "X"), {("X", "Q"): {"X": 1}}, KeyError, "'Q'"),
        (("X", "Y"), {("Y", "Y"): {"X": 1}, ("X", "Y"): {"X": 1}, ("Y", "X"): {"X": 1}}, ValueError, "[Y,Y] must vanish"),
        (("X", "Y"), {("X", "Y"): {"X": 1}, ("Y", "X"): {"X": 1}, ("Y", "Y"): {"X": 1}}, ValueError, "bracket (Y,X) specified twice"),
        (("X", "Y"), {("X", "Y"): {"Q": 1}, ("Y", "X"): {"X": 1}}, KeyError, "'Q'"),
        (("X", "Y"), {("X", "Y"): {"X": 1}, ("Y", "X"): {"X": 1}, ("Q", "X"): {}}, ValueError, "bracket (Y,X) specified twice"),
    ],
)
def test_from_table_raises_as_before(names, table, error, message):
    with pytest.raises(error) as excinfo:
        LieAlgebra.from_table(names, table)
    assert type(excinfo.value) is error and str(excinfo.value) == message


def test_antisymmetry_enforced_at_construction():
    with pytest.raises(ValueError):
        LieAlgebra.from_table(("A", "B"), {("A", "A"): {"B": 1}})


@pytest.mark.parametrize(
    "entries, pair",
    [
        ({(0, 2): (0, 1, 0)}, "(X,Z)"),  # [X,Z] = Y, [Z,X] = 0
        ({(2, 0): (0, 1, 0)}, "(X,Z)"),  # the bad entry below the diagonal
        ({(1, 1): (1, 0, 0)}, "(Y,Y)"),  # c_ii != 0
        ({(2, 1): (1, 0, 0), (2, 0): (0, 1, 0)}, "(X,Z)"),  # the first pair in basis order
        ({(1, 1): (1, 0, 0), (0, 2): (0, 0, 1)}, "(X,Z)"),
    ],
)
def test_antisymmetry_error_names_the_first_pair(entries, pair):
    table = [[entries.get((i, j), (0, 0, 0)) for j in range(3)] for i in range(3)]
    with pytest.raises(ValueError, match=re.escape(f"not antisymmetric at {pair}") + "$"):
        LieAlgebra(("X", "Y", "Z"), table)


def test_jacobi_witness_known_algebras():
    assert jacobi_witness(CATALOG["sl2"].algebra) is None
    rotations = LieAlgebra.from_table(
        ("e1", "e2", "e3"),
        {("e1", "e2"): {"e3": 1}, ("e2", "e3"): {"e1": 1}, ("e3", "e1"): {"e2": 1}},
    )
    assert jacobi_witness(rotations) is None


def test_jacobi_witness_corrupted_heis():
    # Adding [X,Z] = Z breaks exactly one triple: expansion by hand gives
    # [[X,Y],Z] + [[Y,Z],X] + [[Z,X],Y] = 0 + [X,X] + [-Z,Y] = X.
    corrupted = LieAlgebra.from_table(
        ("X", "Y", "Z"), {("Y", "Z"): {"X": 1}, ("X", "Z"): {"Z": 1}}
    )
    assert jacobi_witness(corrupted) == (0, 1, 2)


def test_ad_examples():
    h = CATALOG["heis3"].algebra
    assert ad(h, h.vector("X")).is_zero()
    s = CATALOG["sol3"].algebra
    assert ad(s, s.vector("Y")) == CMatrix.diagonal([0, 1, -1])
    assert ad(s, (gr(0), gr(0), gr(0))).is_zero()


def test_killing_form_sl2():
    # Oracle: traces of the explicit 3x3 products of ad matrices.
    b = killing_form(CATALOG["sl2"].algebra)
    assert b.gram == CMatrix([[8, 0, 0], [0, 0, 4], [0, 4, 0]])


def test_killing_form_degenerate_cases():
    assert killing_form(CATALOG["flat_c3"].algebra).gram.is_zero()
    assert killing_form(CATALOG["heis3"].algebra).gram.is_zero()


def _random_table(rng: random.Random, n: int) -> LieAlgebra:
    """Antisymmetric table with Q(i) constants; Jacobi generally fails."""
    names = [f"e{k}" for k in range(n)]
    table = {
        (names[i], names[j]): {
            names[k]: gr(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
            for k in range(n)
            if rng.random() < 0.4
        }
        for i in range(n)
        for j in range(i + 1, n)
    }
    return LieAlgebra.from_table(names, table)


def test_kernels_from_constants_match_ad_and_bracket():
    """killing_form, is_unimodular and the Jacobi scans read the structure
    constants directly; the oracles here build ad matrices and brackets."""
    rng = random.Random(5)
    algebras = [entry.algebra for entry in build_catalog()]
    algebras += [_random_table(rng, n) for n in (2, 3, 4, 5) for _ in range(3)]
    for algebra in algebras:
        n = algebra.dim
        ads = [ad(algebra, algebra.basis_vector(i)) for i in range(n)]
        assert killing_form(algebra).gram == CMatrix([[trace(x @ y) for y in ads] for x in ads])
        assert is_unimodular(algebra) == all(not trace(x) for x in ads)
        e = [algebra.basis_vector(i) for i in range(n)]
        jacobiators = {
            (i, j, k): [
                p + q + r
                for p, q, r in zip(
                    bracket(algebra, bracket(algebra, e[i], e[j]), e[k]),
                    bracket(algebra, bracket(algebra, e[j], e[k]), e[i]),
                    bracket(algebra, bracket(algebra, e[k], e[i]), e[j]),
                )
            ]
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(j + 1, n)
        }
        assert jacobi_witness(algebra) == next((t for t, v in jacobiators.items() if any(v)), None)


def test_series():
    assert derived_series(CATALOG["heis3"].algebra) == (3, 1, 0)
    assert derived_series(CATALOG["sol3"].algebra) == (3, 2, 0)
    assert derived_series(CATALOG["sl2"].algebra) == (3, 3)
    assert lower_central_series(CATALOG["heis3"].algebra) == (3, 1, 0)
    assert lower_central_series(CATALOG["sol3"].algebra) == (3, 2, 2)


def test_center():
    h = CATALOG["heis3"].algebra
    central = center(h)
    assert len(central) == 1
    assert in_span([h.vector("X")], central[0])
    assert center(CATALOG["c2_semidirect_c2"].algebra) == []
    assert len(center(CATALOG["flat_c3"].algebra)) == 3


def test_predicates():
    s = CATALOG["sol3"].algebra
    assert is_unimodular(s) and derived_series(s)[-1] == 0 and not is_nilpotent(s)
    assert is_nilpotent(CATALOG["heis3"].algebra)
    assert is_semisimple(CATALOG["sl2"].algebra) and derived_series(CATALOG["sl2"].algebra)[-1] != 0
    assert not is_semisimple(CATALOG["sol3"].algebra)


def test_classification_tags():
    assert classify_3d_unimodular(CATALOG["flat_c3"].algebra) is AlgebraClass.ABELIAN_C3
    assert classify_3d_unimodular(CATALOG["heis3"].algebra) is AlgebraClass.HEIS
    assert classify_3d_unimodular(CATALOG["sol3"].algebra) is AlgebraClass.SOL
    assert classify_3d_unimodular(CATALOG["sl2"].algebra) is AlgebraClass.SL2


def test_classification_errors():
    affine = LieAlgebra.from_table(("Y", "Z", "T"), {("Y", "Z"): {"Z": 1}})
    assert not is_unimodular(affine)
    with pytest.raises(NotUnimodular):
        classify_3d_unimodular(affine)
    with pytest.raises(WrongDimension):
        classify_3d_unimodular(CATALOG["c2_semidirect_c2"].algebra)


def _random_invertible(rng):
    while True:
        p = CMatrix(
            [
                [
                    gr(Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                       Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
                    for _ in range(3)
                ]
                for _ in range(3)
            ]
        )
        if p.rank() == 3:
            return p


def test_classification_invariant_under_conjugation():
    # The acceptance suite runs the full 1000-sample sweep; this is a
    # smoke-level version across all four classes.
    rng = random.Random(424242)
    algebras = [
        (CATALOG["flat_c3"].algebra, AlgebraClass.ABELIAN_C3),
        (CATALOG["heis3"].algebra, AlgebraClass.HEIS),
        (CATALOG["sol3"].algebra, AlgebraClass.SOL),
        (CATALOG["sl2"].algebra, AlgebraClass.SL2),
    ]
    for algebra, tag in algebras:
        for _ in range(10):
            p = _random_invertible(rng)
            assert classify_3d_unimodular(conjugate(algebra, p)) is tag


def test_conjugation_preserves_jacobi():
    rng = random.Random(7)
    p = _random_invertible(rng)
    assert jacobi_witness(conjugate(CATALOG["sl2"].algebra, p)) is None


def test_subalgebra_restriction():
    s = CATALOG["sol3"].algebra
    sub = subalgebra(s, [s.vector("Z"), s.vector("T")])
    assert sub.dim == 2
    assert jacobi_witness(sub) is None
    assert derived_series(sub) == (2, 0)


def test_subalgebra_not_closed():
    s = CATALOG["sl2"].algebra
    with pytest.raises(NotClosed):
        subalgebra(s, [s.vector("E"), s.vector("F")])


def test_subalgebra_dependent_generators():
    s = CATALOG["sol3"].algebra
    with pytest.raises(ValueError):
        subalgebra(s, [s.vector("Z"), s.vector("Z")])


SL2 = CATALOG["sl2"].algebra
H, E, F = (SL2.vector(label) for label in ("H", "E", "F"))


# Malformed spans raise ValueError, never IndexError or a result.  A None message
# is free; the others are kept verbatim.  ``in_span`` raised IndexError on a
# vector or generator of the wrong length before it became one ``solve``.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: subalgebra(SL2, []), None),
        (lambda: subalgebra(SL2, [(1, 0, 0), (0, 1)]), None),
        (lambda: subalgebra(SL2, [(1, 0), (0, 1)]), None),
        (lambda: subalgebra(SL2, [(0, 1), (1, 0, 0)]), None),
        (lambda: subalgebra(SL2, [(1, 0, 0, 0)]), None),
        (lambda: subalgebra(SL2, [H, E], ["a"]), None),
        (lambda: subalgebra(SL2, [H, E], ["a", "b", "c"]), None),
        (lambda: subalgebra(SL2, [H, E], ["a", "a"]), "duplicate basis labels"),
        (lambda: subalgebra(SL2, [E, E]), "subalgebra generators are linearly dependent"),
        (lambda: subalgebra(SL2, [H, E, F, E]), "subalgebra generators are linearly dependent"),
        (lambda: subalgebra(SL2, [E, F]), "bracket of generators 0 and 1 leaves the span"),
        (lambda: in_span([(1, 0, 0)], (1, 0)), None),
        (lambda: in_span([(1, 0)], (1, 0, 0)), None),
        (lambda: in_span([(1, 0, 0), (0, 1)], (1, 0, 0)), None),
        (lambda: in_span([(0, 1), (1, 0, 0)], (1, 0, 0)), None),
        (lambda: is_ideal(SL2, [(1, 0)]), None),
    ],
    ids=[
        "no-generators", "ragged", "short", "short-then-long", "long", "too-few-names",
        "too-many-names", "duplicate-names", "dependent", "dependent-fourth", "not-closed",
        "in-span-long-generator", "in-span-short-generator", "in-span-ragged",
        "in-span-short-then-long", "is-ideal-short",
    ],
)
def test_malformed_spans_raise_value_error(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    if message is not None:
        assert str(excinfo.value) == message
        assert (type(excinfo.value) is NotClosed) == message.startswith("bracket")


def test_is_ideal():
    s = CATALOG["sol3"].algebra
    assert is_ideal(s, [s.vector("Z"), s.vector("T")])
    assert not is_ideal(s, [s.vector("Y")])


def test_center_vectors_have_zero_ad():
    for algebra in (CATALOG["heis3"].algebra, CATALOG["flat_c3"].algebra, CATALOG["c2_semidirect_c2"].algebra):
        for v in center(algebra):
            assert ad(algebra, v).is_zero()
