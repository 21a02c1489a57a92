"""Scalars and combinations are printed from the integer triple (a + b*i)/d.

The references below are the ``Fraction``-based renderers the triple
replaced: ``GaussianRational.__str__`` read ``re`` and ``im`` as Fractions,
and ``format_combination`` split off each coefficient's sign and decided
its parentheses the same way.  Both renderers must print every value of a
seeded corpus byte for byte as these do.
"""

import random
from fractions import Fraction

import pytest

from holriem.dsl import format_combination
from holriem.scalars import ONE, GaussianRational, gr

I = gr(0, 1)


def reference_str(value: GaussianRational) -> str:
    re, im = value.re, value.im
    if im == 0:
        return str(re)
    imag = "i" if abs(im) == 1 else f"{abs(im)} i"
    if re == 0:
        return imag if im > 0 else f"-{imag}"
    sign = "+" if im > 0 else "-"
    return f"{re} {sign} {imag}"


def _split_sign(value: GaussianRational) -> tuple[int, GaussianRational]:
    if value.im == 0:
        return (1, value) if value.re > 0 else (-1, -value)
    if value.re == 0:
        return (1, value) if value.im > 0 else (-1, -value)
    return 1, value


def _needs_parens(value: GaussianRational) -> bool:
    return bool(value.re) and bool(value.im)


def reference_combination(labels, combo) -> str:
    ordered = [(label, combo[label]) for label in labels if label in combo and combo[label]]
    if not ordered:
        return "0"
    parts = []
    for position, (label, coeff) in enumerate(ordered):
        sign, magnitude = _split_sign(coeff)
        if magnitude == ONE:
            body = label
        elif magnitude == I:
            body = f"i {label}"
        else:
            text = reference_str(magnitude)
            body = f"({text}) {label}" if _needs_parens(magnitude) else f"{text} {label}"
        if position == 0:
            parts.append(body if sign > 0 else f"- {body}")
        else:
            parts.append(f"+ {body}" if sign > 0 else f"- {body}")
    return " ".join(parts)


def _part(rng: random.Random) -> Fraction:
    """A nonzero rational part: a unit, a small integer, a fraction with a
    denominator above 1, or one with a numerator of about 70 bits."""
    kind = rng.randrange(4)
    if kind == 0:
        magnitude = Fraction(1)
    elif kind == 1:
        magnitude = Fraction(rng.randint(2, 9))
    elif kind == 2:
        magnitude = Fraction(rng.randint(1, 30), rng.randint(2, 12))
    else:
        magnitude = Fraction(rng.randint(2**69, 2**70), rng.choice((1, 3, 7, 2**40 + 15)))
    return magnitude if rng.random() < 0.5 else -magnitude


def _corpus(size: int = 2400) -> list[GaussianRational]:
    rng = random.Random(23)
    units = [gr(re, im) for re in (-1, 0, 1) for im in (-1, 0, 1)]
    values = list(units)
    while len(values) < size:
        kind = rng.randrange(3)  # real, imaginary or mixed
        re = _part(rng) if kind != 1 else 0
        im = _part(rng) if kind != 0 else 0
        values.append(gr(re, im))
    return values


CORPUS = _corpus()


def test_corpus_covers_each_kind():
    kinds = {(bool(x.re), bool(x.im), x.re > 0 or x.im > 0) for x in CORPUS if x}
    assert len(kinds) == 6
    assert any(x._d > 1 for x in CORPUS) and any(abs(x._a) > 2**60 for x in CORPUS)
    assert ONE in CORPUS and I in CORPUS and -I in CORPUS and -ONE in CORPUS


def test_str_matches_the_fraction_reference():
    for value in CORPUS:
        assert str(value) == reference_str(value), (value._a, value._b, value._d)


LABELS = ("e1", "e2", "e3", "e4", "e5")


@pytest.mark.parametrize("start", range(0, len(CORPUS), 400))
def test_combination_matches_the_fraction_reference(start):
    rng = random.Random(start)
    values = CORPUS[start : start + 400]
    for k, value in enumerate(values):
        # Each value first, after another term, and in a five-slot combination
        # where some slots are zero or absent.
        combos = [
            {"e3": value},
            {"e1": values[k - 1], "e4": value},
            {
                label: rng.choice(values) if rng.random() < 0.6 else gr(0)
                for label in LABELS
                if rng.random() < 0.8
            },
        ]
        for combo in combos:
            assert format_combination(LABELS, combo) == reference_combination(LABELS, combo)
