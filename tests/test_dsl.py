"""Input-format parser and canonical serializer, and the entries parsed files become."""

import hashlib
import random
import re
from fractions import Fraction
from importlib import resources

import pytest

from holriem.catalog import CATALOG_IDS, FAMILY_ID, build_catalog, entry_from_spec, shipped_file_text
from holriem.dsl import (
    MAX_NESTING,
    DslError,
    DuplicateKey,
    MalformedScalar,
    MissingSection,
    UndeclaredLabel,
    _polynomial,
    at,
    degree,
    format_combination,
    parse,
    parse_scalar,
    serialize,
)
from holriem.liealg import LieAlgebra, bracket
from holriem.scalars import gr

HEIS_TEXT = """
# three-dimensional nilpotent example
[algebra]
name = heis3
dim = 3
basis = X, Y, Z

[brackets]
"Y,Z" = X

[form]
"X,Z" = 1
"Y,Y" = 1
"""


def _entry(spec):
    """The entry of a parsed file, its algebra built from the file's table."""
    return entry_from_spec(spec.name, spec, LieAlgebra.from_table(spec.labels, spec.brackets))


def test_parse_heis_file():
    spec = parse(HEIS_TEXT)
    assert spec.name == "heis3"
    assert spec.labels == ("X", "Y", "Z")
    assert spec.brackets == {("Y", "Z"): {"X": gr(1)}}
    entry = _entry(spec)
    algebra, form = entry.algebra, entry.form
    assert bracket(algebra, algebra.vector("Y"), algebra.vector("Z")) == algebra.vector("X")
    assert form.apply(algebra.vector("X"), algebra.vector("Z")) == gr(1)


def test_scalar_grammar():
    assert parse_scalar("1/2 + i") == gr(Fraction(1, 2), 1)
    assert parse_scalar("-3/4 i") == gr(0, Fraction(-3, 4))
    assert parse_scalar("2 * 3") == gr(6)
    assert parse_scalar("(1 + i) (1 - i)") == gr(2)
    assert parse_scalar("- (2 - i)") == gr(-2, 1)
    assert parse_scalar("0") == gr(0)
    assert parse_scalar("i i") == gr(-1)


def test_scalar_errors():
    with pytest.raises(MalformedScalar):
        parse_scalar("1/")
    with pytest.raises(MalformedScalar):
        parse_scalar("1/0")
    with pytest.raises(MalformedScalar):
        parse_scalar("(1 + i")
    with pytest.raises(MalformedScalar):
        parse_scalar("bogus")


def test_form_scalar_entry():
    spec = parse(HEIS_TEXT + '\n[expected]\nconstant_curvature = 2/4\n')
    assert spec.expected["constant_curvature"] == "1/2"


def test_undeclared_label_with_location():
    text = HEIS_TEXT + '\n[isotropy]\ngen = W\n'
    with pytest.raises(UndeclaredLabel) as info:
        parse(text)
    assert info.value.line > 0 and info.value.col > 0


@pytest.mark.parametrize("body", ["", "\n# no generator yet\n", "\n[expected]\ncenter_dim = 1\n"])
def test_an_isotropy_section_without_a_generator_is_a_located_error(body):
    # The section is declared, so it is not read as a file without one.
    text = HEIS_TEXT + "\n[isotropy]\n" + body
    with pytest.raises(DslError) as info:
        parse(text)
    header = text.splitlines().index("[isotropy]") + 1
    assert (info.value.line, info.value.col) == (header, 1)
    assert info.value.reason == "[isotropy] declares no generator"


def test_undeclared_bracket_key():
    bad = HEIS_TEXT.replace('"Y,Z" = X', '"Y,W" = X')
    with pytest.raises(UndeclaredLabel):
        parse(bad)


def test_duplicate_key():
    bad = HEIS_TEXT.replace('"Y,Z" = X', '"Y,Z" = X\n"Y,Z" = 2 X')
    with pytest.raises(DuplicateKey):
        parse(bad)


def test_reversed_bracket_key_is_same_entry():
    bad = HEIS_TEXT.replace('"Y,Z" = X', '"Y,Z" = X\n"Z,Y" = - X')
    with pytest.raises(DuplicateKey):
        parse(bad)


def test_reversed_bracket_key_negates():
    text = HEIS_TEXT.replace('"Y,Z" = X', '"Z,Y" = - X')
    spec = parse(text)
    assert spec.brackets == {("Y", "Z"): {"X": gr(1)}}


def test_missing_algebra_section():
    with pytest.raises(MissingSection):
        parse("[brackets]\n")


def test_dim_mismatch():
    bad = HEIS_TEXT.replace("dim = 3", "dim = 2")
    with pytest.raises(DslError):
        parse(bad)


def test_self_bracket_must_vanish():
    bad = HEIS_TEXT.replace('"Y,Z" = X', '"Y,Y" = X')
    with pytest.raises(DslError):
        parse(bad)
    zero_self = HEIS_TEXT.replace('"Y,Z" = X', '"Y,Y" = 0\n"Y,Z" = X')
    assert parse(zero_self).brackets == {("Y", "Z"): {"X": gr(1)}}


@pytest.mark.parametrize(
    "section, first, second, reason",
    [
        ("brackets", '"X,Y" = 0', '"X,Y" = Z', 'bracket "X,Y" specified twice'),
        ("brackets", '"Y,X" = 0', '"X,Y" = Z', 'bracket "X,Y" specified twice'),
        ("brackets", '"Y,Y" = 0', '"Y,Y" = 0', 'bracket "Y,Y" specified twice'),
        ("form", '"X,Y" = 0', '"X,Y" = 1', 'form entry "X,Y" given twice'),
        ("form", '"Y,X" = 0', '"X,Y" = 1', 'form entry "X,Y" given twice'),
        ("form", '"Y,Y" = 0', '"Y,Y" = 0', 'form entry "Y,Y" given twice'),
    ],
)
def test_a_pair_given_twice_is_a_duplicate_also_when_zero(section, first, second, reason):
    text = f"[algebra]\nname = a\ndim = 3\nbasis = X, Y, Z\n[{section}]\n{first}\n{second}\n"
    with pytest.raises(DuplicateKey) as info:
        parse(text)
    assert (info.value.line, info.value.col, info.value.reason) == (7, 1, reason)


def test_superscript_digits_are_not_numbers():
    with pytest.raises(DslError) as info:
        parse(HEIS_TEXT.replace("dim = 3", "dim = \u00b2"))
    assert info.value.reason == "dim must be a nonnegative integer"
    with pytest.raises(MalformedScalar) as info:
        parse_scalar("\u00b2")
    assert (info.value.col, info.value.reason) == (1, "unexpected character '\u00b2'")


def test_zero_entries_dropped():
    text = HEIS_TEXT + '\n[isotropy]\ngen = Y + 0 Z\n'
    spec = parse(text)
    assert spec.isotropy == ({"Y": gr(1)},)


def test_combination_rendering_round_trip():
    labels = ("X", "Y", "Z")
    cases = [
        {"X": gr(1)},
        {"X": gr(-1)},
        {"X": gr(2), "Z": gr(Fraction(-1, 2))},
        {"Y": gr(0, 1)},
        {"Y": gr(0, -2)},
        {"X": gr(1, 1), "Y": gr(Fraction(1, 2))},
        {"Z": gr(Fraction(-3, 4), Fraction(5, 2))},
    ]
    from holriem.dsl import _parse_combination

    for combo in cases:
        rendered = format_combination(labels, combo)
        parsed = _parse_combination(rendered, labels, 1, 1)
        assert parsed == combo, rendered


def test_round_trip_all_shipped_files():
    # Every file under data/: the report's files/* checks cover the catalog's,
    # and this test the family's too.
    names = sorted(path.stem for path in (resources.files("holriem") / "data").iterdir())
    assert names == sorted((*CATALOG_IDS, FAMILY_ID))
    for name in names:
        text = shipped_file_text(name)
        spec = parse(text)
        assert spec.name == name
        assert parse(serialize(spec)) == spec
        assert serialize(spec) == text  # files are stored in canonical form


def test_a_declared_zero_form_is_kept():
    text = HEIS_TEXT.replace('"X,Z" = 1\n"Y,Y" = 1\n', '"X,X" = 0\n')
    spec = parse(text)
    assert spec.form == {} and parse(HEIS_TEXT.split("[form]")[0]).form is None
    assert serialize(spec).endswith('"Y,Z" = X\n\n[form]\n')
    assert parse(serialize(spec)) == spec
    assert _entry(spec).form.gram.is_zero()


def test_serialize_canonicalizes_scalars():
    spec = parse(HEIS_TEXT.replace('"X,Z" = 1', '"X,Z" = 2/4 + 0 i'))
    assert '"X,Z" = 1/2' in serialize(spec)


def test_empty_optional_sections_omitted():
    spec = parse(HEIS_TEXT)
    text = serialize(spec)
    assert "[isotropy]" not in text and "[expected]" not in text


def test_to_model_greedy_complement():
    model = _entry(parse(shipped_file_text("c_oplus_sl2"))).model
    labels = [model.algebra.basis_names[complement.index(1)] for complement in model.complement]
    assert labels == ["H", "E", "F"]


def test_to_model_quotient_form_on_complement():
    # With isotropy Y the greedy complement is (X, Z); form keys must stay there.
    good = HEIS_TEXT.replace('"Y,Y" = 1', '"Z,Z" = 1') + '\n[isotropy]\ngen = Y\n'
    model = _entry(parse(good)).model
    assert model.quotient_form is not None
    assert model.quotient_form.dim == 2
    bad = HEIS_TEXT + '\n[isotropy]\ngen = Y\n'  # keeps the (Y,Y) entry
    with pytest.raises(ValueError):
        _entry(parse(bad))


def test_expected_normalization():
    text = HEIS_TEXT + "\n[expected]\nclass = heis\nsolvable = TRUE\nderived_dims = 3, 1, 0\n"
    spec = parse(text)
    assert spec.expected["class"] == "HEIS"
    assert spec.expected["solvable"] == "true"
    assert spec.expected["derived_dims"] == "3,1,0"


def test_expected_bad_bool():
    with pytest.raises(DslError):
        parse(HEIS_TEXT + "\n[expected]\nsolvable = maybe\n")


ONE_DIM_TEXT = "[algebra]\nname = a\ndim = 1\nbasis = X\n[expected]\n"


@pytest.mark.parametrize(
    "text, outcome",
    [
        (ONE_DIM_TEXT + "unimodular = yes\n", ("unimodular must be true or false", 6, 14)),
        (ONE_DIM_TEXT + "center_dim = -1\n", ("center_dim must be a nonnegative integer", 6, 14)),
        (ONE_DIM_TEXT + "derived_dims = 1, x\n", ("derived_dims must be a comma list of integers", 6, 16)),
        (ONE_DIM_TEXT + "constant_curvature = 1/0\n", ("zero denominator", 6, 25)),
        (ONE_DIM_TEXT.replace("dim = 1", "dim = one"), ("dim must be a nonnegative integer", 3, 7)),
        (ONE_DIM_TEXT + "note = Mixed Case, 007 / none\n", {"note": "Mixed Case, 007 / none"}),
    ],
    ids=["bool", "int", "int-list", "constant", "algebra-dim", "unknown-key"],
)
def test_each_kind_of_expected_value_keeps_its_error(text, outcome):
    # A bad value of each kind fails with its reason at the value's line and
    # column; a key of no kind keeps its value as written.
    if isinstance(outcome, dict):
        assert parse(text).expected == outcome
        return
    with pytest.raises(DslError) as info:
        parse(text)
    assert (info.value.reason, info.value.line, info.value.col) == outcome


def test_comments_and_whitespace_insignificant():
    text = """
[algebra]
  name   =  heis3   # inline comment
  dim=3
  basis =X ,Y,  Z

[brackets]
  "Y,Z"=X  # the center
"""
    spec = parse(text)
    assert spec.labels == ("X", "Y", "Z")
    assert spec.brackets == {("Y", "Z"): {"X": gr(1)}}


def test_unknown_section_rejected():
    with pytest.raises(DslError):
        parse(HEIS_TEXT + "\n[mystery]\nkey = 1\n")


def test_content_before_section():
    with pytest.raises(DslError):
        parse("name = x\n[algebra]\n")


def test_complex_diagonal_form_entry():
    text = HEIS_TEXT.replace('"X,Z" = 1', '"X,Z" = 1\n"X,X" = 1/2 + i')
    spec = parse(text)
    assert spec.form[("X", "X")] == gr(Fraction(1, 2), 1)
    entry = _entry(spec)
    algebra, form = entry.algebra, entry.form
    assert form.apply(algebra.vector("X"), algebra.vector("X")) == gr(Fraction(1, 2), 1)


def test_serialize_keys_lexicographic():
    text = serialize(parse(shipped_file_text("sol3")))
    assert text.index('"Y,T"') < text.index('"Y,Z"')


def test_primed_labels_supported():
    text = """
[algebra]
name = primed
dim = 3
basis = X', Y, Z

[brackets]
"Y,Z" = X'
"""
    spec = parse(text)
    assert spec.brackets == {("Y", "Z"): {"X'": gr(1)}}
    assert parse(serialize(spec)) == spec


def test_random_specfile_round_trip():
    import random

    from holriem.dsl import SpecFile

    rng = random.Random(90210)
    label_pool = ["A", "B", "C", "D", "E'"]
    for trial in range(30):
        n = rng.randint(2, 5)
        labels = tuple(label_pool[:n])

        def scalar():
            return gr(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            )

        brackets = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    combo = {
                        labels[k]: scalar()
                        for k in range(n)
                        if rng.random() < 0.5
                    }
                    combo = {k: v for k, v in combo.items() if v}
                    if combo:
                        brackets[(labels[i], labels[j])] = combo
        form = {}
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.4:
                    value = scalar()
                    if value:
                        form[(labels[i], labels[j])] = value
        isotropy = ()
        if rng.random() < 0.5:
            combo = {labels[rng.randrange(n)]: gr(1)}
            isotropy = (combo,)
        spec = SpecFile(
            name=f"fuzz{trial}",
            labels=labels,
            brackets=brackets,
            form=form,
            isotropy=isotropy,
            expected={"class": "SOL"} if rng.random() < 0.3 else {},
        )
        text = serialize(spec)
        assert parse(text) == spec, text


def test_random_family_round_trip():
    # Families in up to three parameters whose coefficients are Gaussian
    # polynomials of degree <= 2, in brackets and isotropy generators.
    from holriem.dsl import SpecFile

    rng = random.Random(31337)
    names = ("c", "beta", "m")

    def scalar():
        return gr(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        )

    for trial in range(40):
        n, p = rng.randint(2, 4), rng.randint(1, 3)
        labels = ("A", "B", "C", "D")[:n]

        def coefficient():
            monomials = [tuple(sorted(rng.randrange(p) for _ in range(rng.randint(0, 2)))) for _ in range(3)]
            return _polynomial((m, scalar()) for m in monomials)

        def combination():
            combo = {label: coefficient() for label in labels if rng.random() < 0.6}
            return {label: value for label, value in combo.items() if value}

        brackets = {(labels[i], labels[j]): combination() for i in range(n) for j in range(i + 1, n)}
        isotropy = tuple(c for c in (combination(),) if c and rng.random() < 0.5)
        spec = SpecFile(
            name=f"family{trial}",
            labels=labels,
            brackets={pair: combo for pair, combo in brackets.items() if combo},
            form={(labels[0], labels[0]): scalar() or gr(1)} if rng.random() < 0.5 else None,
            isotropy=isotropy,
            parameters=names[:p],
        )
        text = serialize(spec)
        assert parse(text) == spec, text
        assert degree(spec) <= 2


FAMILY_TEXT = HEIS_TEXT.replace("basis = X, Y, Z\n", "basis = X, Y, Z\n\n[parameters]\nnames = c, beta\n")


@pytest.mark.parametrize(
    "names, reason",
    [
        ("c, Y", "parameter 'Y' is a basis label"),
        ("c, i", "parameter 'i' is not an identifier other than 'i'"),
        ("c, beta, c", "parameter 'c' is repeated"),
        ("c, 2b", "parameter '2b' is not an identifier other than 'i'"),
    ],
)
def test_a_bad_parameter_name_is_located(names, reason):
    with pytest.raises(DslError) as info:
        parse(FAMILY_TEXT.replace("names = c, beta", f"names = {names}"))
    assert (info.value.line, info.value.col, info.value.reason) == (9, 9, reason)


def test_parameters_take_one_names_key():
    with pytest.raises(DslError) as info:
        parse(FAMILY_TEXT.replace("names = c, beta\n", "names = c, beta\nnames = m\n"))
    reason = "[parameters] holds one key, names"
    assert (info.value.line, info.value.col, info.value.reason) == (10, 1, reason)


def test_a_parameter_in_the_form_is_located():
    with pytest.raises(MalformedScalar) as info:
        parse(FAMILY_TEXT.replace('"Y,Y" = 1', '"Y,Y" = 1 + c'))
    assert (info.value.line, info.value.col) == (16, 14)
    assert info.value.reason == "unexpected identifier 'c' in scalar"


def test_a_family_coefficient_is_a_polynomial_in_its_parameters():
    spec = parse(FAMILY_TEXT.replace('"Y,Z" = X', '"Y,Z" = (1 - c*beta) X + 2 beta*beta c Z'))
    assert serialize(spec).count('"Y,Z" = (1 - c*beta) X + (2 c*beta*beta) Z') == 1
    assert degree(spec) == 3 and degree(parse(HEIS_TEXT)) == 0
    point = at(spec, (gr(0, 1), Fraction(1, 2)))
    assert point.parameters == ()
    assert point.brackets == {("Y", "Z"): {"X": gr(1, Fraction(-1, 2)), "Z": gr(0, Fraction(1, 2))}}
    assert at(spec, (1, 1)).brackets == {("Y", "Z"): {"Z": gr(2)}}  # 1 - c beta vanishes there
    with pytest.raises(ValueError, match="expected 2 parameter values, got 1"):
        at(spec, (1,))


@pytest.mark.parametrize(
    "point", [(0, 0, 0, 0), (1, Fraction(1, 2), -1, 3), (gr(0, 1), -2, gr(1, 1), Fraction(-3, 4))]
)
def test_the_family_file_at_a_point_is_the_file_with_the_values_written_in(point):
    text = shipped_file_text(FAMILY_ID)
    values = dict(zip(("c", "m", "k", "beta"), point))
    written = re.sub(
        r"\b(c|m|k|beta)\b",
        lambda match: f"({gr(0) + values[match.group()]})",
        text.replace("[parameters]\nnames = c, m, k, beta\n\n", ""),
    )
    assert at(parse(text), point) == parse(written)


def test_nesting_up_to_the_limit_parses():
    assert parse_scalar("(" * MAX_NESTING + "1/2" + ")" * MAX_NESTING) == gr(Fraction(1, 2))
    assert parse_scalar("-" * MAX_NESTING + "i") == gr(0, 1)
    with pytest.raises(MalformedScalar):
        parse_scalar("-" * (MAX_NESTING + 1) + "i")


def test_unconvertible_integers_are_located():
    with pytest.raises(MalformedScalar) as excinfo:
        parse(HEIS_TEXT.replace("dim = 3", "dim = " + "9" * 5000))
    assert (excinfo.value.line, excinfo.value.col) == (5, 7)


# -- golden parse corpus --------------------------------------------------------
#
# Seeded character mutations of the shipped files, and seeded scalar and
# combination strings, over printable ASCII plus a non-ASCII letter, a
# non-ASCII decimal digit and a no-break space.  Each outcome (the value, or
# the error's type, line, column and message) goes into one SHA-256, so any
# change to what the parser accepts or how it locates an error shows here.

CORPUS_ALPHABET = [chr(c) for c in range(32, 127)] + ["\t", "\n", "é", "\u0663", "\u00a0"]
CORPUS_PIECES = [
    *"0123456789", "12", "\u0663", "i", "I", "X", "Y", "Z", "Q", "Xi", "_", "'",
    *"/()+-*", " ", "\u00a0", "é", "#", "=", '"', ",",
]
CORPUS_DIGEST = "08da06a6d9dd4169aecedae2f1725234b7f68a72923ff649472979869c0b6650"


def _corpus_outcome(parse_value):
    try:
        return ("ok", parse_value())
    except DslError as error:
        return ("error", type(error).__name__, error.line, error.col, error.reason)


def _corpus_scalar(rng, depth=0):
    """A seeded scalar expression: numbers, fractions, i, signs, products,
    sums and parentheses."""
    kind = rng.randrange(8 if depth < 3 else 3)
    if kind == 0:
        return rng.choice(("0", "1", "2", "12", "\u0663", "i"))
    if kind == 1:
        return f"{rng.randrange(10)}/{rng.randrange(5)}"
    if kind == 2:
        return f"{rng.randrange(1, 20)} i"
    if kind == 3:
        return "-" + _corpus_scalar(rng, depth + 1)
    if kind == 4:
        return f"({_corpus_scalar(rng, depth + 1)})"
    glue = rng.choice((" + ", " - ", " * ", " ", "*", "+"))
    return _corpus_scalar(rng, depth + 1) + glue + _corpus_scalar(rng, depth + 1)


def _corpus_combination(rng):
    terms = []
    for _ in range(rng.randint(1, 3)):
        label = rng.choice(("X", "Y", "Z", "Q", "i X", "Xi"))
        coefficient = rng.choice(("", "", "2 ", "i ", "1/2 ", f"({_corpus_scalar(rng)}) "))
        terms.append(rng.choice(("", "+ ", "- ")) + coefficient + label)
    return " ".join(terms) if rng.randrange(6) else "0"


def _corpus_mutant(rng, text, edits):
    """``text`` after ``edits`` seeded one-piece replacements, insertions or deletions."""
    for _ in range(edits):
        at = rng.randrange(len(text) + 1)
        piece = rng.choice(CORPUS_PIECES + CORPUS_ALPHABET)
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:at] + piece + text[at + 1 :]
        elif kind == 1:
            text = text[:at] + piece + text[at:]
        else:
            text = text[:at] + text[at + 1 :]
    return text


def _golden_corpus():
    """3000 (input, thunk that parses it) pairs, the same on every run."""
    from holriem.dsl import _parse_combination

    rng = random.Random(20240613)
    files = [shipped_file_text(e.id) for e in build_catalog()]
    labels = ("X", "Y", "Z")
    for _ in range(1500):
        text = _corpus_mutant(rng, rng.choice(files), rng.randint(1, 3))
        yield text, lambda text=text: serialize(parse(text))
    for _ in range(750):
        text = _corpus_mutant(rng, _corpus_scalar(rng), rng.randrange(4))
        yield text, lambda text=text: str(parse_scalar(text, 3, 9))
    for _ in range(750):
        text = _corpus_mutant(rng, _corpus_combination(rng), rng.randrange(4))
        yield text, lambda text=text: sorted(
            (k, str(v)) for k, v in _parse_combination(text, labels, 3, 9).items()
        )


def test_golden_parse_corpus():
    digest = hashlib.sha256()
    outcomes = [_corpus_outcome(parse_value) for _, parse_value in _golden_corpus()]
    for outcome in outcomes:
        digest.update(repr(outcome).encode("utf-8") + b"\n")
    errors = sum(outcome[0] == "error" for outcome in outcomes)
    assert (len(outcomes), errors, digest.hexdigest()) == (3000, 2288, CORPUS_DIGEST)


# -- line separators and Unicode spaces ------------------------------------------
#
# Like ``str.splitlines``, the parser ends a line at each of LINE_SEPARATORS;
# SPACES are whitespace inside a line (U+001F is a space here, not a line end).
# One SHA-256 over the outcomes of the shipped files re-joined with each
# separator, and of lines that put each space around keys, `=`, values and
# comments, pins both, so a line scanner that renumbers lines shows here.

LINE_SEPARATORS = ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPACES = [" ", "\t", "\x1f", "\u00a0", "\u2003", "\u3000"]
UNDECLARED_TEXT = '[algebra]\nname = a\ndim = 3\nbasis = X, Y, Z\n[brackets]\n"X,Y" = Z\n"X,Z" = W\n'
SEPARATOR_DIGEST = "a36e9602ae3a5fcff9d17df876272368bb3c1040ed912eebf2c982f60e675b00"


def _spaced(text, space):
    """``text`` with ``space`` around each section header, key, `=`, value and
    comment, and in place of every space inside a value."""
    lines = []
    for line in text.split("\n"):
        if " = " in line:
            key, value = line.split(" = ", 1)
            value = value.replace(" ", space)
            line = f"{space}{key}{space}={space}{value}{space}#{space}note{space}"
        elif line:
            line = f"{space}{line}{space}#{space}note"
        lines.append(line)
    return "\n".join(lines)


def _separator_corpus():
    files = [shipped_file_text(e.id) for e in build_catalog()] + [UNDECLARED_TEXT]
    for separator in LINE_SEPARATORS:
        for text in files:
            yield separator.join(text.split("\n"))
    for space in SPACES:
        for text in files:
            yield _spaced(text, space)


def test_line_separators_and_unicode_spaces():
    outcomes = [_corpus_outcome(lambda: serialize(parse(text))) for text in _separator_corpus()]
    located = {outcome[2:4] for outcome in outcomes if outcome[0] == "error"}
    assert located == {(7, 9), (7, 10)}
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(repr(outcome).encode("utf-8") + b"\n")
    assert (len(outcomes), digest.hexdigest()) == (192, SEPARATOR_DIGEST)


# -- valid values beyond the corpus ------------------------------------------------
#
# Most corpus inputs are errors, and its successes stay close to the canonical
# shipped text.  VALUES_DIGEST pins the value of seeded valid inputs that are
# not canonical: the benchmark's "(a/b + c/d i) X" coefficients, implicit
# products, `i X`, repeated and cancelled labels, a bare 0, nesting at
# MAX_NESTING and long sums of fractions with distinct denominators.

VALUES_DIGEST = "673960ac1c48e49af07636a452901e206c7c131aa2884451a3f13ff19cf4591e"


def _valid_values():
    """(text, thunk giving the str of its value) for 400 seeded valid inputs."""
    from holriem.dsl import _parse_combination

    rng = random.Random(20261019)
    labels = ("X", "Y", "Z")

    def ratio():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 12))

    def coefficient():
        # As the benchmark writes one: "a/b", "c/d i" or "a/b + c/d i".
        re, im = ratio(), ratio()
        if not im:
            return str(re)
        if not re:
            return f"{im} i"
        return f"{re} {'+' if im > 0 else '-'} {abs(im)} i"

    def term(label):
        return rng.choice((
            f"({coefficient()}) {label}",
            f"{rng.randint(1, 9)}/{rng.randint(1, 9)} i {label}",
            f"{rng.randint(0, 9)} (1+i) {label}",
            f"{rng.randint(0, 9)}*{rng.randint(0, 9)} {label}",
            f"i {label}",
            f"{label} + {rng.randint(2, 5)} {label}",
            f"{label} - {label}",
        ))

    denominators = [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    for _ in range(380):
        kind = rng.randrange(4)
        if kind == 0:
            text = coefficient()
        elif kind == 1:
            text = " + ".join(f"{rng.randint(-9, 9)}/{d}" for d in rng.sample(denominators, 8))
        else:
            chosen = rng.sample(labels, rng.randint(1, 3))
            text = " ".join(
                (rng.choice(("+ ", "- ")) if k else rng.choice(("", "- "))) + term(label)
                for k, label in enumerate(chosen)
            )
        if kind < 2:
            yield text, lambda text=text: str(parse_scalar(text, 3, 9))
        else:
            yield text, lambda text=text: sorted(
                (k, str(v)) for k, v in _parse_combination(text, labels, 3, 9).items()
            )
    deep = "(" * MAX_NESTING + "{}" + ")" * MAX_NESTING
    fixed = [
        "0",
        deep.format("3/4 + i"),
        "-" * MAX_NESTING + "i",
        " + ".join(f"1/{d}" for d in range(1, 61)),
        " - ".join(f"{d}/{d + 1}" for d in range(1, 61)) + " i",
    ]
    for text in fixed:
        yield text, lambda text=text: str(parse_scalar(text, 3, 9))
    for text in ["0", "i X", "X + 2 X", "X - X", deep.format("2") + " X - Y", "3/4 i X",
                 "2 (1+i) X", "2*3 X", "(" + " + ".join(f"1/{d}" for d in range(2, 40)) + ") Z",
                 "- X - 2 Y - 3/5 i Z", "(1/2 + 1/3 i) X + (1/2 - 1/3 i) X", "- (2) X",
                 "0 X + 1 Y", "+ X", "(0) Y + Z"]:
        yield text, lambda text=text: sorted(
            (k, str(v)) for k, v in _parse_combination(text, labels, 3, 9).items()
        )


def test_valid_values_beyond_the_corpus():
    outcomes = [_corpus_outcome(parse_value) for _, parse_value in _valid_values()]
    assert all(outcome[0] == "ok" for outcome in outcomes)
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(repr(outcome).encode("utf-8") + b"\n")
    assert (len(outcomes), digest.hexdigest()) == (400, VALUES_DIGEST)
