"""Line-oriented `.liealg` text format: parser and serializer.

Format (one key per line, `#` starts a comment, whitespace insignificant):

    [algebra]
    name = sol3
    dim = 3
    basis = Y, Z, T

    [parameters]         # optional: a family, polynomial in these names
    names = c, beta

    [brackets]           # sparse: omitted entries are zero
    "Y,Z" = Z
    "Y,T" = - T

    [form]               # symmetric; keys are basis-label pairs
    "Y,Y" = 1
    "Z,T" = 1

    [isotropy]           # optional generators (gen, gen1, gen2, ...)
    gen = Y

    [expected]           # optional property assertions
    class = SOL

Lines end where ``str.splitlines`` ends them.  One regex cuts each line at
its comment and at its `=`; a `#` or `=` inside double quotes is text, and an
unclosed quote runs to the end of the line.  One ``findall`` splits each value
into tokens, taken once: a number (a run of decimal digits), an identifier
`[A-Za-z_][A-Za-z0-9_']*`, or any other single non-space character;
whitespace only separates tokens.  A token's column is found only when an
error reports it.  Over these tokens:

    sum         = product {("+" | "-") product}
    product     = factor {["*"] factor}     # implicit before "i", "(" or a parameter only
    factor      = "-" factor | "(" sum ")" | number ["/" number] | "i" | parameter
    combination = ["+" | "-"] term {("+" | "-") term}
    term        = [coeff] ["i"] label | coeff

where a coeff is a product that opens with a number or "(", and a term
without a label must be 0 and cannot stand beside one with a label.

Scalars are Gaussian rationals, e.g. `1/2 + 3/4 i`.  Bracket and isotropy
values are linear combinations of declared basis labels.  In a family, a file
with `[parameters]`, their coefficients are polynomials (`(-m - c*c) X`), and
``at`` gives the file at a point.  A declared `[form]` is kept even when zero.
Serialization is canonical (fixed section order, keys sorted, scalars in
lowest terms) and ``parse(serialize(s)) == s``.  ``catalog.entry_from_spec``
turns a parsed file into library objects.
"""

from __future__ import annotations

import re
from math import prod
from typing import Sequence

from .scalars import GaussianRational, ONE, Record, ZERO, _make, _render, gr


class DslError(ValueError):
    """Parse failure with 1-based line/column location."""

    def __init__(self, reason: str, line: int = 0, col: int = 0):
        self.reason = reason
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {reason}")


class UndeclaredLabel(DslError):
    pass


class DuplicateKey(DslError):
    pass


class MalformedScalar(DslError):
    pass


class MissingSection(DslError):
    pass


_I = gr(0, 1)

SECTION_ORDER = ("algebra", "parameters", "brackets", "form", "isotropy", "expected")

# Each [expected] key's kind; a key of no kind keeps its value as written.
EXPECTED_KINDS = {
    **dict.fromkeys(("unimodular", "solvable", "nilpotent", "semisimple", "invariance"), "bool"),
    **dict.fromkeys(("center_dim", "invariant_form_dim"), "int"),
    "derived_dims": "int list",
    **dict.fromkeys(("class", "isotropy"), "tag"),
    "constant_curvature": "constant",
}

# Parentheses and unary minus signs nest by recursion; deeper input is
# rejected with a located error before it can exhaust the interpreter stack.
MAX_NESTING = 200

# On a table whose constants are all nonzero, `curvature` takes about 2 min
# and 113 MB at dim 32, and 7 min and 242 MB at dim 40 (2-vCPU VM; the time
# grows as about dim^5), so a larger algebra is rejected with a located error.
MAX_DIM = 32

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_TOKEN_RE = re.compile(rf"\d+|{_IDENT_RE.pattern}|\S")
# A line up to its comment: the text before the first `=` or `#` outside
# quotes, then that `=` if it comes first and the text after it.  An open
# quote runs to the end of the line.
_LINE_RE = re.compile(r'([^"#=]*(?:"[^"]*"?[^"#=]*)*)(=?)[^"#]*(?:"[^"]*"?[^"#]*)*')
_SECTION_RE = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_]*)\]$")
_PAIR_KEY_RE = re.compile(
    r'^"\s*([A-Za-z_][A-Za-z0-9_\']*)\s*,\s*([A-Za-z_][A-Za-z0-9_\']*)\s*"$'
)


class SpecFile(Record):
    """Parsed declarative description of an algebra with optional extras (``form`` None without
    ``[form]``); mutable, so unhashable, but ``catalog.read_text`` shares it: no caller may mutate one."""

    __slots__ = _fields = ("name", "labels", "brackets", "form", "isotropy", "expected", "parameters")
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    __hash__ = None

    def __init__(
        self,
        name: str,
        labels: tuple[str, ...],
        brackets: dict[tuple[str, str], dict[str, GaussianRational]] | None = None,
        form: dict[tuple[str, str], GaussianRational] | None = None,
        isotropy: tuple[dict[str, GaussianRational], ...] = (),
        expected: dict[str, str] | None = None,
        parameters: tuple[str, ...] = (),
    ):
        self.name, self.labels, self.form, self.isotropy = name, labels, form, isotropy
        self.parameters = parameters
        self.brackets = {} if brackets is None else brackets
        self.expected = {} if expected is None else expected


class _Poly(dict):
    """A coefficient that keeps a parameter: each monomial, the sorted positions of its
    factors (``c*c*m`` is ``(0, 0, 1)``), to its nonzero scalar.  Its arithmetic with
    scalars and polynomials returns the scalar when no parameter is left."""

    __slots__ = ()

    def __add__(self, other):
        return _polynomial([*self.items(), *_terms(other)])

    def __mul__(self, other):
        return _polynomial((tuple(sorted(m + n)), x * y) for m, x in self.items() for n, y in _terms(other))

    def __neg__(self):
        return self * -ONE

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    __radd__, __rmul__ = __add__, __mul__


def _terms(x) -> list:
    return list(x.items()) if type(x) is _Poly else [((), x)]


def _polynomial(terms):
    """The sum of (monomial, scalar) terms; a scalar when no parameter is left."""
    poly = {}
    for monomial, x in terms:
        poly[monomial] = poly[monomial] + x if monomial in poly else x
    poly = _Poly((monomial, x) for monomial, x in poly.items() if x)
    return poly if poly.keys() - {()} else poly.get((), ZERO)


def at(spec: SpecFile, point: Sequence) -> SpecFile:
    """The parameter-free file of a family at ``point``, one value per parameter."""
    if len(point) != len(spec.parameters):
        raise ValueError(f"expected {len(spec.parameters)} parameter values, got {len(point)}")

    def combination(combo: dict) -> dict[str, GaussianRational]:
        values = ((label, sum((prod((point[j] for j in m), start=x) for m, x in _terms(c)), ZERO))
                  for label, c in combo.items())
        return {label: value for label, value in values if value}

    brackets = ((pair, combination(combo)) for pair, combo in spec.brackets.items())
    isotropy = tuple(map(combination, spec.isotropy))
    return SpecFile(spec.name, spec.labels, {k: v for k, v in brackets if v}, spec.form, isotropy, spec.expected)


def degree(spec: SpecFile) -> int:
    """The largest total degree of a coefficient of ``spec``; 0 for a parameter-free file."""
    coeffs = (x for combo in (*spec.brackets.values(), *spec.isotropy) for x in combo.values())
    return max((len(m) for x in coeffs for m, _ in _terms(x)), default=0)


# -- scalar / combination expression parsing --------------------------------


class _Tokens:
    """The tokens of one value, ending with None, and the parser's place
    ``at`` among them; the descent reads ``items[at]`` and moves ``at``."""

    joins = frozenset(("*", "i", "("))  # the tokens at which a product goes on
    params: dict[str, int] = {}  # each parameter's position, in a family only

    def __init__(self, text: str, line: int, col0: int, params: dict[str, int] | None = None):
        self.text = text
        self.items = _TOKEN_RE.findall(text)
        self.items.append(None)
        self.at = 0
        self.line = line
        self.col0 = col0
        self.depth = 0
        if params:
            self.params, self.joins = params, self.joins.union(params)

    def take_int(self) -> int:
        digits = self.items[self.at]
        try:
            value = int(digits)
        except ValueError:  # too long for int(); _to_int raises, located at the literal
            value = _to_int(digits, self.line, self.col())
        self.at += 1
        return value

    def take_ident(self) -> str | None:
        """The next token if it is an identifier, else None; a letter that
        cannot start one is an error."""
        tok = self.items[self.at]
        if tok is None or not (tok[0].isalpha() or tok[0] == "_"):
            return None
        if not tok.isascii():
            # Identifier tokens are ASCII; any other letter is a token of its own.
            raise self.error("expected an identifier")
        self.at += 1
        return tok

    def col(self, at: int | None = None) -> int:
        """Column of token ``at``, by default the next one.  Only errors
        report columns, so the offsets are found here, not while parsing."""
        starts = [m.start() for m in _TOKEN_RE.finditer(self.text)]
        starts.append(len(self.text))
        return self.col0 + starts[self.at if at is None else at]

    def end(self) -> int:
        """Column just past the last token taken."""
        return self.col(self.at - 1) + len(self.items[self.at - 1])

    def error(self, reason: str, col: int | None = None) -> MalformedScalar:
        return MalformedScalar(reason, self.line, self.col() if col is None else col)


def _to_int(digits: str, line: int, col: int) -> int:
    """``int(digits)``, with the column of a literal Python refuses to convert."""
    try:
        return int(digits)
    except ValueError:
        raise MalformedScalar(
            f"cannot convert integer literal of length {len(digits)}", line, col
        ) from None


def _is_number(tok: str | None) -> bool:
    return tok is not None and tok[0].isdecimal()


def _parse_factor(tk: _Tokens) -> GaussianRational:
    tok = tk.items[tk.at]
    if tok is None:
        raise tk.error("unexpected end of scalar expression")
    if tok == "-" or tok == "(":
        if tk.depth == MAX_NESTING:
            raise tk.error(f"scalar expression nested deeper than {MAX_NESTING} levels")
        tk.depth += 1
        tk.at += 1
        if tok == "-":
            value = -_parse_factor(tk)
        else:
            value = _parse_sum(tk)
            if tk.items[tk.at] != ")":
                raise tk.error("missing closing parenthesis")
            tk.at += 1
        tk.depth -= 1
        return value
    if tok[0].isdecimal():
        numerator = tk.take_int()
        if tk.items[tk.at] != "/":
            return _make(numerator, 0, 1)
        tk.at += 1
        if not _is_number(tk.items[tk.at]):
            raise tk.error("expected a denominator")
        denominator = tk.take_int()
        if denominator == 0:
            raise tk.error("zero denominator", tk.end())
        return _make(numerator, 0, denominator)
    ident = tk.take_ident()
    if ident == "i":
        return _I
    if ident in tk.params:
        return _Poly({(tk.params[ident],): ONE})
    if ident is not None:
        raise tk.error(f"unexpected identifier {ident!r} in scalar", tk.end())
    raise tk.error(f"unexpected character {tok!r}")


def _parse_product(tk: _Tokens) -> GaussianRational:
    value = _parse_factor(tk)
    # `*`, or an implicit product: "3 i", "2 (1+i)", "3/4 i", "2 c".
    while (tok := tk.items[tk.at]) in tk.joins:
        if tok == "*":
            tk.at += 1
        value = value * _parse_factor(tk)
    return value


def _parse_sum(tk: _Tokens) -> GaussianRational:
    value = _parse_product(tk)
    while (tok := tk.items[tk.at]) in ("+", "-"):
        tk.at += 1
        if tok == "+":
            value = value + _parse_product(tk)
        else:
            value = value - _parse_product(tk)
    return value


def parse_scalar(text: str, line: int = 0, col0: int = 1) -> GaussianRational:
    """Parse a standalone scalar expression to a GaussianRational."""
    tk = _Tokens(text, line, col0)
    value = _parse_sum(tk)
    if tk.items[tk.at] is not None:
        raise tk.error("trailing input after scalar expression")
    return value


def _parse_combination(
    text: str, labels: Sequence[str], line: int, col0: int, params: dict[str, int] | None = None
) -> dict[str, GaussianRational]:
    """Parse a linear combination of labels; a bare scalar 0 is allowed.

    Each term after the first starts at its ``+`` or ``-``: anything else
    after a term is an error.
    """
    tk = _Tokens(text, line, col0, params)
    items = tk.items
    label_set = set(labels)
    combo: dict[str, GaussianRational] = {}
    saw_scalar_only = False
    while True:
        tok = items[tk.at]
        negative = tok == "-"
        if negative or tok == "+":
            tk.at += 1
            tok = items[tk.at]
        if tok == "-":
            raise tk.error("doubled sign in combination")
        has_coefficient = tok == "(" or _is_number(tok)
        coefficient = _parse_product(tk) if has_coefficient else ONE
        at = tk.at
        ident = tk.take_ident()
        if ident == "i":
            # `i` binds as a coefficient factor, e.g. "i X".
            coefficient = coefficient * _I
            at = tk.at
            ident = tk.take_ident()
            if ident is None:
                raise tk.error("expected a basis label after coefficient")
        if ident is None:
            if not has_coefficient:
                raise tk.error("expected a term")
            if coefficient:
                raise tk.error("scalar term in a combination must be zero")
            saw_scalar_only = True
        elif ident not in label_set:
            raise UndeclaredLabel(f"undeclared basis label {ident!r}", line, tk.col(at))
        else:
            if negative:
                coefficient = -coefficient
            combo[ident] = combo[ident] + coefficient if ident in combo else coefficient
        tok = items[tk.at]
        if tok is None:
            break
        if tok not in ("+", "-"):
            raise tk.error(f"unexpected character {tok[0]!r} in combination")
    if saw_scalar_only and combo:
        raise tk.error("cannot mix labels with scalar terms")
    return {label: value for label, value in combo.items() if value}


# -- file scanning -----------------------------------------------------------


def _scan_sections(text: str) -> dict[str, tuple[int, list[tuple[str, int, str, int, int]]]]:
    """Each section by name: its header's line and its (key, key col, value, value col, line) lines."""
    sections: dict[str, tuple[int, list[tuple[str, int, str, int, int]]]] = {}
    current: list[tuple[str, int, str, int, int]] | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        match = _LINE_RE.match(raw)
        before, eq = match.group(1, 2)  # the text before the first `=` or `#`, and that `=`
        head = before.lstrip()
        if not (head or eq):
            continue  # blank, or a comment only
        if head.startswith("["):
            header = raw[: match.end()].strip()
            section = _SECTION_RE.match(header)
            if section is None:
                raise DslError("malformed section header", line_no, 1)
            name = section.group(1)
            if name not in SECTION_ORDER:
                raise DslError(f"unknown section [{name}]", line_no, 1)
            if name in sections:
                raise DuplicateKey(f"section [{name}] repeated", line_no, 1)
            current = []
            sections[name] = line_no, current
            continue
        if current is None:
            raise DslError("content before the first section header", line_no, 1)
        if not eq:
            raise DslError("expected 'key = value'", line_no, 1)
        key = head.rstrip()
        if not key:
            raise DslError("empty key", line_no, 1)
        after = raw[len(before) + 1 : match.end()].rstrip()
        value = after.lstrip()
        key_col = len(before) - len(head) + 1
        value_col = len(before) + 2 + len(after) - len(value)
        current.append((key, key_col, value, value_col, line_no))
    return sections


def _pair_key(
    key: str, labels: Sequence[str], line: int, col: int
) -> tuple[str, str]:
    match = _PAIR_KEY_RE.match(key)
    if match is None:
        raise DslError(f'expected a quoted pair key like "A,B", got {key!r}', line, col)
    a, b = match.group(1), match.group(2)
    for label in (a, b):
        if label not in labels:
            raise UndeclaredLabel(f"undeclared basis label {label!r}", line, col)
    return a, b


def parse(text: str) -> SpecFile:
    """Parse `.liealg` text; every failure carries a line/column location."""
    by_name = _scan_sections(text)
    if "algebra" not in by_name:
        raise MissingSection("missing required section [algebra]", 0, 0)

    _, algebra_lines = by_name["algebra"]
    name: str | None = None
    dim: int | None = None
    labels: tuple[str, ...] | None = None
    seen: set[str] = set()
    for key, key_col, value, value_col, line_no in algebra_lines:
        if key in seen:
            raise DuplicateKey(f"key {key!r} repeated", line_no, key_col)
        seen.add(key)
        if key == "name":
            if not _IDENT_RE.fullmatch(value):
                raise DslError("name must be an identifier", line_no, value_col)
            name = value
        elif key == "dim":
            dim = int(_normalize("int", key, value, line_no, value_col))
            if dim > MAX_DIM:
                raise DslError(f"dim = {dim} exceeds the limit of {MAX_DIM}", line_no, value_col)
        elif key == "basis":
            parts = [p.strip() for p in value.split(",")]
            if any(not _IDENT_RE.fullmatch(p) or p == "i" for p in parts):
                raise DslError(
                    "basis must be comma-separated labels (and 'i' is reserved)",
                    line_no,
                    value_col,
                )
            if len(set(parts)) != len(parts):
                raise DslError("duplicate basis label", line_no, value_col)
            labels = tuple(parts)
        else:
            raise DslError(f"unknown [algebra] key {key!r}", line_no, key_col)
    if name is None or dim is None or labels is None:
        raise MissingSection(
            "[algebra] must declare name, dim and basis", by_name["algebra"][0], 1
        )
    if dim != len(labels):
        raise DslError(
            f"dim = {dim} but {len(labels)} basis labels declared",
            by_name["algebra"][0],
            1,
        )

    index = {label: k for k, label in enumerate(labels)}
    params: dict[str, int] = {}
    for key, key_col, value, value_col, line_no in by_name.get("parameters", (0, ()))[1]:
        if key != "names" or params:
            raise DslError("[parameters] holds one key, names", line_no, key_col)
        for param in (part.strip() for part in value.split(",")):
            clash = "a basis label" if param in index else "repeated" if param in params else None
            if clash or param == "i" or not _IDENT_RE.fullmatch(param):
                reason = clash or "not an identifier other than 'i'"
                raise DslError(f"parameter {param!r} is {reason}", line_no, value_col)
            params[param] = len(params)
    spec = SpecFile(name=name, labels=labels, parameters=tuple(params))

    if "brackets" in by_name:
        given = set()  # every pair given, also those with a zero value, which is not stored
        for key, key_col, value, value_col, line_no in by_name["brackets"][1]:
            a, b = _pair_key(key, labels, line_no, key_col)
            combo = _parse_combination(value, labels, line_no, value_col, params)
            if a == b and combo:
                raise DslError(f'bracket "{a},{a}" must be zero', line_no, value_col)
            if index[a] > index[b]:
                a, b = b, a
                combo = {label: -v for label, v in combo.items()}
            if (a, b) in given:
                raise DuplicateKey(
                    f'bracket "{a},{b}" specified twice', line_no, key_col
                )
            given.add((a, b))
            if combo:
                spec.brackets[(a, b)] = combo

    if "form" in by_name:
        spec.form, given = {}, set()
        for key, key_col, value, value_col, line_no in by_name["form"][1]:
            a, b = _pair_key(key, labels, line_no, key_col)
            if index[a] > index[b]:
                a, b = b, a
            if (a, b) in given:
                raise DuplicateKey(f'form entry "{a},{b}" given twice', line_no, key_col)
            given.add((a, b))
            scalar = parse_scalar(value, line_no, value_col)
            if scalar:
                spec.form[(a, b)] = scalar

    if "isotropy" in by_name:
        generators: list[dict[str, GaussianRational]] = []
        seen_keys: set[str] = set()
        for key, key_col, value, value_col, line_no in by_name["isotropy"][1]:
            if not re.fullmatch(r"gen\d*", key):
                raise DslError(
                    f"isotropy keys are gen, gen1, gen2, ...; got {key!r}",
                    line_no,
                    key_col,
                )
            if key in seen_keys:
                raise DuplicateKey(f"key {key!r} repeated", line_no, key_col)
            seen_keys.add(key)
            combo = _parse_combination(value, labels, line_no, value_col, params)
            if not combo:
                raise DslError("isotropy generator must be nonzero", line_no, value_col)
            generators.append(combo)
        if not generators:
            raise DslError("[isotropy] declares no generator", by_name["isotropy"][0], 1)
        spec.isotropy = tuple(generators)

    if "expected" in by_name:
        for key, key_col, value, value_col, line_no in by_name["expected"][1]:
            if key in spec.expected:
                raise DuplicateKey(f"key {key!r} repeated", line_no, key_col)
            spec.expected[key] = _normalize(EXPECTED_KINDS.get(key), key, value, line_no, value_col)

    return spec


def _normalize(kind: str | None, key: str, value: str, line: int, col: int) -> str:
    if kind == "bool":
        lowered = value.lower()
        if lowered not in ("true", "false"):
            raise DslError(f"{key} must be true or false", line, col)
        return lowered
    if kind == "int":
        if not value.isdecimal():
            raise DslError(f"{key} must be a nonnegative integer", line, col)
        return str(_to_int(value, line, col))
    if kind == "int list":
        parts = [p.strip() for p in value.split(",")]
        if any(not p.isdecimal() for p in parts):
            raise DslError(f"{key} must be a comma list of integers", line, col)
        return ",".join(str(_to_int(p, line, col)) for p in parts)
    if kind == "tag":
        return value.upper()
    if kind == "constant":
        if value.lower() == "none":
            return "none"
        return str(parse_scalar(value, line, col))
    return value


# -- serialization -----------------------------------------------------------


def format_combination(
    labels: Sequence[str], combo: dict[str, GaussianRational], parameters: Sequence[str] = ()
) -> str:
    """Canonical rendering of a linear combination, basis order first; a coefficient
    polynomial in ``parameters`` stands in parentheses."""
    ordered = [
        (label, combo[label]) for label in labels if label in combo and combo[label]
    ]
    return _sum_text(ordered, "- ", parameters) if ordered else "0"


def _sum_text(terms: list[tuple[str, object]], lead: str, parameters: Sequence[str]) -> str:
    """The terms (name, coefficient), joined by their signs; ``lead`` is a first term's minus,
    and the name "" is a constant term of a polynomial."""
    parts: list[str] = []
    for position, (label, coeff) in enumerate(terms):
        if type(coeff) is _Poly:
            monomials = sorted(coeff, key=lambda m: (len(m), m))
            named = [("*".join(parameters[j] for j in m), coeff[m]) for m in monomials]
            parts.append(f"{'+ ' if position else ''}({_sum_text(named, '-', ())}) {label}")
            continue
        # A real or imaginary sign joins the terms; a mixed one stays in parentheses.
        a, b, d = coeff._a, coeff._b, coeff._d
        negative = b < 0 if not a else a < 0 and not b
        if negative:
            a, b = -a, -b
        if d == 1 and (a, b) == (1, 0) and label:
            body = label
        elif d == 1 and (a, b) == (0, 1) and label:
            body = f"i {label}"
        else:
            text = _render(a, b, d)
            body = (f"({text}) {label}" if a and b else f"{text} {label}").rstrip()
        sign = ("- " if position else lead) if negative else "+ " if position else ""
        parts.append(sign + body)
    return " ".join(parts)


def serialize(spec: SpecFile) -> str:
    """Canonical text: fixed section order, lexicographic keys, lowest terms."""
    lines = ["[algebra]"]
    lines.append(f"name = {spec.name}")
    lines.append(f"dim = {len(spec.labels)}")
    lines.append(f"basis = {', '.join(spec.labels)}")

    if spec.parameters:
        lines += ["", "[parameters]", f"names = {', '.join(spec.parameters)}"]

    if spec.brackets:
        lines.append("")
        lines.append("[brackets]")
        for a, b in sorted(spec.brackets):
            rendered = format_combination(spec.labels, spec.brackets[(a, b)], spec.parameters)
            lines.append(f'"{a},{b}" = {rendered}')

    if spec.form is not None:
        lines.append("")
        lines.append("[form]")
        for a, b in sorted(spec.form):
            lines.append(f'"{a},{b}" = {spec.form[(a, b)]}')

    if spec.isotropy:
        lines.append("")
        lines.append("[isotropy]")
        keys = ["gen"] if len(spec.isotropy) == 1 else [f"gen{k}" for k in range(1, len(spec.isotropy) + 1)]
        for key, combo in zip(keys, spec.isotropy):
            lines.append(f"{key} = {format_combination(spec.labels, combo, spec.parameters)}")

    if spec.expected:
        lines.append("")
        lines.append("[expected]")
        for key in sorted(spec.expected):
            lines.append(f"{key} = {spec.expected[key]}")

    return "\n".join(lines) + "\n"
