"""Seeded inputs and construction references for the holriem benchmark.

Nothing here imports holriem.  The inputs are built with this module's own
Q(i) arithmetic (``GR``, two Fractions) and written by its own `.liealg`
writer, so a change under ``src/`` cannot change them.  Every expected
output comes from how the input was built:

* metric-files: orthogonal sums of catalog metrics pushed through an exact
  basis change.  The connection follows from the Koszul formula, the
  curvature is the sl(2) blocks' ``-1/8 (q(y,z)x - q(x,z)y)`` and zero on
  the flat blocks, so ``constcurv`` is ``Constant(0)`` when every summand
  is flat, ``Constant(-1/8)`` for sl(2) alone and ``NotConstant`` else.
* structure: conjugates of catalog algebras and models, whose invariants
  are basis-free facts of the source algebra.  A perturbed file must fail
  ``validate`` at the first triple this module's Jacobi scan finds.
* verify-paper: every check passes and the headline curvature values are
  the paper's.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction
from math import gcd

WORKLOADS = ("verify-paper", "metric-files", "structure")


# -- Q(i) arithmetic ----------------------------------------------------------


class GR:
    """Exact Gaussian rational ``(a + b*i) / d`` in lowest terms, ``d > 0``.

    Plain integers rather than two Fractions: generating a structure
    workload does millions of these operations.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        self.a, self.b, self.d = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d

    @classmethod
    def _of(cls, a, b, d):
        g = gcd(a, b, d)
        out = object.__new__(cls)
        out.a, out.b, out.d = (a, b, d) if g == 1 else (a // g, b // g, d // g)
        return out

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __add__(self, o):
        if self.d == o.d:
            return GR._of(self.a + o.a, self.b + o.b, self.d)
        return GR._of(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d, self.d * o.d)

    def __sub__(self, o):
        return self + -o

    def __neg__(self):
        return GR._of(-self.a, -self.b, self.d)

    def __mul__(self, o):
        return GR._of(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a, self.d * o.d)

    def __truediv__(self, o):
        n = o.a * o.a + o.b * o.b
        return self * GR._of(o.a * o.d, -o.b * o.d, n)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, o):
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))


ZERO, ONE, I = GR(0), GR(1), GR(0, 1)


def identity(n):
    return [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]


def matmul(a, b):
    inner, cols = len(b), len(b[0])
    out = []
    for row in a:
        acc = [ZERO] * cols
        for k in range(inner):
            if row[k]:
                for c, v in enumerate(b[k]):
                    if v:
                        acc[c] = acc[c] + row[k] * v
        out.append(acc)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def inverse(a):
    """Gauss-Jordan inverse; raises ZeroDivisionError when singular."""
    n = len(a)
    work = [list(row) + identity(n)[r] for r, row in enumerate(a)]
    for c in range(n):
        p = next((r for r in range(c, n) if work[r][c]), None)
        if p is None:
            raise ZeroDivisionError("singular matrix")
        work[c], work[p] = work[p], work[c]
        scale = ONE / work[c][c]
        work[c] = [v * scale if v else v for v in work[c]]
        for r in range(n):
            if r != c and work[r][c]:
                f = work[r][c]
                work[r] = [x - f * y if y else x for x, y in zip(work[r], work[c])]
    return [row[n:] for row in work]


def apply(m, v):
    return [sum((m[r][k] * v[k] for k in range(len(v)) if m[r][k] and v[k]), ZERO) for r in range(len(m))]


# -- Lie algebras as dense structure constants --------------------------------


class Algebra:
    """``consts[i][j][k]`` is the coefficient of e_k in [e_i, e_j]."""

    def __init__(self, n):
        self.n = n
        self.consts = [[[ZERO] * n for _ in range(n)] for _ in range(n)]

    def set(self, i, j, k, value):
        self.consts[i][j][k] = value
        self.consts[j][i][k] = -value

    def bracket(self, u, v):
        n = self.n
        out = [ZERO] * n
        for a in range(n):
            if not u[a]:
                continue
            for b in range(n):
                if not v[b] or a == b:
                    continue
                coeff = u[a] * v[b]
                for k, c in enumerate(self.consts[a][b]):
                    if c:
                        out[k] = out[k] + coeff * c
        return out

    def conjugate(self, p, p_inv):
        """Constants in the basis given by the columns of p: P^-1 [P e_i, P e_j]."""
        n = self.n
        cols = transpose(p)
        out = Algebra(n)
        for i in range(n):
            for j in range(i + 1, n):
                image = apply(p_inv, self.bracket(cols[i], cols[j]))
                for k in range(n):
                    out.set(i, j, k, image[k])
        return out

    def jacobi_witness(self):
        """First triple i<j<k with [[ei,ej],ek] + cyclic != 0, or None."""
        n = self.n
        basis = identity(n)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    terms = (
                        self.bracket(self.consts[i][j], basis[k]),
                        self.bracket(self.consts[j][k], basis[i]),
                        self.bracket(self.consts[k][i], basis[j]),
                    )
                    if any(a + b + c for a, b, c in zip(*terms)):
                        return (i, j, k)
        return None


def _block(labels, brackets):
    """Dense algebra from a sparse table over labels."""
    index = {name: k for k, name in enumerate(labels)}
    alg = Algebra(len(labels))
    for (a, b), combo in brackets.items():
        for c, coeff in combo.items():
            alg.set(index[a], index[b], index[c], GR(coeff))
    return alg


def _gram(labels, entries):
    index = {name: k for k, name in enumerate(labels)}
    n = len(labels)
    g = [[ZERO] * n for _ in range(n)]
    for (a, b), value in entries.items():
        g[index[a]][index[b]] = g[index[b]][index[a]] = GR(value)
    return g


# -- the catalog, written out independently of holriem -------------------------

# name: (basis, brackets, form).  Flat metrics stay flat under scaling.
METRICS3 = {
    "flat_c3": (("X", "Y", "Z"), {}, {("X", "X"): 1, ("Y", "Y"): 1, ("Z", "Z"): 1}),
    "heis3": (("X", "Y", "Z"), {("Y", "Z"): {"X": 1}}, {("X", "Z"): 1, ("Y", "Y"): 1}),
    "sol3": (
        ("Y", "Z", "T"),
        {("Y", "Z"): {"Z": 1}, ("Y", "T"): {"T": -1}},
        {("Y", "Y"): 1, ("Z", "T"): 1},
    ),
    "sl2": (
        ("H", "E", "F"),
        {("H", "E"): {"E": 2}, ("H", "F"): {"F": -2}, ("E", "F"): {"H": 1}},
        {("H", "H"): 8, ("E", "F"): 4},
    ),
}
ABELIAN1 = (("W",), {}, {("W", "W"): 1})
FLAT3 = ("flat_c3", "heis3", "sol3")
SL2_CURVATURE = GR(Fraction(-1, 8))

# Basis-free facts of each source algebra, as `holriem invariants` and
# `classify` print them.
FACTS3 = {
    "flat_c3": dict(cls="ABELIAN_C3", unimodular="true", solvable="true", nilpotent="true", center_dim="3", derived_dims="3,0"),
    "heis3": dict(cls="HEIS", unimodular="true", solvable="true", nilpotent="true", center_dim="1", derived_dims="3,1,0"),
    "sol3": dict(cls="SOL", unimodular="true", solvable="true", nilpotent="false", center_dim="0", derived_dims="3,2,0"),
    "sl2": dict(cls="SL2", unimodular="true", solvable="false", nilpotent="false", center_dim="0", derived_dims="3,3"),
}

_SL2_4 = {("H", "E"): {"E": 2}, ("H", "F"): {"F": -2}, ("E", "F"): {"H": 1}}
_SOL_4 = {("Y", "Z"): {"Z": 1}, ("Y", "T"): {"T": -1}}
_SEMISIMPLE_Q = {("X", "X"): 1, ("Z", "T"): 1}
_UNIPOTENT_Q = {("X", "T"): 1, ("Z", "Z"): 1}

# name: (basis, brackets, isotropy, complement, quotient form, facts)
MODELS4 = {
    "c_oplus_sl2": (
        ("H", "E", "F", "W"), _SL2_4, {"W": 1, "H": 1}, ("H", "E", "F"),
        {("H", "H"): 2, ("E", "F"): 1},
        dict(isotropy="SEMISIMPLE", unimodular="true", solvable="false", nilpotent="false", center_dim="1", derived_dims="4,3,3"),
    ),
    "c_times_sl2": (
        ("W", "H", "E", "F"), _SL2_4, {"H": 1}, ("W", "E", "F"),
        {("W", "W"): 1, ("E", "F"): 1},
        dict(isotropy="SEMISIMPLE", unimodular="true", solvable="false", nilpotent="false", center_dim="1", derived_dims="4,3,3"),
    ),
    "c_times_sol": (
        ("X", "Y", "Z", "T"), _SOL_4, {"Y": 1}, ("X", "Z", "T"), _SEMISIMPLE_Q,
        dict(isotropy="SEMISIMPLE", unimodular="true", solvable="true", nilpotent="false", center_dim="1", derived_dims="4,2,0"),
    ),
    "c_ltimes_heis": (
        ("X", "Y", "Z", "T"), {**_SOL_4, ("T", "Z"): {"X": 1}}, {"Y": 1}, ("X", "Z", "T"), _SEMISIMPLE_Q,
        dict(isotropy="SEMISIMPLE", unimodular="true", solvable="true", nilpotent="false", center_dim="1", derived_dims="4,3,1,0"),
    ),
    "c2_semidirect_c2": (
        ("X", "Y", "Z", "T"), {**_SOL_4, ("T", "X"): {"T": 1}}, {"Y": 1}, ("X", "Z", "T"), _SEMISIMPLE_Q,
        dict(isotropy="SEMISIMPLE", unimodular="false", solvable="true", nilpotent="false", center_dim="0", derived_dims="4,2,0"),
    ),
    # The stabilizer family [Y,Z]=X, [T,X]=cX, [T,Z]=mX+(c+b)Z+kY,
    # [T,Y]=Z-bY at (c,m,k,b) = 0 and (1, 1/2, -1, 3).
    "heis_stab_zero": (
        ("X", "Y", "Z", "T"), {("Y", "Z"): {"X": 1}, ("T", "Y"): {"Z": 1}}, {"Y": 1}, ("X", "Z", "T"), _UNIPOTENT_Q,
        dict(isotropy="UNIPOTENT", unimodular="true", solvable="true", nilpotent="true", center_dim="1", derived_dims="4,2,0"),
    ),
    "heis_stab_generic": (
        ("X", "Y", "Z", "T"),
        {
            ("Y", "Z"): {"X": 1},
            ("T", "X"): {"X": 1},
            ("T", "Z"): {"X": Fraction(1, 2), "Z": 4, "Y": -1},
            ("T", "Y"): {"Z": 1, "Y": -3},
        },
        {"Y": 1}, ("X", "Z", "T"), _UNIPOTENT_Q,
        dict(isotropy="UNIPOTENT", unimodular="false", solvable="true", nilpotent="false", center_dim="0", derived_dims="4,3,1,0"),
    ),
}
MODEL_COMMON = dict(invariance="true", invariant_form_dim="2")


# -- text: this module's own writer and a renderer matching the CLI's ----------


def scalar_text(x: GR) -> str:
    """How `holriem` prints a Gaussian rational (e.g. ``-1/2 + 3 i``)."""
    if x.im == 0:
        return str(x.re)
    imag = "i" if abs(x.im) == 1 else f"{abs(x.im)} i"
    if x.re == 0:
        return imag if x.im > 0 else f"-{imag}"
    return f"{x.re} {'+' if x.im > 0 else '-'} {imag}"


def combo_text(labels, vec) -> str:
    """How `holriem` prints a linear combination of basis labels."""
    parts = []
    for label, c in zip(labels, vec):
        if not c:
            continue
        if c.im == 0:
            sign, mag = (1, c) if c.re > 0 else (-1, -c)
        elif c.re == 0:
            sign, mag = (1, c) if c.im > 0 else (-1, -c)
        else:
            sign, mag = 1, c
        if mag == ONE:
            body = label
        elif mag == I:
            body = f"i {label}"
        elif mag.re and mag.im:
            body = f"({scalar_text(mag)}) {label}"
        else:
            body = f"{scalar_text(mag)} {label}"
        if parts:
            parts.append(f"+ {body}" if sign > 0 else f"- {body}")
        else:
            parts.append(body if sign > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def _input_scalar(x: GR) -> str:
    if x.im == 0:
        return str(x.re)
    if x.re == 0:
        return f"{x.im} i"
    return f"{x.re} {'+' if x.im > 0 else '-'} {abs(x.im)} i"


def _input_combo(labels, vec) -> str:
    return " + ".join(f"({_input_scalar(c)}) {label}" for label, c in zip(labels, vec) if c)


def write_liealg(name, labels, alg, form_labels=(), form=None, isotropy=None) -> str:
    """`.liealg` text; ``form`` is a Gram matrix over ``form_labels``."""
    lines = ["[algebra]", f"name = {name}", f"dim = {alg.n}", f"basis = {', '.join(labels)}", "", "[brackets]"]
    for i in range(alg.n):
        for j in range(i + 1, alg.n):
            if any(alg.consts[i][j]):
                lines.append(f'"{labels[i]},{labels[j]}" = {_input_combo(labels, alg.consts[i][j])}')
    if form is not None:
        lines += ["", "[form]"]
        for a in range(len(form)):
            for b in range(a, len(form)):
                if form[a][b]:
                    lines.append(f'"{form_labels[a]},{form_labels[b]}" = {_input_scalar(form[a][b])}')
    if isotropy is not None:
        lines += ["", "[isotropy]", f"gen = {_input_combo(labels, isotropy)}"]
    return "\n".join(lines) + "\n"


def max_bits(text: str) -> int:
    """Largest bit length of a coefficient's numerator or denominator in a
    `.liealg` text (labels such as ``e9`` and the [algebra] section aside)."""
    body = text.split("[brackets]", 1)[1]
    return max((int(tok).bit_length() for tok in re.findall(r"(?<!\w)\d+", body)), default=0)


# -- seeded basis changes -----------------------------------------------------


UNITS = (ONE, -ONE, I, -I)


def _small_gaussian(rng):
    while True:
        value = GR(rng.randint(-2, 2), rng.randint(-1, 1))
        if value:
            return value


def basis_change(rng, n, extra, entries=None, layout=None):
    """Sparse invertible P: a permuted, unit-scaled unit triangle with
    ``extra`` off-diagonal entries drawn from ``entries`` (default: small
    Gaussian integers).  ``layout``, when given, places the entries instead
    of ``rng``."""
    upper = identity(n)
    for _ in range(extra):
        i, j = sorted((layout or rng).sample(range(n), 2))
        upper[i][j] = rng.choice(entries) if entries else _small_gaussian(rng)
    scales = [rng.choice(UNITS) for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    p = [[upper[r][order[c]] * scales[c] for c in range(n)] for r in range(n)]
    return p, inverse(p)


def _labels(n):
    return tuple(f"e{k + 1}" for k in range(n))


# -- metric-files ----------------------------------------------------------------


def _summand(name, rng, layout):
    labels, brackets, form = ABELIAN1 if name == "ab1" else METRICS3[name]
    scale = ONE if name == "sl2" else rng.choice(UNITS) * layout.choice((ONE,) * 4 + (GR(2),))
    return labels, brackets, form, scale, name == "sl2"


def _orthogonal_sum(summands):
    """Block-diagonal algebra and Gram matrix, plus the sl(2) index blocks."""
    n = sum(len(s[0]) for s in summands)
    alg, gram, sl2_blocks, offset = Algebra(n), [[ZERO] * n for _ in range(n)], [], 0
    for labels, brackets, form, scale, is_sl2 in summands:
        block, g, m = _block(labels, brackets), _gram(labels, form), len(labels)
        for i in range(m):
            for j in range(m):
                gram[offset + i][offset + j] = g[i][j] * scale
                for k in range(m):
                    alg.consts[offset + i][offset + j][offset + k] = block.consts[i][j][k]
        if is_sl2:
            sl2_blocks.append(range(offset, offset + m))
        offset += m
    return alg, gram, sl2_blocks


def congruence(p, gram):
    return matmul(matmul(transpose(p), gram), p)


def koszul_connection(alg, gram):
    """``gamma[i][j]`` = nabla_{e_i} e_j from the closed Koszul formula.

    With c_ijk = q([e_i,e_j], e_k): q(nabla_i e_j, e_k) = (c_ijk - c_jki + c_kij)/2.
    """
    n, half = alg.n, GR(Fraction(1, 2))
    low = [[apply(gram, alg.consts[i][j]) for j in range(n)] for i in range(n)]
    gram_inv = inverse(gram)
    return [
        [
            apply(gram_inv, [(low[i][j][k] - low[j][k][i] + low[k][i][j]) * half for k in range(n)])
            for j in range(n)
        ]
        for i in range(n)
    ]


def sum_curvature(p, p_inv, gram, sl2_blocks):
    """``R[i][j][k]`` = R(e'_i, e'_j) e'_k for the sum in the basis P.

    Flat blocks contribute nothing; on an sl(2) block b with its Killing
    form, R(x,y)z = -1/8 (q_b(y,z) x_b - q_b(x,z) y_b), x_b the projection.
    """
    n = len(p)
    cols = transpose(p)
    r = [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for block in sl2_blocks:
        proj = [[c if row in block else ZERO for row, c in enumerate(col)] for col in cols]
        q_b = [[sum((proj[a][s] * gram[s][t] * proj[b][t] for s in block for t in block), ZERO) for b in range(n)] for a in range(n)]
        new = [apply(p_inv, v) for v in proj]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if not (q_b[j][k] or q_b[i][k]):
                        continue
                    r[i][j][k] = [
                        acc + SL2_CURVATURE * (q_b[j][k] * x - q_b[i][k] * y)
                        for acc, x, y in zip(r[i][j][k], new[i], new[j])
                    ]
    return r


# Orthogonal sums by total dimension: 3-dim summands and 1-dim abelian ones.
SHAPES = {3: (3,), 4: (3, 1), 5: (3, 1, 1), 6: (3, 3), 7: (3, 3, 1), 8: (3, 3, 1, 1), 9: (3, 3, 3)}
METRIC_COMMANDS = ("connection", "curvature", "constcurv", "validate")


def _metric_file(rng, index, dim, with_sl2):
    # The slot alone fixes the summands, their order, the size of their
    # scalings and where the basis change has entries, so every seed times
    # the same op costs and the median op does not move between seeds; the
    # seed picks the unit factors and the order of the new basis.
    layout = random.Random(f"metric-files/slot/{index}")
    names = []
    for slot, size in enumerate(SHAPES[dim]):
        if size == 1:
            names.append("ab1")
        elif slot == 0 and with_sl2:
            names.append("sl2")
        else:
            names.append(FLAT3[(index + slot) % len(FLAT3)])
    layout.shuffle(names)
    alg, gram, sl2_blocks = _orthogonal_sum([_summand(name, rng, layout) for name in names])
    p, p_inv = basis_change(rng, dim, extra=dim // 2 + 1, entries=UNITS, layout=layout)
    new, new_gram = alg.conjugate(p, p_inv), congruence(p, gram)
    labels = _labels(dim)
    gamma = koszul_connection(new, new_gram)
    tensor = sum_curvature(p, p_inv, gram, sl2_blocks)
    first = next(
        ((i, j, k) for i in range(dim) for j in range(dim) for k in range(dim) if any(tensor[i][j][k])),
        None,
    )
    if not sl2_blocks:
        constcurv = "Constant(0)"
    elif names == ["sl2"]:
        constcurv = f"Constant({scalar_text(SL2_CURVATURE)})"
    else:
        constcurv = "NotConstant  witness=triple=({})".format(",".join(labels[t] for t in first))
    outputs = {
        "connection": [
            f"nabla({labels[i]},{labels[j]}) = {combo_text(labels, gamma[i][j])}"
            for i in range(dim)
            for j in range(dim)
        ],
        "curvature": [
            f"R({labels[i]},{labels[j]}){labels[k]} = {combo_text(labels, tensor[i][j][k])}"
            for i in range(dim)
            for j in range(i + 1, dim)
            for k in range(dim)
        ],
        "constcurv": [constcurv],
        "validate": ["PASS jacobi", "PASS form_nondegenerate"],
    }
    name = f"m{index:02d}_{'_'.join(names)}"
    text = write_liealg(f"m{index}", labels, new, labels, new_gram)
    return name, text, outputs


def metric_files(seed):
    """14 metric files, dims 3-9 with and without sl(2), each queried by four commands."""
    rng = random.Random(f"metric-files/{seed}")
    # A fixed order that alternates large and small dims, so any stretch of
    # a run sees about the same mix whatever the seed.
    dims = (9, 3, 8, 4, 7, 5, 6) * 2
    specs = [(dim, index % 2 == 0) for index, dim in enumerate(dims)]
    files, ops = {}, []
    for index, (dim, with_sl2) in enumerate(specs):
        name, text, outputs = _metric_file(rng, index, dim, with_sl2)
        files[name] = text
        for cmd in METRIC_COMMANDS:
            ops.append(_file_op(cmd, name, 0, outputs[cmd], dim, False))
    return _workload(
        "metric-files", ops, files, round_len=len(ops), warmup=len(METRIC_COMMANDS), trace_len=len(ops), wrap=True
    )


def _file_op(cmd, name, rc, lines, dim, broken):
    return {"cmd": cmd, "file": name, "rc": rc, "stdout": "".join(f"{line}\n" for line in lines), "dim": dim, "broken": broken}


# -- structure -----------------------------------------------------------------


def rank(vectors):
    rows = [list(v) for v in vectors]
    found = 0
    for c in range(len(rows[0]) if rows else 0):
        p = next((r for r in range(found, len(rows)) if rows[r][c]), None)
        if p is None:
            continue
        rows[found], rows[p] = rows[p], rows[found]
        for r in range(found + 1, len(rows)):
            if rows[r][c]:
                f = rows[r][c] / rows[found][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[found])]
        found += 1
    return found


def _conjugate_metric3(rng, source):
    labels, brackets, form = METRICS3[source]
    p, p_inv = basis_change(rng, 3, extra=3)
    alg = _block(labels, brackets).conjugate(p, p_inv)
    gram = congruence(p, _gram(labels, form))
    return alg, lambda new_labels, a: write_liealg(f"s_{source}", new_labels, a, new_labels, gram)


def _conjugate_model4(rng, source):
    """Conjugate a model; the quotient form moves to the greedy complement.

    A new complement vector e'_a is column a of P; its class modulo the
    isotropy has old complement coordinates from T^-1 P e'_a, with T the
    old (isotropy | complement) basis.
    """
    labels, brackets, iso, complement, qform = MODELS4[source][:5]
    index = {name: k for k, name in enumerate(labels)}
    n = len(labels)
    old_iso = [GR(iso.get(name, 0)) for name in labels]
    transition = transpose([old_iso] + [identity(n)[index[name]] for name in complement])
    t_inv = inverse(transition)
    p, p_inv = basis_change(rng, n, extra=n)
    alg = _block(labels, brackets).conjugate(p, p_inv)
    new_iso = apply(p_inv, old_iso)
    chosen, span = [], [new_iso]
    for a in range(n):
        if len(chosen) < n - 1 and rank(span + [identity(n)[a]]) > len(span):
            span.append(identity(n)[a])
            chosen.append(a)
    cols = transpose(p)
    b = transpose([apply(t_inv, cols[a])[1:] for a in chosen])
    gram = congruence(b, _gram(complement, qform))

    def text(new_labels, a):
        return write_liealg(f"s_{source}", new_labels, a, [new_labels[k] for k in chosen], gram, new_iso)

    return alg, text


def _perturb(rng, alg):
    """Shift structure constants until the scan finds a Jacobi violation.

    One shift can keep Jacobi (a single bracket on an abelian algebra), so
    shifts accumulate.
    """
    n = alg.n
    out = Algebra(n)
    out.consts = [[list(v) for v in row] for row in alg.consts]
    while True:
        i, j = sorted(rng.sample(range(n), 2))
        k = rng.randrange(n)
        out.set(i, j, k, out.consts[i][j][k] + _small_gaussian(rng))
        witness = out.jacobi_witness()
        if witness is not None:
            return out, witness


STRUCTURE_SLOTS = [(s, c) for s in METRICS3 for c in ("validate", "invariants", "classify")] + [
    (s, c) for s in MODELS4 for c in ("validate", "invariants", "model")
]


STRUCTURE_ROUND = 110


def structure(seed, size=70 * STRUCTURE_ROUND):
    """``size`` distinct files, one command each; every tenth is perturbed.

    Each aligned block of 110 files holds every slot of STRUCTURE_SLOTS
    three times and one perturbed file of each source, in seeded order, so
    every timed round asks for the same mix of work.
    """
    rng = random.Random(f"structure/{seed}")
    files, ops, cycle, broken_cycle = {}, [], [], []
    for index in range(size):
        broken = index % 10 == 9
        if broken:
            if not broken_cycle:
                broken_cycle = list(METRICS3) + list(MODELS4)
                rng.shuffle(broken_cycle)
            source, cmd = broken_cycle.pop(), "validate"
        else:
            if not cycle:
                cycle = list(STRUCTURE_SLOTS)
                rng.shuffle(cycle)
            source, cmd = cycle.pop()
        alg, render = (_conjugate_metric3 if source in METRICS3 else _conjugate_model4)(rng, source)
        labels = _labels(alg.n)
        rc, lines = 0, _structure_lines(source, cmd)
        if broken:
            alg, witness = _perturb(rng, alg)
            rc, lines = 1, ["FAIL jacobi  witness=triple=({})".format(",".join(labels[t] for t in witness)), lines[1]]
        name = f"s{index:04d}_{source}"
        files[name] = render(labels, alg)
        ops.append(_file_op(cmd, name, rc, lines, alg.n, broken))
    return _workload(
        "structure", ops, files, round_len=STRUCTURE_ROUND, warmup=STRUCTURE_ROUND, trace_len=STRUCTURE_ROUND, wrap=False
    )


def _structure_lines(source, cmd):
    facts = FACTS3[source] if source in FACTS3 else {**MODELS4[source][5], **MODEL_COMMON}
    if cmd == "validate":
        return ["PASS jacobi", "PASS form_nondegenerate"]
    if cmd == "invariants":
        return [f"{key}: {facts[key]}" for key in ("unimodular", "solvable", "nilpotent", "center_dim", "derived_dims")]
    if cmd == "classify":
        return [facts["cls"]]
    return [f"{key}: {facts[key]}" for key in ("isotropy", "invariance", "invariant_form_dim")]


# -- verify-paper ----------------------------------------------------------------

# The paper's headline curvature values, by report check id.
HEADLINE = {
    "unimodular3/flat_c3": "Constant(0)",
    "unimodular3/heis3": "Constant(0)",
    "unimodular3/sol3": "Constant(0)",
    "unimodular3/sl2": "Constant(-1/8)",
    "semisimple4/killing_proportional_constant": "Constant(-1/2)",
}


def verify_paper(seed, size=1000):
    rng = random.Random(f"verify-paper/{seed}")
    ops = [{"seed": rng.randrange(2**31), "dim": None, "broken": False} for _ in range(size)]
    return _workload("verify-paper", ops, {}, round_len=5, warmup=1, trace_len=1, wrap=False)


def check_report(text, seed):
    """None when a `verify-paper --json` report is right, else the first mismatch."""
    payload = json.loads(text)
    if payload["seed"] != seed:
        return f"report seed {payload['seed']} != {seed}"
    checks = payload["checks"]
    for check in checks:
        if check["status"] != "pass":
            return f"{check['id']} failed: {check['witness']}"
    if payload["summary"] != {"pass": len(checks), "fail": 0}:
        return f"summary {payload['summary']} for {len(checks)} checks"
    values = {check["id"]: check["value"] for check in checks}
    for check_id, want in HEADLINE.items():
        if values.get(check_id) != want:
            return f"{check_id}: expected {want}, got {values.get(check_id)}"
    return None


# -- workloads -------------------------------------------------------------------


def _workload(name, ops, files, round_len, warmup, trace_len, wrap):
    """The ops with their inputs' digest and properties.

    A timed run does ``warmup`` ops, then whole rounds of ``round_len`` ops,
    starting over at the first op when ``wrap`` and else stopping when the
    ops run out; a traced run does the first ``trace_len`` ops.
    """
    digest = hashlib.sha256()
    seen, repeated, dims = set(), 0, {}
    for op in ops:
        key = op.get("file", op.get("seed"))
        repeated += key in seen
        seen.add(key)
        dims[op["dim"]] = dims.get(op["dim"], 0) + 1
        if "file" in op:
            digest.update(f"{op['cmd']} {op['file']}\n{files[op['file']]}".encode())
        else:
            digest.update(f"verify-paper --seed {op['seed']}\n".encode())
    properties = {
        "ops": len(ops),
        "ops_per_round": round_len,
        "dims": {str(k): v for k, v in sorted(dims.items(), key=lambda kv: kv[0] or 0)},
        "repeated_share": repeated / len(ops),
        "broken_share": sum(op["broken"] for op in ops) / len(ops),
        "max_coeff_bits": max((max_bits(t) for t in files.values()), default=None),
    }
    return {
        "name": name,
        "ops": ops,
        "files": files,
        "round_len": round_len,
        "warmup": warmup,
        "trace_len": trace_len,
        "wrap": wrap,
        "sha256": digest.hexdigest(),
        "properties": properties,
    }


def build(name, seed):
    return {"verify-paper": verify_paper, "metric-files": metric_files, "structure": structure}[name](seed)
