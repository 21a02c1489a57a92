"""Command-line interface contract: output shapes and exit codes."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holriem
import holriem.paper
from holriem.catalog import CheckResult, VerifyReport, report_to_json, verify_all
from holriem.cli import _build_parser, _print_records, _two_word_args, cli
from holriem.dsl import MAX_DIM, MAX_NESTING

DATA = "src/holriem/data"


def test_classify(capsys):
    assert cli(["classify", f"{DATA}/sol3.liealg"]) == 0
    assert capsys.readouterr().out.strip() == "SOL"


def test_classify_json(capsys):
    assert cli(["classify", f"{DATA}/heis3.liealg", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [
        {"id": "classify", "status": "pass", "witness": None, "value": "HEIS"}
    ]


def test_classify_non_unimodular_fails(tmp_path, capsys):
    path = tmp_path / "affine.liealg"
    path.write_text(
        "[algebra]\nname = affine\ndim = 3\nbasis = Y, Z, T\n\n"
        '[brackets]\n"Y,Z" = Z\n'
    )
    assert cli(["classify", str(path)]) == 1
    assert "unimodular" in capsys.readouterr().err


def test_constcurv(capsys):
    assert cli(["constcurv", f"{DATA}/heis3.liealg"]) == 0
    assert capsys.readouterr().out.strip() == "Constant(0)"
    assert cli(["constcurv", f"{DATA}/sl2.liealg"]) == 0
    assert capsys.readouterr().out.strip() == "Constant(-1/8)"


def test_constcurv_not_constant(tmp_path, capsys):
    path = tmp_path / "heis_diag.liealg"
    path.write_text(
        "[algebra]\nname = heis_diag\ndim = 3\nbasis = X, Y, Z\n\n"
        '[brackets]\n"Y,Z" = X\n\n'
        '[form]\n"X,X" = 1\n"Y,Y" = 1\n"Z,Z" = 1\n'
    )
    assert cli(["constcurv", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "NotConstant  witness=triple=(X,Y,X)\n"
    assert cli(["constcurv", str(path), "--quiet"]) == 0
    assert capsys.readouterr().out == out
    assert cli(["constcurv", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [
        {
            "id": "constcurv",
            "status": "pass",
            "witness": out.split("witness=")[1].strip(),
            "value": "NotConstant",
        }
    ]


def test_constcurv_one_dimensional_metric_is_flat(tmp_path, capsys):
    # No plane exists in dimension 1; the curvature vanishes identically.
    path = tmp_path / "line.liealg"
    path.write_text('[algebra]\nname = line\ndim = 1\nbasis = X\n\n[form]\n"X,X" = 1\n')
    assert cli(["constcurv", str(path)]) == 0
    assert capsys.readouterr().out == "Constant(0)\n"


def test_curvature_one_dimensional_metric_is_zero(tmp_path, capsys):
    # No basis pair x < y exists, so the table would be empty; R = 0 says it.
    path = tmp_path / "line.liealg"
    path.write_text('[algebra]\nname = line\ndim = 1\nbasis = X\n\n[form]\n"X,X" = 2\n')
    assert cli(["curvature", str(path)]) == 0
    assert capsys.readouterr().out == "R = 0\n"
    assert cli(["curvature", str(path), "--quiet"]) == 0
    assert capsys.readouterr().out == "R = 0\n"
    assert cli(["curvature", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == [
        {"id": "R", "status": "pass", "witness": None, "value": "0"}
    ]


def test_curvature_two_dimensional_metric_lists_the_pair(tmp_path, capsys):
    path = tmp_path / "aff.liealg"
    path.write_text(
        '[algebra]\nname = aff\ndim = 2\nbasis = A, B\n\n[brackets]\n"A,B" = B\n\n'
        '[form]\n"A,A" = 1\n"B,B" = 1\n'
    )
    assert cli(["curvature", str(path)]) == 0
    assert capsys.readouterr().out == "R(A,B)A = B\nR(A,B)B = - A\n"
    assert cli(["curvature", str(path), "--json"]) == 0
    assert [r["id"] for r in json.loads(capsys.readouterr().out)] == ["R(A,B)A", "R(A,B)B"]


def test_connection_table(capsys):
    assert cli(["connection", f"{DATA}/sol3.liealg"]) == 0
    out = capsys.readouterr().out
    assert "nabla(Y,Z) = Z" in out
    assert "nabla(Y,T) = - T" in out


def test_curvature_table(capsys):
    assert cli(["curvature", f"{DATA}/sol3.liealg"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert all(line.endswith("= 0") for line in out)


def test_connection_rejects_model_files(capsys):
    assert cli(["connection", f"{DATA}/c_ltimes_heis.liealg"]) == 1
    assert "metric file" in capsys.readouterr().err


def test_invariants(capsys):
    assert cli(["invariants", f"{DATA}/heis3.liealg"]) == 0
    out = capsys.readouterr().out
    assert "nilpotent: true" in out
    assert "derived_dims: 3,1,0" in out


def test_model_command(capsys):
    assert cli(["model", f"{DATA}/c_times_sol.liealg"]) == 0
    out = capsys.readouterr().out
    assert "isotropy: SEMISIMPLE" in out
    assert "invariance: true" in out
    assert "invariant_form_dim: 2" in out


def test_model_command_needs_isotropy(capsys):
    assert cli(["model", f"{DATA}/sol3.liealg"]) == 1


def test_model_command_names_an_empty_quotient(tmp_path, capsys):
    path = tmp_path / "point.liealg"
    path.write_text("[algebra]\nname = point\ndim = 1\nbasis = X\n\n[isotropy]\ngen = X\n")
    assert cli(["model", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: isotropy spans the whole algebra; the quotient is empty\n"


def test_validate_rejects_an_empty_quotient(tmp_path, capsys):
    path = tmp_path / "point.liealg"
    path.write_text("[algebra]\nname = point\ndim = 1\nbasis = X\n\n[isotropy]\ngen = X\n")
    assert cli(["validate", str(path)]) == 1
    assert capsys.readouterr().out == (
        "PASS jacobi\n"
        "FAIL model_wellformed  witness=isotropy spans the whole algebra; the quotient is empty\n"
    )


# X and 2 X: dependent generators, named as such before the form is read against a complement.
DEPENDENT = (
    '[algebra]\nname = twice\ndim = 3\nbasis = X, Y, Z\n\n[form]\n"Y,Y" = 1\n"Z,Z" = 1\n\n'
    "[isotropy]\ngen1 = X\ngen2 = 2 X\n"
)


def test_validate_names_dependent_isotropy_generators(tmp_path, capsys):
    path = tmp_path / "twice.liealg"
    path.write_text(DEPENDENT)
    assert cli(["validate", str(path)]) == 1
    assert capsys.readouterr().out == (
        "PASS jacobi\nFAIL model_wellformed  witness=isotropy generators are linearly dependent\n"
    )


def test_model_command_names_dependent_isotropy_generators(tmp_path, capsys):
    path = tmp_path / "twice.liealg"
    path.write_text(DEPENDENT)
    assert cli(["model", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: isotropy generators are linearly dependent\n")


def test_validate(capsys, tmp_path):
    assert cli(["validate", f"{DATA}/sl2.liealg"]) == 0
    bad = tmp_path / "bad.liealg"
    bad.write_text(
        "[algebra]\nname = bad\ndim = 3\nbasis = X, Y, Z\n\n"
        '[brackets]\n"Y,Z" = X\n"X,Z" = Z\n'  # breaks the Jacobi identity
    )
    assert cli(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL jacobi" in out
    assert "triple=(" in out


def test_validate_degenerate_form(tmp_path, capsys):
    path = tmp_path / "degenerate.liealg"
    path.write_text(
        "[algebra]\nname = degenerate\ndim = 2\nbasis = A, B\n\n"
        '[form]\n"A,A" = 1\n'
    )
    assert cli(["validate", str(path)]) == 1


ZERO_FORM_METRIC = (
    '[algebra]\nname = z\ndim = 2\nbasis = A, B\n\n[brackets]\n"A,B" = B\n\n[form]\n"A,A" = 0\n'
)
ZERO_FORM_MODEL = (
    '[algebra]\nname = m\ndim = 4\nbasis = X, Y, Z, T\n\n[brackets]\n"Y,T" = - Z\n"Y,Z" = X\n\n'
    '[form]\n"X,X" = 0\n\n[isotropy]\ngen = Y\n'
)


# A metric file's form is the quotient form of its pair with h = 0: one witness for both.
@pytest.mark.parametrize("text", [ZERO_FORM_METRIC, ZERO_FORM_MODEL], ids=["metric", "model"])
def test_validate_fails_a_declared_zero_form(text, tmp_path, capsys):
    path = tmp_path / "zero.liealg"
    path.write_text(text)
    assert cli(["validate", str(path)]) == 1
    assert capsys.readouterr().out == "PASS jacobi\nFAIL form_nondegenerate  witness=form is degenerate\n"


@pytest.mark.parametrize("command", ["connection", "curvature", "constcurv"])
def test_metric_commands_reject_a_declared_zero_form(command, tmp_path, capsys):
    path = tmp_path / "zero.liealg"
    path.write_text(ZERO_FORM_METRIC)
    assert cli([command, str(path)]) == 1
    assert capsys.readouterr() == ("", "error: quadratic form is degenerate\n")


FAMILY = f"{DATA}/heis_stab_family.liealg"


def test_validate_proves_a_family_on_its_grid(tmp_path, capsys):
    assert cli(["validate", FAMILY]) == 0
    assert capsys.readouterr().out == "PASS jacobi  value=15 grid points\n"
    broken = tmp_path / "broken_family.liealg"
    broken.write_text(Path(FAMILY).read_text().replace('"X,T" = (-c) X', '"X,T" = (-c) X + (-m) Y'))
    assert cli(["validate", str(broken), "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == [
        {
            "id": "jacobi",
            "status": "fail",
            "witness": "at (0, 1, 0, 0): Jacobi fails, triple=(X,Z,T)",
            "value": "15 grid points",
        }
    ]


@pytest.mark.parametrize(
    "command", ["connection", "curvature", "constcurv", "invariants", "classify", "model"]
)
def test_other_file_commands_reject_a_family_at_its_parameters(command, tmp_path, capsys):
    assert cli([command, FAMILY]) == 1
    located = "error: line 6, col 1: a family file ([parameters]) is read by validate only\n"
    assert capsys.readouterr() == ("", located)
    # The error names the line where the section stands, here at the end of the file.
    section = "[parameters]\nnames = c, m, k, beta\n"
    moved = tmp_path / "moved.liealg"
    moved.write_text(Path(FAMILY).read_text().replace(section + "\n", "") + "\n" + section)
    assert cli([command, str(moved)]) == 1
    assert capsys.readouterr().err == located.replace("line 6", "line 19")


def test_parse_error_diagnostics(tmp_path, capsys):
    path = tmp_path / "broken.liealg"
    path.write_text("[algebra]\nname = broken\ndim = 1\nbasis = A\n\n[form]\n\"A,A\" = 1/\n")
    assert cli(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 7" in err


def test_missing_file(capsys):
    assert cli(["classify", "no/such/file.liealg"]) == 1


def test_unknown_subcommand(capsys):
    assert cli(["bogus"]) == 2


def test_usage_error_exit_code(capsys):
    assert cli([]) == 2


def test_parser_built_once_prints_to_current_streams(capsys):
    assert _build_parser() is _build_parser()
    assert cli(["classify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: holriem classify" in captured.err
    assert cli(["classify", f"{DATA}/sol3.liealg"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("SOL\n", "")


@pytest.mark.parametrize(
    "command", ["connection", "curvature", "constcurv", "invariants", "classify", "model"]
)
def test_file_commands_reject_a_table_that_breaks_jacobi(command, tmp_path, capsys):
    path = tmp_path / "broken.liealg"
    path.write_text(
        "[algebra]\nname = broken\ndim = 3\nbasis = X, Y, Z\n\n"
        '[brackets]\n"Y,Z" = X\n"X,Z" = Z\n\n'
        '[form]\n"X,X" = 1\n"Y,Y" = 1\n"Z,Z" = 1\n'
    )
    assert cli([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not a Lie algebra: Jacobi identity fails at triple=(X,Y,Z)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-paper", "--tol", "1e-9"],
        ["mobius-check", "--tol", "1e-9"],
        ["mobius-check", "--samples", "5"],
        ["mobius-check", "--seed", "3"],
    ],
)
def test_removed_options_are_usage_errors(argv, capsys):
    assert cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in captured.err


@pytest.mark.parametrize(
    "col, value",
    [
        # The value starts at column 9; the error points at the first
        # bracket or sign past the nesting limit, or at the literal.
        (9 + MAX_NESTING, "(" * 3000 + "1" + ")" * 3000),
        (9 + MAX_NESTING, "-" * 5000 + "1"),
        (9, "1" * 4400),
    ],
    ids=["3000-parentheses", "5000-minus-signs", "4400-digits"],
)
def test_pathological_scalars_give_located_errors(col, value, tmp_path, capsys):
    path = tmp_path / "deep.liealg"
    path.write_text(f'[algebra]\nname = deep\ndim = 1\nbasis = A\n\n[form]\n"A,A" = {value}\n')
    assert cli(["validate", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: line 7, col {col}: ")


@pytest.mark.parametrize("command", ["validate", "model", "connection"])
def test_an_empty_isotropy_section_is_a_located_error(command, tmp_path, capsys):
    # Declared with no generator: neither a model file nor a metric file.
    path = tmp_path / "empty_isotropy.liealg"
    path.write_text(ZERO_FORM_MODEL.replace("gen = Y\n", ""))
    assert cli([command, str(path)]) == 1
    assert capsys.readouterr() == ("", "error: line 13, col 1: [isotropy] declares no generator\n")


@pytest.mark.parametrize("command", ["validate", "invariants", "curvature", "model"])
def test_dim_above_the_limit_is_a_located_error(command, tmp_path, capsys):
    labels = ", ".join(f"e{k}" for k in range(MAX_DIM + 1))
    path = tmp_path / "huge.liealg"
    path.write_text(f'[algebra]\nname = huge\ndim = {MAX_DIM + 1}\nbasis = {labels}\n\n[form]\n"e0,e0" = 1\n')
    assert cli([command, str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: line 3, col 7: dim = {MAX_DIM + 1} exceeds the limit of {MAX_DIM}\n")


def test_dim_at_the_limit_is_accepted(tmp_path, capsys):
    # sl2 blocks with the form of sl2.liealg, padded by an abelian part.
    labels = [f"{x}{c}" for c in range(MAX_DIM // 3) for x in "hef"]
    labels += [f"a{k}" for k in range(MAX_DIM - len(labels))]
    lines = [f"[algebra]\nname = largest\ndim = {MAX_DIM}\nbasis = {', '.join(labels)}\n\n[brackets]"]
    for c in range(MAX_DIM // 3):
        lines += [f'"e{c},f{c}" = h{c}', f'"h{c},e{c}" = 2 e{c}', f'"h{c},f{c}" = - 2 f{c}']
    lines.append("\n[form]")
    for c in range(MAX_DIM // 3):
        lines += [f'"e{c},f{c}" = 4', f'"h{c},h{c}" = 8']
    lines += [f'"{a},{a}" = 1' for a in labels[3 * (MAX_DIM // 3):]]
    path = tmp_path / "largest.liealg"
    path.write_text("\n".join(lines) + "\n")
    assert cli(["curvature", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == MAX_DIM * MAX_DIM * (MAX_DIM - 1) // 2
    assert out[:3] == ["R(h0,e0)h0 = e0", "R(h0,e0)e0 = 0", "R(h0,e0)f0 = - 1/2 h0"]
    assert cli(["constcurv", str(path)]) == 0
    assert capsys.readouterr().out == "NotConstant  witness=triple=(h0,e0,h0)\n"


def test_verify_paper_json_deterministic(capsys):
    assert cli(["verify-paper", "--seed", "7", "--json"]) == 0
    first = capsys.readouterr().out
    assert cli(["verify-paper", "--seed", "7", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["seed"] == 7
    assert payload["summary"]["fail"] == 0
    assert len(payload["checks"]) > 100


def test_verify_paper_text_quiet(capsys):
    assert cli(["verify-paper", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert out.strip().startswith("summary:")


def test_mobius_check(capsys):
    assert cli(["mobius-check"]) == 0
    assert capsys.readouterr().out == (
        "PASS mobius/identity  value=4 grid points\n"
        "PASS mobius/translation  value=4 grid points\n"
        "PASS mobius/invariance  value=96 grid points\n"
    )
    assert cli(["mobius-check", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_mobius_check_json(capsys):
    assert cli(["mobius-check", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [record["id"] for record in payload] == [
        "mobius/identity",
        "mobius/translation",
        "mobius/invariance",
    ]
    assert all(record["status"] == "pass" for record in payload)


def test_mobius_check_fails_with_the_report(monkeypatch, capsys):
    monkeypatch.setattr(
        holriem.paper, "_derivative_defect", lambda a, b, c, d, z: a * b + c * d + z
    )
    assert cli(["mobius-check", "--quiet"]) == 1
    assert capsys.readouterr().out == (
        "FAIL mobius/invariance  value=96 grid points"
        "  witness=at (a,b,c,d,z)=(0, 0, 0, 0, 1): a(cz+d) - c(az+b) != ad-bc\n"
    )


def test_global_flags_before_subcommand(capsys):
    assert cli(["--json", "classify", f"{DATA}/heis3.liealg"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["value"] == "HEIS"
    assert cli(["--quiet", "verify-paper"]) == 0
    out = capsys.readouterr().out
    assert out.strip().startswith("summary:")


def test_curvature_exact_rational_rendering(capsys):
    assert cli(["curvature", f"{DATA}/sl2.liealg"]) == 0
    out = capsys.readouterr().out
    assert "R(E,F)E = - 1/2 E" in out
    assert "R(H,E)F = - 1/2 H" in out


def test_python_dash_m_runs_the_cli():
    package = Path(holriem.__file__).parent
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    result = subprocess.run(
        [sys.executable, "-m", "holriem", "classify", str(package / "data" / "sol3.liealg")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "SOL"


FILE_COMMANDS = ("validate", "invariants", "classify", "connection", "curvature", "constcurv", "model")
FUZZ_LABELS = ("X", "Y", "Z", "T", "W")
FUZZ_SCALARS = ("1", "-2", "1/2", "3/4 i", "i", "1 + i", "2 (1 - i)", "0")
FUZZ_MALFORMED = ("1/0", "i i", "7 X", "", "((1)")


@st.composite
def _scalar(draw, noisy):
    """A scalar; a noisy one may be malformed or nested up to 250 deep (the limit is 200)."""
    atom = draw(st.sampled_from(FUZZ_SCALARS + FUZZ_MALFORMED if noisy else FUZZ_SCALARS))
    depth = draw(st.integers(0, 250 if noisy else 2))
    if draw(st.booleans()):
        return "(" * depth + atom + ")" * depth
    return "-" * depth + atom


@st.composite
def _combination(draw, label, noisy):
    terms = draw(st.lists(st.tuples(_scalar(noisy), label), max_size=3))
    return " + ".join(f"({coefficient}) {name}" for coefficient, name in terms) or "0"


def _pairs(label, noisy, max_size):
    """Label pairs: any in a noisy file, else distinct pairs in ascending order."""
    if noisy:
        return st.lists(st.tuples(label, label), max_size=max_size)
    return st.lists(
        st.tuples(label, label).filter(lambda pair: pair[0] < pair[1]),
        unique=True,
        max_size=max_size,
    )


@st.composite
def _liealg_text(draw):
    """Structured `.liealg` text; a noisy one also gets undeclared labels,
    malformed or deep scalars, replaced characters and truncation."""
    noisy = draw(st.booleans())
    dim = draw(st.integers(0 if noisy else 1, 5))
    labels = FUZZ_LABELS[:dim]
    # "Q" is never declared.
    label = st.sampled_from(labels + ("Q",) if noisy else labels)
    declared = dim + draw(st.integers(0, 1)) if noisy else dim
    lines = ["[algebra]", "name = fuzz", f"dim = {declared}", f"basis = {', '.join(labels)}"]
    # A table with at most one bracket always satisfies Jacobi.
    brackets = draw(_pairs(label, noisy, draw(st.sampled_from((1, 3)))))
    if brackets:
        lines.append("[brackets]")
        lines += [f'"{a},{b}" = {draw(_combination(label, noisy))}' for a, b in brackets]
    # A model file declares its form on the complement of its isotropy.
    isotropy = draw(st.sampled_from((None,) + labels)) if draw(st.booleans()) else None
    complement = tuple(name for name in labels if name != isotropy)
    if complement and draw(st.integers(0, 3)):
        extra = label if noisy else st.sampled_from(complement)
        form = [(name, name) for name in complement] + draw(_pairs(extra, noisy, 2))
        lines.append("[form]")
        lines += [f'"{a},{b}" = {draw(_scalar(noisy))}' for a, b in form]
    if isotropy is not None:
        gen = draw(_combination(label, noisy)) if noisy else isotropy
        lines += ["[isotropy]", f"gen = {gen}"]
    if draw(st.booleans()):
        key, value = draw(
            st.sampled_from((("class", "SOL"), ("center_dim", "1"), ("solvable", "true")))
        )
        lines += ["[expected]", f"{key} = {draw(_scalar(noisy)) if noisy else value}"]
    text = "\n".join(lines) + "\n"
    if not noisy:
        return text
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + draw(st.sampled_from('[]"=,#()+-*/ i0X\n')) + text[at + 1 :]
    return text[: draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


@pytest.fixture(scope="module")
def fresh_fuzz_path(tmp_path_factory):
    """A new path in one directory per call: creating a file is far cheaper
    than rewriting one on some file systems."""
    directory, numbers = tmp_path_factory.mktemp("fuzz"), itertools.count()
    return lambda: directory / f"fuzz{next(numbers)}.liealg"


@settings(max_examples=100, deadline=None)
@given(text=_liealg_text())
def test_file_commands_never_raise_on_fuzzed_input(fresh_fuzz_path, text):
    fuzz_path = fresh_fuzz_path()
    fuzz_path.write_text(text, encoding="utf-8")
    for command in FILE_COMMANDS:
        assert cli([command, str(fuzz_path)]) in (0, 1, 2)


# -- the two-word form and the bytes of a file --------------------------------


@pytest.mark.parametrize("path", ["heis3.liealg", "../data/heis3.liealg", "my files/heis 3.liealg", "a=b.liealg"])
@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_the_two_word_form_builds_the_namespace_of_the_parser(command, path):
    argv = [command, path]
    assert vars(_two_word_args(argv)) == vars(_build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "-x.liealg"],
        ["classify", "a.liealg", "b.liealg"],
        ["classify", "--json"],
        ["--json", "classify"],
        ["classify", "--help"],
        ["verify-paper", "--quiet"],
        ["nosuch", "a.liealg"],
    ],
)
def test_every_other_argv_reaches_the_parser(argv, monkeypatch, capsys):
    assert _two_word_args(argv) is None
    expected = cli(argv)
    reached = []
    monkeypatch.setattr(holriem.cli, "_build_parser", lambda: reached.append(argv) or _build_parser())
    assert cli(argv) == expected and reached == [argv]


def test_the_two_word_form_never_builds_the_parser(monkeypatch, capsys):
    monkeypatch.setattr(holriem.cli, "_build_parser", lambda: pytest.fail("the parser was built"))
    assert cli(["classify", f"{DATA}/sol3.liealg"]) == 0
    assert capsys.readouterr() == ("SOL\n", "")


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_a_byte_that_is_not_utf8_is_a_located_error(command, tmp_path, capsys):
    path = tmp_path / "bad.liealg"
    path.write_bytes(b"[algebra]\r\nname = bad\ndim = 1\r\nbasis = X\nab\xffc\n")
    assert cli([command, str(path)]) == 1
    assert capsys.readouterr() == ("", "error: line 5, col 3: invalid UTF-8 byte 0xff\n")


@pytest.mark.parametrize("prefix, line, col", [(b"", 1, 1), (b"a\n", 2, 1), (b"a\r\n\xc3\xa9", 2, 2)])
def test_a_bad_byte_is_counted_in_characters_and_lines(prefix, line, col, tmp_path, capsys):
    path = tmp_path / "bad.liealg"
    path.write_bytes(prefix + b"\xfe")
    assert cli(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: line {line}, col {col}: invalid UTF-8 byte 0xfe\n"


@pytest.mark.parametrize("entry_id", ["heis3", "sl2", "c_ltimes_heis", "heis_stab_family"])
def test_a_crlf_file_prints_what_its_lf_file_prints(entry_id, tmp_path, capsys):
    lf = Path(DATA) / f"{entry_id}.liealg"
    crlf = tmp_path / f"{entry_id}.liealg"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    for command in FILE_COMMANDS:
        runs = [(cli([command, str(path)]), *capsys.readouterr()) for path in (lf, crlf)]
        assert runs[0] == runs[1], command


# -- the fixed-shape JSON writer ---------------------------------------------


def _as_dict(record):
    return {"id": record.id, "status": record.status, "witness": record.witness, "value": record.value}


WRITER_RECORDS = {
    "no checks": [],
    "one check": [CheckResult("a/b", "pass", value="Constant(-1/2)")],
    "failing records": [
        CheckResult("quote", "fail", 'got "x"', None),
        CheckResult("backslash", "fail", "a\\b\\", "\\"),
        CheckResult("newline", "fail", "line 1\nline 2\r\n\t", "x\n"),
        CheckResult("non-ascii", "fail", "∇_X Y = é", "é∇ \U0001d53d"),
        CheckResult("nulls", "pass", None, None),
        CheckResult("", "fail", "", ""),
        CheckResult("control", "fail", "\x00\x1f\x7f", "</script>"),
    ],
}


@pytest.mark.parametrize("records", WRITER_RECORDS.values(), ids=WRITER_RECORDS.keys())
@pytest.mark.parametrize("seed", [42, 0, -7, 2**70])
def test_report_json_is_what_json_dumps_writes(records, seed):
    report = VerifyReport(seed, tuple(records))
    payload = {
        "seed": seed,
        "checks": [_as_dict(r) for r in records],
        "summary": {"pass": report.pass_count, "fail": report.fail_count},
    }
    assert report_to_json(report) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("records", WRITER_RECORDS.values(), ids=WRITER_RECORDS.keys())
def test_cli_json_array_is_what_json_dumps_writes(records, capsys):
    args = _build_parser().parse_args(["--json", "mobius-check"])
    code = _print_records(args, records, lambda r: pytest.fail("--json formats no text line"))
    assert code == int(any(r.status == "fail" for r in records))
    assert capsys.readouterr().out == json.dumps([_as_dict(r) for r in records], indent=2) + "\n"


def test_a_whole_report_is_what_json_dumps_writes():
    report = verify_all(11)
    payload = {
        "seed": 11,
        "checks": [_as_dict(r) for r in report.checks],
        "summary": {"pass": report.pass_count, "fail": report.fail_count},
    }
    assert report_to_json(report) == json.dumps(payload, indent=2)
