"""Golden outputs: the verification report and the metric commands' text.

The digests were taken before the metric pipeline moved to the closed-form
Koszul formula and the shared index scan; any change to a value, a witness
or the formatting shows up here.  The report digests were last retaken when
the Möbius checks became exact grid proofs; the reports for the two seeds
differ only in their ``seed`` line.
"""

import hashlib
from importlib import resources

import pytest

import holriem.paper
from holriem.catalog import CATALOG_IDS, report_to_json, verify_all
from holriem.cli import cli

REPORT_SHA256 = {
    42: "c7d326dab67a744de10562e32bb5b90163aa3b13d02d715298842a070f9f25c1",
    11: "a590d4da4203815c0db1287236aaa647d056078c8b8d8f4cbe3c07ae6f89a58e",
}

# SHA-256 of the stdout of ``holriem <command> <file>`` on shipped metric files.
TEXT_SHA256 = {
    ("connection", "flat_c3"): "d2c4d5455b2c4177d0c004bb87e8000110f91d27ad8ac0f525bf46172b0e3eac",
    ("connection", "heis3"): "85070f2a1b9fdc654954a66c4052f8d19ce0190c7b51e4228559167be8b619e8",
    ("connection", "sol3"): "39ab6dd646f5bffacda4ce75be937f596691ff11d7bb44a1e0c1c1cafbcc926a",
    ("connection", "sl2"): "b3d7672364a469fd0414ae7f46cf8ce5d7aa082383d4a46a75ba5931807ab241",
    ("curvature", "flat_c3"): "161c390dc12756ec7ced652d1ff6f07f959c957864e73925ea2e73d481d49bc8",
    ("curvature", "heis3"): "161c390dc12756ec7ced652d1ff6f07f959c957864e73925ea2e73d481d49bc8",
    ("curvature", "sol3"): "627897af4f623a6e5f16dac4317a3f923ac776e21983756336b064e1f87dc267",
    ("curvature", "sl2"): "f37505366cfc10f5ad282aa72295fe4edd1ec292ab8fb0a9466fc74f38385262",
}

CONSTCURV_TEXT = {
    "flat_c3": "Constant(0)\n",
    "heis3": "Constant(0)\n",
    "sol3": "Constant(0)\n",
    "sl2": "Constant(-1/8)\n",
}


def _shipped(name: str) -> str:
    return str(resources.files("holriem") / "data" / f"{name}.liealg")


@pytest.mark.parametrize("seed", sorted(REPORT_SHA256))
def test_report_json_digest(seed):
    text = report_to_json(verify_all(seed))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[seed]


@pytest.mark.parametrize("command,name", sorted(TEXT_SHA256))
def test_metric_command_text_digest(command, name, capsys):
    assert cli([command, _shipped(name)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_SHA256[(command, name)]


@pytest.mark.parametrize("name", sorted(CONSTCURV_TEXT))
def test_constcurv_text(name, capsys):
    assert cli(["constcurv", _shipped(name)]) == 0
    assert capsys.readouterr().out == CONSTCURV_TEXT[name]


# One SHA-256 over every file command, with each flag set, on every shipped
# file: models through the metric commands included, and --quiet included.
SWEEP_COMMANDS = (
    "validate",
    "invariants",
    "classify",
    "connection",
    "curvature",
    "constcurv",
    "model",
)
SWEEP_FLAGS = ((), ("--json",), ("--quiet",))
SWEEP_SHA256 = "da7d195a132c1df59ff7a5bc6c904b181e7ef98227469b2e8ad6aee947be5868"


def test_file_command_sweep_digest(capsys):
    digest = hashlib.sha256()
    for command in SWEEP_COMMANDS:
        for entry_id in CATALOG_IDS:
            for flags in SWEEP_FLAGS:
                code = cli([command, _shipped(entry_id), *flags])
                out, err = capsys.readouterr()
                record = (command, entry_id, " ".join(flags), str(code), out, err)
                digest.update(repr(record).encode())
    assert digest.hexdigest() == SWEEP_SHA256


# SHA-256 of the stdout of ``holriem verify-paper`` (seed 42) with each flag set,
# and of the same report made to fail by a broken Möbius derivative defect.
# Taken before the report printer moved to the CLI's record printer.
VERIFY_TEXT_SHA256 = {
    ((), 0): "3eafdc5d83a4f03e550b5c1f40322deadf802bb9f65341847302dcf72bc2687d",
    (("--quiet",), 0): "097fe2097ed76a85e4c98d81f86c26b15d75d8ebffabc660fcd2d1bde553a24d",
    ((), 1): "5ccf2674e92d1d24349b520cd7c4995c0d4beac45e994d4e2d8bbda97fad7e59",
}


@pytest.mark.parametrize("flags,code", sorted(VERIFY_TEXT_SHA256))
def test_verify_paper_text_digest(flags, code, monkeypatch, capsys):
    if code:
        monkeypatch.setattr(
            holriem.paper, "_derivative_defect", lambda a, b, c, d, z: a * b + c * d + z
        )
    assert cli(["verify-paper", *flags]) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_TEXT_SHA256[(flags, code)]


# One SHA-256 over (arguments, exit code, stdout, stderr) of ``--help`` at the top
# level and on each subcommand, and one over a set of usage errors, 80 columns wide.
HELP_ARGS = ((), *((command,) for command in SWEEP_COMMANDS), ("verify-paper",), ("mobius-check",))
HELP_SHA256 = "24074b8e913ad4c45fde404e8cc937e3aea52894aef89b77cf695629f0224653"
USAGE_ERRORS = (
    (),
    ("--bogus",),
    ("validate",),
    ("verify-paper", "--seed", "x"),
    ("nosuch",),
    ("classify", "a", "b"),
)
USAGE_SHA256 = "fb03baa9df6e6a7e9d0713ac2495534b412b263cb1382b5770b7dd292bc8b358"


@pytest.mark.parametrize(
    "runs,suffix,want",
    [(HELP_ARGS, ("--help",), HELP_SHA256), (USAGE_ERRORS, (), USAGE_SHA256)],
    ids=["help", "usage-errors"],
)
def test_parser_output_digest(runs, suffix, want, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for args in runs:
        code = cli([*args, *suffix])
        assert code == (0 if suffix else 2)
        digest.update(repr((args, code, *capsys.readouterr())).encode())
    assert digest.hexdigest() == want


# Edge files written to a temporary directory: each is named in the digest by its
# key, never by its path.  One SHA-256 over every file command, with each flag set.
_HEIS_MODEL = '[algebra]\nname = m\ndim = 4\nbasis = X, Y, Z, T\n\n[brackets]\n"Y,T" = - Z\n"Y,Z" = X\n\n'
EDGE_FILES = {
    "breaks_jacobi": (
        '[algebra]\nname = bad\ndim = 3\nbasis = X, Y, Z\n\n[brackets]\n"Y,Z" = X\n"X,Z" = Z\n\n'
        '[form]\n"X,X" = 1\n"Y,Y" = 1\n"Z,Z" = 1\n'
    ),
    "no_form": '[algebra]\nname = heis\ndim = 3\nbasis = X, Y, Z\n\n[brackets]\n"Y,Z" = X\n',
    "degenerate_form": '[algebra]\nname = deg\ndim = 2\nbasis = A, B\n\n[form]\n"A,A" = 1\n',
    "dim_1": '[algebra]\nname = line\ndim = 1\nbasis = X\n\n[form]\n"X,X" = 2\n',
    "parse_error": '[algebra]\nname = broken\ndim = 1\nbasis = A\n\n[form]\n"A,A" = 1/\n',
    "heis_diag": (
        '[algebra]\nname = heis_diag\ndim = 3\nbasis = X, Y, Z\n\n[brackets]\n"Y,Z" = X\n\n'
        '[form]\n"X,X" = 1\n"Y,Y" = 1\n"Z,Z" = 1\n'
    ),
    "form_pair_twice": (
        '[algebra]\nname = twice\ndim = 2\nbasis = A, B\n\n[form]\n"A,B" = 1\n"B,A" = 2\n'
    ),
    "non_unimodular_2d": (
        '[algebra]\nname = aff\ndim = 2\nbasis = A, B\n\n[brackets]\n"A,B" = B\n\n'
        '[form]\n"A,A" = 1\n"B,B" = 1\n'
    ),
    "model_form_off_complement": _HEIS_MODEL + '[form]\n"Y,Y" = 1\n"X,T" = 1\n\n[isotropy]\ngen = Y\n',
    "model_without_form": _HEIS_MODEL + "[isotropy]\ngen = Y\n",
    "model_breaks_jacobi": (
        '[algebra]\nname = m\ndim = 3\nbasis = X, Y, Z\n\n[brackets]\n"Y,Z" = X\n"X,Z" = Z\n\n'
        '[form]\n"X,X" = 1\n"Y,Y" = 1\n\n[isotropy]\ngen = Z\n'
    ),
    "isotropy_spans_all": "[algebra]\nname = point\ndim = 1\nbasis = X\n\n[isotropy]\ngen = X\n",
}
EDGE_SWEEP_SHA256 = "670024e3d527ff87bc20fc814a25d008e5de98e3a65317c8033cb189cd56d897"


def test_edge_file_command_sweep_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    for key, text in EDGE_FILES.items():
        path = tmp_path / f"{key}.liealg"
        path.write_text(text, encoding="utf-8")
        for command in SWEEP_COMMANDS:
            for flags in SWEEP_FLAGS:
                code = cli([command, str(path), *flags])
                out, err = capsys.readouterr()
                assert str(tmp_path) not in out + err
                digest.update(repr((command, key, " ".join(flags), str(code), out, err)).encode())
    assert digest.hexdigest() == EDGE_SWEEP_SHA256
