"""Command-line interface.

Exit codes: 0 success / all checks pass, 1 check failure or input error,
2 usage error.  ``_print_records`` prints the records of every command, as JSON
with the stable keys id, status, witness, value, or in its text format, and takes
the exit code from them.  File commands print the ``catalog.FACTS`` values
(``invariants``, ``classify``, ``model``) or the derived metric data (``connection``,
``curvature``, ``constcurv``) of a ``catalog.CatalogEntry`` built from the file; of
them, ``validate`` alone reads a family file, proving Jacobi on its grid as the report does.

A command loads only the modules it runs: ``argparse``, ``catalog``, ``dsl``, ``liealg``,
``linalg`` and ``scalars`` for every command; ``forms`` when it builds a form (``classify``'s
Killing form, a file's form), ``models`` when it builds a file's pair (``validate``, ``model``
and the metric commands), and ``geometry`` when it derives metric data, all three bound
unexecuted (``holriem._lazy``); ``paper``, the report's fragments, with ``fractions``, for
``verify-paper``, ``mobius-check`` and a family file's ``validate``; ``importlib.resources``
for the report's shipped files; and ``json`` for ``--json`` output.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from itertools import combinations
from typing import Sequence

from . import catalog as cat
from . import dsl
from .liealg import LieAlgebra
from .scalars import ZERO


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


def cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process; argparse looks up sys.stdout/sys.stderr when
    # it prints, so a cached parser still writes to redirected streams.
    # The flags live on the main parser and on every subparser, so both
    # `holriem --json classify F` and `holriem classify F --json` work;
    # SUPPRESS keeps subparser defaults from clobbering main-level values.
    common = argparse.ArgumentParser(add_help=False)
    parser = argparse.ArgumentParser(
        prog="holriem",
        description="Exact checks for left-invariant holomorphic Riemannian metrics",
    )
    for holder, default in ((common, argparse.SUPPRESS), (parser, False)):
        holder.add_argument(
            "--json", action="store_true", default=default, help="machine-readable output"
        )
        holder.add_argument(
            "--quiet", action="store_true", default=default, help="suppress passing lines"
        )
    sub = parser.add_subparsers(dest="command", required=True)

    def file_command(name: str, handler, help_text: str):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("file", help="a .liealg input file")
        p.set_defaults(handler=handler)

    file_command("validate", _cmd_validate, "check Jacobi identity and form nondegeneracy")
    file_command("invariants", _cmd_invariants, "structural invariants of the algebra")
    file_command("classify", _cmd_classify, "class of a 3-dimensional unimodular algebra")
    file_command("connection", _cmd_connection, "Christoffel table of the metric")
    file_command("curvature", _cmd_curvature, "curvature tensor of the metric")
    file_command("constcurv", _cmd_constcurv, "constant-curvature certificate")
    file_command("model", _cmd_model, "isotropy type and invariance of a model file")

    vp = sub.add_parser(
        "verify-paper", parents=[common], help="run the full catalog verification suite"
    )
    vp.add_argument("--seed", type=int, default=cat.DEFAULT_SEED, help="echoed in the report")
    vp.set_defaults(handler=_cmd_verify)

    sub.add_parser(
        "mobius-check", parents=[common], help="exact invariance of the surface metric"
    ).set_defaults(handler=_cmd_mobius)
    return parser


def _load(path: str) -> tuple[str, dsl.SpecFile, LieAlgebra | None]:
    """A file's text, parse and algebra; a family file has no one algebra (None)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return (text, *cat.read_text(text))


def _load_lie(path: str) -> tuple[dsl.SpecFile, LieAlgebra]:
    """A file's parse and algebra; a family file, or a table breaking Jacobi, is an input error."""
    text, spec, algebra = _load(path)
    if algebra is None:
        line = next(n for name, n, _ in dsl._scan_sections(text) if name == "parameters")
        raise dsl.DslError("a family file ([parameters]) is read by validate only", line, 1)
    jacobi = cat._jacobi_check("jacobi", algebra)
    if not jacobi.passed:
        raise ValueError(f"not a Lie algebra: Jacobi identity fails at {jacobi.witness}")
    return spec, algebra


def _status_line(record: cat.CheckResult) -> str:
    line = f"{record.status.upper():4} {record.id}"
    if record.value is not None:
        line += f"  value={record.value}"
    if record.witness is not None:
        line += f"  witness={record.witness}"
    return line


def _print_records(args, records: Sequence[cat.CheckResult], line=None) -> int:
    """Print records as one JSON array, or one line each: ``line(record)``, or else the
    status line, which --quiet drops when passing.  Returns 1 when a record failed, else 0."""
    keep_passing = line is not None or not args.quiet
    line = None if args.json else line or _status_line
    failed, lines = False, []
    for record in records:
        passed = record.status == "pass"
        failed = failed or not passed
        if line and (keep_passing or not passed):
            lines.append(line(record))
    if args.json:
        print(cat._json_records(records))
    elif lines:
        print("\n".join(lines))
    return 1 if failed else 0


def _facts(entry: cat.CatalogEntry, keys: tuple[str, ...]) -> list[cat.CheckResult]:
    """The ``cat.FACTS`` values of an entry built from the input file."""
    return [cat._check(key, True, value=cat.FACTS[key](entry)) for key in keys]


def _cmd_validate(args) -> int:
    _, spec, algebra = _load(args.file)
    if algebra is None:
        from .paper import _family_jacobi

        return _print_records(args, [_family_jacobi("jacobi", spec)])
    records = [cat._jacobi_check("jacobi", algebra)]
    try:
        entry = cat.entry_from_spec(spec.name, spec, algebra)
    except ValueError as exc:
        records.append(cat._check("model_wellformed", False, str(exc)))
    else:
        if entry.form is not None:
            records.append(cat._check("form_nondegenerate", entry.form.nondegenerate, "form is degenerate"))
    return _print_records(args, records)


def _cmd_invariants(args) -> int:
    spec, algebra = _load_lie(args.file)
    keys = ("unimodular", "solvable", "nilpotent", "center_dim", "derived_dims")
    entry = cat.CatalogEntry(spec.name, algebra)
    return _print_records(args, _facts(entry, keys), lambda r: f"{r.id}: {r.value}")


def _cmd_classify(args) -> int:
    spec, algebra = _load_lie(args.file)
    tag = cat.FACTS["class"](cat.CatalogEntry(spec.name, algebra))
    return _print_records(args, [cat._check("classify", True, value=tag)], lambda r: r.value)


def _load_entry(path: str, model: bool) -> cat.CatalogEntry:
    """The entry of a model file, or of a metric file with a form; a file of
    the other kind is an input error before any model is built from it."""
    spec, algebra = _load_lie(path)
    if bool(spec.isotropy) != model:
        raise ValueError(
            "the file declares no [isotropy] section"
            if model
            else "this command needs a metric file (a form on the full basis, no isotropy)"
        )
    entry = cat.entry_from_spec(spec.name, spec, algebra)
    if not model and entry.form is None:
        raise ValueError("the file declares no [form] section")
    return entry


def _print_vectors(args, rows) -> int:
    """Print ``id = value`` for each (id, vector) of ``rows(entry, names)`` for the metric file."""
    entry = _load_entry(args.file, model=False)
    names, zero = entry.algebra.basis_names, (ZERO,) * entry.algebra.dim
    text = lambda v: "0" if v == zero else dsl.format_combination(names, dict(zip(names, v)))
    records = [cat.CheckResult(record_id, "pass", None, text(v)) for record_id, v in rows(entry, names)]
    return _print_records(args, records, lambda r: f"{r.id} = {r.value}")


def _cmd_connection(args) -> int:
    def rows(entry, names):
        for a, vectors in zip(names, entry.connection):
            yield from ((f"nabla({a},{b})", v) for b, v in zip(names, vectors))

    return _print_vectors(args, rows)


def _cmd_curvature(args) -> int:
    def rows(entry, names):
        # Below dimension 2 there is no pair x < y to list, and R vanishes.
        listed = [
            (f"R({a},{b}){z}", v)
            for (i, a), (j, b) in combinations(enumerate(names), 2)
            for z, v in zip(names, entry.tensor[i][j])
        ]
        return listed or [("R", (ZERO,) * len(names))]

    return _print_vectors(args, rows)


def _cmd_constcurv(args) -> int:
    entry = _load_entry(args.file, model=False)
    rendered = cat.FACTS["constant_curvature"](entry)
    witness = None
    if entry.constant_curvature is None:
        from .geometry import constant_curvature_defect

        # A zero tensor is Constant(0): the defect at k = 0, a nonzero fiber, exists.
        witness = cat._triple_str(entry.algebra, constant_curvature_defect(entry.form, entry.tensor, 0))
    # The certificate is data, not a check, so it passes and keeps its witness.
    return _print_records(
        args,
        [cat.CheckResult("constcurv", "pass", witness, rendered)],
        lambda r: r.value if r.witness is None else f"{r.value}  witness={r.witness}",
    )


def _cmd_model(args) -> int:
    entry = _load_entry(args.file, model=True)
    keys = ("isotropy", "invariance", "invariant_form_dim")
    return _print_records(args, _facts(entry, keys), lambda r: f"{r.id}: {r.value}")


def _cmd_verify(args) -> int:
    report = cat.verify_all(seed=args.seed)
    if args.json:
        print(cat.report_to_json(report))
        return 0 if report.all_pass else 1
    code = _print_records(args, report.checks)
    print(f"summary: {report.pass_count} passed, {report.fail_count} failed, seed={report.seed}")
    return code


def _cmd_mobius(args) -> int:
    from .paper import verify_mobius

    return _print_records(args, verify_mobius())
