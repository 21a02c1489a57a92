"""Each (algebra, form) pair gets its connection and curvature derived once,
each metric or model command eliminates each matrix once, and each
structural fact ([g, g], an isotropy action, a complement) is derived once."""

import sys

import pytest

import holriem.cli as cli_module
from holriem import catalog, geometry, liealg, linalg, models, paper, scalars
from holriem.linalg import CMatrix
from holriem.scalars import GaussianRational

SL2_PLUS_LINE = """[algebra]
name = sl2_plus_line
dim = 4
basis = H, E, F, W

[brackets]
"E,F" = H
"H,E" = 2 E
"H,F" = - 2 F

[form]
"E,F" = 4
"H,H" = 8
"W,W" = 1
"""


@pytest.fixture
def calls(monkeypatch):
    """Count ``levi_civita`` and ``curvature`` calls; the CLI and the report reach them through ``geometry``."""
    counts = {"levi_civita": 0, "curvature": 0}
    for name in counts:
        real = getattr(geometry, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(geometry, name, counted)
    return counts


def test_verify_all_derives_each_metric_once(calls):
    report = catalog.verify_all(42)
    assert report.all_pass
    # Four catalog metrics plus the two sl(2) forms of section 4.
    assert calls == {"levi_civita": 6, "curvature": 6}


# A connection table needs no curvature; every command derives the connection once.
@pytest.mark.parametrize(
    "command, curvature_calls", [("constcurv", 1), ("connection", 0), ("curvature", 1)]
)
def test_metric_commands_derive_once(command, curvature_calls, calls, tmp_path, capsys):
    path = tmp_path / "sl2_plus_line.liealg"
    path.write_text(SL2_PLUS_LINE, encoding="utf-8")
    assert cli_module.cli([command, str(path)]) == 0
    if command == "constcurv":
        assert capsys.readouterr().out == "NotConstant  witness=triple=(H,E,H)\n"
    assert calls == {"levi_civita": 1, "curvature": curvature_calls}


DATA = "src/holriem/data"


@pytest.fixture
def eliminations(monkeypatch):
    """Count eliminations (``linalg._reduce``)."""
    counts = {"_reduce": 0}

    def counting(real, name):
        def counted(*args):
            counts[name] += 1
            return real(*args)

        return counted

    monkeypatch.setattr(linalg, "_reduce", counting(linalg._reduce, "_reduce"))
    return counts


@pytest.mark.parametrize("command", ["connection", "curvature", "constcurv"])
@pytest.mark.parametrize("name", ["sl2", "sol3"])
def test_metric_commands_eliminate_once(command, name, eliminations, capsys):
    assert cli_module.cli([command, f"{DATA}/{name}.liealg"]) == 0
    # One elimination of [G | B] solves for the connection, and no other (2 when
    # the connection raised the Koszul sums through an inverse of G).
    assert eliminations == {"_reduce": 1}


@pytest.mark.parametrize("command", ["connection", "curvature", "constcurv"])
def test_degenerate_metric_is_an_input_error(command, tmp_path, capsys):
    path = tmp_path / "degenerate.liealg"
    path.write_text(SL2_PLUS_LINE.replace('"W,W" = 1\n', ""), encoding="utf-8")
    assert cli_module.cli([command, str(path)]) == 1
    assert capsys.readouterr() == ("", "error: quadratic form is degenerate\n")


def _count_everywhere(monkeypatch, functions):
    """Count calls of each (module, name) made through any holriem module."""
    counts = {name: 0 for _, name in functions}
    for module, name in functions:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        for holder in [m for key, m in sys.modules.items() if key.split(".")[0] == "holriem"]:
            if getattr(holder, name, None) is real:
                monkeypatch.setattr(holder, name, counted)
    return counts


@pytest.fixture
def work(monkeypatch):
    """Count eliminations, brackets and induced actions."""
    return _count_everywhere(
        monkeypatch, ((linalg, "_reduce"), (liealg, "bracket"), (models, "induced_ad"))
    )


@pytest.mark.parametrize(
    "command, name, expected",
    [
        # One action at construction serves isotropy type, invariance and forms.
        # One solve of its brackets against the frame (where the frame was inverted),
        # one elimination over the powers of the action for
        # its minimal polynomial (7 when each degree was solved again and
        # semisimplicity was a rank), no elimination for gcd(p, p'), one kernel
        # for the invariant forms and one rank of the quotient form.
        ("model", "c_oplus_sl2", {"_reduce": 4, "bracket": 4, "induced_ad": 1}),
        # One [g, g] from the constants starts both series; a derived step
        # spans the pairs u < v of its basis.
        ("invariants", "c_oplus_sl2", {"_reduce": 4, "bracket": 15, "induced_ad": 0}),
        # One elimination each for the complement, the solve of the action's
        # brackets against the frame and the rank of the quotient form.
        ("validate", "c_ltimes_heis", {"_reduce": 3, "bracket": 4, "induced_ad": 1}),
        # The rank of the Killing form and one [g, g], whose dimension decides
        # abelian and which starts the lower central series (2 steps).
        ("classify", "sol3", {"_reduce": 3, "bracket": 6, "induced_ad": 0}),
    ],
)
def test_structure_commands_work_budget(command, name, expected, work, capsys):
    assert cli_module.cli([command, f"{DATA}/{name}.liealg"]) == 0
    assert work == expected


@pytest.fixture
def products(monkeypatch):
    """Count matrix products (``CMatrix.__matmul__``)."""
    counts = {"__matmul__": 0}
    real = CMatrix.__matmul__

    def counted(self, other):
        counts["__matmul__"] += 1
        return real(self, other)

    monkeypatch.setattr(CMatrix, "__matmul__", counted)
    return counts


@pytest.mark.parametrize(
    "name, expected",
    [
        # A semisimple action: A^2 and A^3 for the powers of the one minimal
        # polynomial, which also decides nilpotency (4 when a nilpotency test
        # built A^2 and A^3 first; 7 when, besides, Horner's rule evaluated
        # p'(A) and each degree recomputed I @ A).
        ("c_oplus_sl2", 2),
        # A nilpotent action: the same two powers, for a minimal polynomial t^k.
        ("heis_stab_generic", 2),
    ],
)
def test_model_matrix_product_budget(name, expected, products, capsys):
    assert cli_module.cli(["model", f"{DATA}/{name}.liealg"]) == 0
    assert products["__matmul__"] == expected


def test_verify_all_derives_each_isotropy_action_once(work):
    assert catalog.verify_all(42).all_pass
    # Seven catalog models and five stabilizer-family models; section 4 tests
    # its generic form against the actions of c_oplus_sl2 (13 with a rebuilt model).
    assert work["induced_ad"] == 12


def test_verify_all_eliminates_each_subalgebra_once(work):
    assert catalog.verify_all(42).all_pass
    # Six subalgebra spans of three generators: one solve of the generators
    # against their brackets each, where one span_basis and nine solve_linear
    # made 184 in all.  Each span question eliminates once: 113 when each of the
    # six in_span calls and the one is_ideal call compared the ranks of two
    # span_basis calls.  The isotropy bounds make 4: one solve of [G | I] for
    # so(q) and one kernel for each of the three stabilizers cut from it (8 when
    # each bound made its own).  Each model solves its action's brackets against
    # its frame once, where it inverted the frame once.
    # Each of the seven catalog models finds its minimal polynomial in one
    # elimination, which decides nilpotency too, and tests semisimplicity with
    # no elimination: 111 when the two nilpotent ones stopped at a matrix power
    # A^k = 0 with no minimal polynomial, 126 when each of the five others made
    # three solves and one rank.  Each 3-dimensional catalog entry derives [g, g],
    # its semisimplicity and its nilpotency once, which its class reads too: 100,
    # where the class derived them again and made 106 (one more [g, g] each for
    # flat_c3, heis3 and sol3, one more Killing rank for sl2, and one more lower
    # central series step each for heis3 and sol3).  105 since the five models of
    # the stabilizer family's isotropy proof come from its file through
    # entry_from_spec, which finds each complement in one elimination (_completion).
    assert work["_reduce"] == 105


def test_verify_all_brackets_each_generator_pair_once(work):
    assert catalog.verify_all(42).all_pass
    # Each of the six subalgebra spans of three generators brackets its 3 pairs
    # i < j, antisymmetry giving the rest: 154 when each bracketed all 9 pairs.
    # The class of heis3 and sol3 reads the nilpotency their entries derive: 118
    # when it ran the lower central series again (3 and 6 brackets).
    assert work["bracket"] == 109


def test_elimination_counters_agree(work, eliminations):
    # ``work`` is set up first, so it wraps every module's binding of the real
    # ``_reduce`` and ``eliminations`` wraps linalg's only: the counts agree
    # when every elimination is called through the module, as a tracer sees it.
    # 105, as counted above (106 when the class derived its facts again).
    assert catalog.verify_all(42).all_pass
    assert eliminations["_reduce"] == work["_reduce"] == 105


def test_a_second_report_derives_as_much_as_the_first(calls, eliminations):
    # No derived value (so(q), a connection) outlives its report.  105
    # eliminations, as counted above (106 when the class derived its facts again).
    counts = []
    for _ in range(2):
        assert catalog.verify_all(42).all_pass
        counts.append((dict(calls), dict(eliminations)))
        calls.update(dict.fromkeys(calls, 0))
        eliminations.update(dict.fromkeys(eliminations, 0))
    assert counts[0] == counts[1] == (
        {"levi_civita": 6, "curvature": 6}, {"_reduce": 105}
    )


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_verify_paper_reads_each_status_once(flags, monkeypatch, capsys):
    counts = {"passed": 0}
    real = catalog.CheckResult.passed.fget

    def counted(record):
        counts["passed"] += 1
        return real(record)

    monkeypatch.setattr(catalog.CheckResult, "passed", property(counted))
    assert cli_module.cli(["verify-paper", *flags]) == 0
    assert ('"pass": 135,' if flags else "summary: 135 passed, 0 failed") in capsys.readouterr().out
    # One read per check, where VerifyReport counts the failures; 405 when the
    # summary and the exit code scanned the 135 checks three times more.
    assert counts["passed"] == 135


@pytest.fixture
def facts(monkeypatch):
    """Count the structural facts a catalog entry derives once."""
    return _count_everywhere(
        monkeypatch,
        ((liealg, "center"), (liealg, "derived_series"), (models, "isotropy_type")),
    )


def test_verify_all_derives_each_fact_once_per_entry(facts):
    assert catalog.verify_all(42).all_pass
    # Recomputed per use, the report made 18 center, 21 derived_series and
    # 12 isotropy_type calls.  Now: one center per entry (11) plus the four
    # spans of the flat case (iv); one derived series per entry declaring
    # derived_dims or solvable (flat_iff_solvable reads it too); one isotropy
    # type per model entry (section 5 reads it too).
    assert facts == {"center": 15, "derived_series": 4, "isotropy_type": 7}


@pytest.mark.parametrize(
    "entry_id, expected",
    [
        # The class reads the entry's [g, g], semisimplicity and nilpotency: each
        # structural fact once (2 [g, g] and, for heis3, sol3 and sl2, 2 lower
        # central series or 2 Killing forms when the class derived its own).
        ("flat_c3", {"derived_algebra": 1, "lower_central_series": 1, "killing_form": 1}),
        ("heis3", {"derived_algebra": 1, "lower_central_series": 1, "killing_form": 1}),
        ("sol3", {"derived_algebra": 1, "lower_central_series": 1, "killing_form": 1}),
        # Semisimple: the class stops at the Killing form; no key asks for nilpotency.
        ("sl2", {"derived_algebra": 1, "lower_central_series": 0, "killing_form": 1}),
    ],
)
def test_verify_entry_derives_each_structural_fact_once(entry_id, expected, monkeypatch):
    entry = next(e for e in catalog.build_catalog() if e.id == entry_id)
    counts = _count_everywhere(
        monkeypatch,
        ((liealg, "derived_algebra"), (liealg, "lower_central_series"), (liealg, "killing_form")),
    )
    assert all(check.passed for check in paper.verify_entry(entry))
    assert counts == expected


def test_verify_all_scans_each_constant_once(monkeypatch):
    counts = _count_everywhere(monkeypatch, ((geometry, "constant_curvature_defect"),))
    assert catalog.verify_all(42).all_pass
    # One scan per derived constant: the four catalog metrics and the two sl(2)
    # forms of section 4.  A `constant_curvature` key that gives the entry's own
    # constant passes with no scan; 10 when each of the four scanned again.
    assert counts == {"constant_curvature_defect": 6}


# sl(2) + heis + sol, an orthogonal sum: ``curvature`` prints the 324 fibers
# R(e_i, e_j) e_k with i < j, 6 of them nonzero.
NINE_DIM_SUM = """[algebra]
name = sl2_heis_sol
dim = 9
basis = H, E, F, X, Y, Z, U, V, T

[brackets]
"E,F" = H
"H,E" = 2 E
"H,F" = - 2 F
"Y,Z" = X
"U,T" = - T
"U,V" = V

[form]
"E,F" = 4
"H,H" = 8
"X,Z" = 1
"Y,Y" = 1
"U,U" = 1
"V,T" = 1
"""


@pytest.mark.parametrize(
    "command, expected",
    [
        # 12 in dsl.parse, 108 building the bracket terms, 166 in the one
        # elimination of [G | B] (its 4 right sides are the nonzero lowered
        # vectors of the symmetric part U), 171 listing the nonzero entries of
        # the 9 Gram rows and the 10 nonzero Christoffel vectors (the 71 zero
        # ones take one tuple comparison each), and 54 in format_combination for
        # the 6 nonzero fibers printed, one for each of their 9 entries (the 318
        # zero ones print "0" after one tuple comparison).  517 when the printer
        # dropped the zero entries before format_combination tested the rest
        # again, so each nonzero entry was tested twice.  664 when the
        # connection inverted G (211 in that elimination), listed the 9 rows of
        # G^-1 (81) and tested the 15 Koszul slots some term reached, and
        # QuadraticForm.from_sparse tested each of its 6 entries for a conflict.
        # 5635 when every entry of every Koszul sum, Christoffel vector and
        # printed fiber was tested.
        ("curvature", 511),
        # As above up to the fibers, then 83 in finding the first nonzero entry
        # of the model tensor, and one in each of the two defect scans, at the
        # candidate -1/8 and at k = 0 for the witness, deciding whether k is 0
        # (687 when the witness came from a flatness scan of its own, 689 with
        # the Koszul connection, as above).  The scans compare whole fibers, or a
        # pair's whole row where the model row is zero, and test no entry.  3086
        # when they tested every entry up to the witness.
        ("constcurv", 542),
    ],
)
def test_metric_commands_zero_test_budget(command, expected, tmp_path, monkeypatch, capsys):
    path = tmp_path / "sl2_heis_sol.liealg"
    path.write_text(NINE_DIM_SUM, encoding="utf-8")
    counts = {"__bool__": 0}
    real = GaussianRational.__bool__

    def counted(self):
        counts["__bool__"] += 1
        return real(self)

    monkeypatch.setattr(GaussianRational, "__bool__", counted)
    assert cli_module.cli([command, str(path)]) == 0
    assert counts["__bool__"] == expected


def test_constcurv_zero_test_budget_on_a_held_text(tmp_path, monkeypatch, capsys):
    path = tmp_path / "sl2_heis_sol.liealg"
    path.write_text(NINE_DIM_SUM, encoding="utf-8")
    assert cli_module.cli(["constcurv", str(path)]) == 0
    counts = _count_zero_tests_and_steps(monkeypatch)
    assert cli_module.cli(["constcurv", str(path)]) == 0
    # 542 as above, less the 12 of the parse and the 108 building the bracket
    # terms, both kept by catalog.read_text; the form, the connection and
    # everything after them are derived again (569 with the Koszul connection).
    assert counts["__bool__"] == 422


def _count_zero_tests_and_steps(monkeypatch):
    """Count ``GaussianRational.__bool__`` calls and the fused steps ``addmul``
    and ``submul``, in every holriem module that binds them."""
    counts = {"__bool__": 0, "steps": 0}
    real_bool = GaussianRational.__bool__

    def counted_bool(self):
        counts["__bool__"] += 1
        return real_bool(self)

    monkeypatch.setattr(GaussianRational, "__bool__", counted_bool)
    for fused in (scalars.addmul, scalars.submul):

        def counted_step(s, x, y, _fused=fused):
            counts["steps"] += 1
            return _fused(s, x, y)

        for holder in [m for key, m in sys.modules.items() if key.split(".")[0] == "holriem"]:
            if getattr(holder, fused.__name__, None) is fused:
                monkeypatch.setattr(holder, fused.__name__, counted_step)
    return counts


@pytest.mark.parametrize("name", ["flat_c3", "heis3", "sol3", "sl2", "sl2_heis_sol"])
def test_a_metric_pair_costs_no_work(name, eliminations, monkeypatch):
    # A metric file is the pair with h = 0 and the standard basis as complement:
    # building it finds no complement, tests no frame and tests no scalar for zero.
    text = NINE_DIM_SUM if name == "sl2_heis_sol" else catalog.shipped_file_text(name)
    spec, algebra = catalog.read_text(text)
    counts = _count_zero_tests_and_steps(monkeypatch)
    entry = catalog.entry_from_spec(name, spec, algebra)
    assert entry.model.isotropy == () and entry.model.frame == CMatrix.identity(algebra.dim)
    assert (eliminations, counts) == ({"_reduce": 0}, {"__bool__": 0, "steps": 0})


def test_verify_all_zero_test_budget(monkeypatch):
    # The first report of a process also parses the shipped files and builds their
    # algebras (256 more zero tests; later reports reuse both through read_text).
    assert catalog.verify_all(42).all_pass
    counts = _count_zero_tests_and_steps(monkeypatch)
    assert catalog.verify_all(42).all_pass
    # Zero tests, by the innermost function making them (_dot, _nonzero and generator
    # expressions count to their caller): 3287 in eliminations (pivot searches and
    # pivot-row supports), 716 in from_table, 810 in brackets, 747 in act (one call
    # per action on a model's whole symmetric basis; 1062 with one call per basis
    # form), 612 in products (1329 when each (row, column) pair tested both
    # operands), 591 in _combinations (549 in _annihilated's, and 42 summing exp(tN):
    # 27 listing the nonzero entries of I, N and N^2 once, 15 testing the
    # coefficients t^k / k! of the five flows), 132 in apply (lowering an index in the two
    # defect scans), 267 in the Killing form (987), 44 in solve (the rows past the
    # rank at each right side), 54 in levi_civita (listing the nonzero Gram
    # entries), 66 in curvature, 36 in induced_ad, 25 in _squarefree, 28 in is_zero,
    # 192 in dsl.at (dropping the terms of the stabilizer family's file that vanish
    # at a point), and 1131 in the checks and scans around them (469 in
    # geometry._first, 376 in geometry._add, 6 deciding k = 0 in the six
    # constant-curvature scans, 8 in check_prop_iv's precondition): 8738.  8652 when
    # the flows were typed into geometry: 86 fewer, the 42 of exp(tN) and the 44 of
    # the powers of N that give its nilpotency index 3 (30 in the products N^2 and
    # N^3, 14 in testing N, N^2 and N^3 for zero).  9112 when
    # the span questions and the model frames read the I part of an elimination of
    # [T | I] and the so(q) bound inverted G: 150 more in eliminations (106 in the
    # [T | I] layout, 44 in pivot searches past A that solve no longer makes), 200
    # in apply (the frame inverses applied to the isotropy brackets; 964 before
    # apply listed the vector's nonzero entries once) and 154 in the span questions
    # (74 in subalgebra, 48 in in_span, 32 in is_ideal), none in solve.  8917 when
    # the family was built in code: 155 fewer in eliminations (no complement found
    # for the five isotropy models), but 160 more in from_table (876, for the zero
    # constants that code passed) and none in dsl.at or check_prop_iv.  9057 when
    # each connection inverted its Gram matrix (3318 in eliminations) and raised the
    # Koszul sums through G^-1 (135 in levi_civita), and QuadraticForm.from_sparse
    # tested each entry for a conflict (23 of the 1146 then around the checks).  9229
    # when the class of the four 3-dimensional entries derived [g, g], the Killing
    # form and the lower central series again (79 more in eliminations, 54 in
    # brackets, 45 in the Killing form) and the scans made no k = 0 decision.  The
    # 716 in from_table build the 30 algebras of a report (24 of the stabilizer family, 6
    # subalgebras); 1072, for 9425, when each report rebuilt the 11 shipped algebras
    # too.  9797 then when the defect scans lowered an index with a loop of their
    # own over the nonzero Gram entries (432 there and 72 listing those entries,
    # where apply now makes 132).
    # Fused steps, one per nonzero product: 161 in products, 130 in act, 114 in
    # curvature, 82 in eliminations, 53 in brackets, 22 in apply (lowering an index),
    # 48 in levi_civita, 32 in the Jacobi scan, 54 in _combinations (27 in
    # _annihilated's, and 27 summing exp(tN): 3 for L_0, whose coefficients of N and
    # N^2 are zero, and 6 for each of L_1, ..., L_4), 10 in the Killing form and 15 in
    # _squarefree: 721.  693 when the flows were typed into geometry,
    # with no exp(tN) and no product N^2.  738 with the [T | I] eliminations (94 steps),
    # the frame inverses applied to the isotropy brackets (26 in apply) and
    # subalgebra's dot products with the rows of [T | I] (7).  712 when
    # levi_civita made 22 steps raising through G^-1 and added its Koszul terms with
    # dunder products and sums; now each lowered term and each half bracket term
    # is one step.  720 with sl2's second Killing form and the second lower central
    # series of heis3 and sol3.
    assert counts == {"__bool__": 8738, "steps": 721}
