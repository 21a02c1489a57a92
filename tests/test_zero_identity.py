"""Every arithmetic zero is the one ``scalars.ZERO`` object, so a zero fiber
or vector compares equal to ``(ZERO,) * n`` by identity, in C.  That is
speed only: with ``_make`` patched to return a new zero object each time,
the report and the file commands print the same bytes."""

import sys

import pytest
import test_golden as golden

from holriem import scalars
from holriem.catalog import build_catalog
from holriem.scalars import ONE, ZERO, GaussianRational, addmul, gr


@pytest.fixture
def fresh_zeros(monkeypatch):
    """Patch ``_make``, in every holriem module that binds it, to return a
    new zero object for each zero result; count the zeros it makes."""
    real = scalars._make
    made = {"zeros": 0}

    def fresh(a, b, d):
        if a or b:
            return real(a, b, d)
        made["zeros"] += 1
        zero = object.__new__(GaussianRational)
        zero._a, zero._b, zero._d = 0, 0, 1
        return zero

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "holriem" and getattr(module, "_make", None) is real:
            monkeypatch.setattr(module, "_make", fresh)
    return made


def test_arithmetic_zeros_are_shared():
    x = gr(2, 3)
    assert x - x is ZERO and -ZERO is ZERO and x * 0 is ZERO and gr(0) + 0 is ZERO


# Distinct tuple objects among the 27 fibers.  No term reaches any fiber of
# the abelian flat_c3, so all 27 are one tuple; on heis3, 15 term-less fibers
# share one tuple and 12 fibers whose terms cancel are their own tuples; on
# sl2, 3 term-less fibers share one tuple and 24 have terms.
DISTINCT_FIBERS = {"flat_c3": 1, "heis3": 13, "sl2": 25}


def test_fibers_without_a_term_are_one_shared_tuple():
    entries = {entry.id: entry for entry in build_catalog()}
    for name, distinct in DISTINCT_FIBERS.items():
        fibers = [f for plane in entries[name].tensor for row in plane for f in row]
        assert len({id(f) for f in fibers}) == distinct


def test_the_patch_makes_new_zeros(fresh_zeros):
    x = gr(2, 3)
    assert x - x is not ZERO and x - x == ZERO and not x - x
    assert fresh_zeros["zeros"] == 3


def test_the_patch_reaches_the_fused_steps(fresh_zeros):
    x = gr(2, 3)
    zero = addmul(x, -x, ONE)
    assert zero is not ZERO and zero == ZERO and fresh_zeros["zeros"] == 1


@pytest.mark.parametrize("seed", sorted(golden.REPORT_SHA256))
def test_report_digest_without_shared_zeros(seed, fresh_zeros):
    golden.test_report_json_digest(seed)
    assert fresh_zeros["zeros"] > 0


def test_file_command_sweep_digest_without_shared_zeros(fresh_zeros, capsys):
    golden.test_file_command_sweep_digest(capsys)
    assert fresh_zeros["zeros"] > 0
