"""Each (algebra, form) pair gets its connection and curvature derived once."""

import pytest

import holriem.cli as cli_module
from holriem import catalog, geometry

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
    """Count ``levi_civita`` and ``curvature`` calls made through any module."""
    counts = {"levi_civita": 0, "curvature": 0}
    for name in counts:
        real = getattr(geometry, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        for module in (geometry, catalog, cli_module):
            monkeypatch.setattr(module, name, counted)
    return counts


def test_verify_all_derives_each_metric_once(calls):
    report = catalog.verify_all(42)
    assert report.all_pass
    # Four catalog metrics plus the two sl(2) forms of section 4.
    assert calls == {"levi_civita": 6, "curvature": 6}


def test_constcurv_not_constant_derives_once(calls, tmp_path, capsys):
    path = tmp_path / "sl2_plus_line.liealg"
    path.write_text(SL2_PLUS_LINE, encoding="utf-8")
    assert cli_module.cli(["constcurv", str(path)]) == 0
    assert capsys.readouterr().out == "NotConstant  witness=triple=(H,E,H)\n"
    assert calls == {"levi_civita": 1, "curvature": 1}
