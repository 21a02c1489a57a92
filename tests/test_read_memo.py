"""``catalog.read_text``: each text is parsed and its algebra built once while
the memo holds it, for the CLI and the catalog alike; every check and all
derived data are made again per command."""

import pytest

import holriem.cli as cli_module
import test_golden as golden
from holriem import dsl, geometry, liealg
from holriem.catalog import CATALOG_IDS, READ_TEXT_BOUND, read_text, shipped_file_text
from holriem.liealg import LieAlgebra
from test_derive_once import SL2_PLUS_LINE, _count_everywhere


@pytest.fixture
def reads(monkeypatch):
    """Count ``dsl.parse`` and ``LieAlgebra.from_table`` calls."""
    counts = {"parse": 0, "from_table": 0}
    real_parse, real_build = dsl.parse, LieAlgebra.from_table.__func__

    def parse(text):
        counts["parse"] += 1
        return real_parse(text)

    def from_table(cls, *args):
        counts["from_table"] += 1
        return real_build(cls, *args)

    monkeypatch.setattr(dsl, "parse", parse)
    monkeypatch.setattr(LieAlgebra, "from_table", classmethod(from_table))
    return counts


def test_commands_on_one_file_share_its_parse_and_derive_the_rest(
    reads, monkeypatch, tmp_path, capsys
):
    derived = _count_everywhere(
        monkeypatch,
        ((geometry, "levi_civita"), (geometry, "curvature"), (liealg, "jacobi_witness")),
    )
    path = tmp_path / "sl2_plus_line.liealg"
    path.write_text(SL2_PLUS_LINE, encoding="utf-8")
    for command in ("connection", "curvature", "constcurv", "validate"):
        assert cli_module.cli([command, str(path)]) == 0
    # 4 parses and 4 builds when every command read its file afresh.
    assert reads == {"parse": 1, "from_table": 1}
    assert derived == {"levi_civita": 3, "curvature": 2, "jacobi_witness": 4}


def test_a_file_rewritten_between_commands_is_read_again(tmp_path, capsys):
    path = tmp_path / "metric.liealg"
    printed = []
    for name in ("sl2", "heis3", "sl2"):
        path.write_text(shipped_file_text(name), encoding="utf-8")
        assert cli_module.cli(["constcurv", str(path)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed == ["Constant(-1/8)\n", "Constant(0)\n", "Constant(-1/8)\n"]


def test_a_parse_error_is_reported_alike_and_not_kept(tmp_path, capsys):
    path = tmp_path / "broken.liealg"
    path.write_text(golden.EDGE_FILES["parse_error"], encoding="utf-8")
    held = read_text.cache_info().currsize
    reported = set()
    for command in golden.SWEEP_COMMANDS * 2:
        assert cli_module.cli([command, str(path)]) == 1
        reported.add(capsys.readouterr())
    assert reported == {("", "error: line 7, col 11: expected a denominator\n")}
    assert read_text.cache_info().currsize == held


def test_the_memo_holds_the_last_texts_up_to_its_bound(reads):
    texts = [f"[algebra]\nname = t{k}\ndim = 1\nbasis = X\n" for k in range(READ_TEXT_BOUND + 1)]
    for text in texts:
        read_text(text)
    assert read_text.cache_info().currsize == READ_TEXT_BOUND
    read_text(texts[-1])
    assert reads["parse"] == READ_TEXT_BOUND + 1
    read_text(texts[0])  # the least recently read, dropped by the last
    assert reads["parse"] == READ_TEXT_BOUND + 2


def test_no_file_command_mutates_a_held_parse(tmp_path, capsys):
    texts = {name: shipped_file_text(name) for name in CATALOG_IDS} | golden.EDGE_FILES
    assert len(texts) <= READ_TEXT_BOUND
    for key, text in texts.items():
        path = tmp_path / f"{key}.liealg"
        path.write_text(text, encoding="utf-8")
        for command in golden.SWEEP_COMMANDS:
            for flags in golden.SWEEP_FLAGS:
                cli_module.cli([command, str(path), *flags])
    capsys.readouterr()
    for key, text in texts.items():
        try:
            fresh = dsl.parse(text)
        except dsl.DslError:
            continue
        misses = read_text.cache_info().misses
        spec, algebra = read_text(text)
        assert read_text.cache_info().misses == misses, key
        assert (spec, dsl.serialize(spec)) == (fresh, dsl.serialize(fresh)), key
        built = LieAlgebra.from_table(fresh.labels, fresh.brackets)
        assert (algebra, algebra.terms) == (built, built.terms), key
