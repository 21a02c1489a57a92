"""Self-tests of the benchmark: seeded inputs, references, failure counting.

Run from the root of a checkout: python3 -m pytest bench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import worker  # noqa: E402

SMALL = {
    "verify-paper": lambda seed: gen.verify_paper(seed, size=20),
    "metric-files": gen.metric_files,
    "structure": lambda seed: gen.structure(seed, size=40),
}


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_same_seed_same_digest_and_other_seed_other_digest(name):
    first, again, other = SMALL[name](7), SMALL[name](7), SMALL[name](8)
    assert first["sha256"] == again["sha256"]
    assert first["files"] == again["files"]
    assert first["sha256"] != other["sha256"]


def _catalog():
    holriem = worker.import_holriem(SRC)
    return {entry.id: entry.expected for entry in holriem.catalog.build_catalog()}


def test_construction_facts_agree_with_catalog_expected_strings():
    expected = _catalog()
    for source, facts in gen.FACTS3.items():
        renamed = {"class" if key == "cls" else key: value for key, value in facts.items()}
        shared = set(renamed) & set(expected[source])
        assert {"class", "center_dim", "derived_dims", "unimodular"} <= shared
        assert {key: renamed[key] for key in shared} == {key: expected[source][key] for key in shared}
    for source, model in gen.MODELS4.items():
        facts = {**model[5], **gen.MODEL_COMMON}
        shared = set(facts) & set(expected[source])
        assert {"isotropy", "invariance", "invariant_form_dim", "center_dim"} <= shared
        assert {key: facts[key] for key in shared} == {key: expected[source][key] for key in shared}
    assert f"Constant({expected['sl2']['constant_curvature']})" == gen.HEADLINE["unimodular3/sl2"]


def test_generated_structure_expectations_use_catalog_values():
    expected = _catalog()
    for op in gen.structure(3, size=40)["ops"]:
        source = op["file"].split("_", 1)[1]
        if op["cmd"] == "classify":
            assert op["stdout"] == f"{expected[source]['class']}\n"
        if op["cmd"] == "model":
            assert op["stdout"].splitlines()[0] == f"isotropy: {expected[source]['isotropy']}"
        if op["broken"]:
            assert op["rc"] == 1 and "witness=triple=(" in op["stdout"]


def test_structure_rounds_ask_for_the_same_mix():
    workload = gen.structure(4, size=3 * gen.STRUCTURE_ROUND)
    mix = [(op["file"].split("_", 1)[1], op["cmd"], op["broken"]) for op in workload["ops"]]
    mixes = [sorted(mix[start : start + gen.STRUCTURE_ROUND]) for start in range(0, len(mix), gen.STRUCTURE_ROUND)]
    assert mixes[0] == mixes[1] == mixes[2]
    assert sum(broken for _, _, broken in mixes[0]) == gen.STRUCTURE_ROUND // 10


def _run(tmp_path, ops, files):
    for name, text in files.items():
        (tmp_path / f"{name}.liealg").write_text(text, encoding="utf-8")
    runner = worker.Runner(worker.import_holriem(SRC), tmp_path)
    return worker.timed_run(runner, ops, seconds=0.1, round_len=len(ops), warmup=0)


def test_injected_wrong_expectation_raises_fail_ratio(tmp_path):
    workload = gen.structure(5, size=12)
    clean = _run(tmp_path, workload["ops"], workload["files"])
    assert clean["failed"] == 0 and clean["attempted"] > 0
    ops = [dict(op) for op in workload["ops"]]
    ops[3]["stdout"] = ops[3]["stdout"].replace("true", "false").replace("PASS", "FAIL") + "x\n"
    result = _run(tmp_path, ops, workload["files"])
    assert result["failed"] / result["attempted"] > 0
    assert ops[3]["file"] in result["first_failure"]


def test_run_without_wrap_stops_when_the_inputs_run_out(tmp_path):
    workload = gen.structure(5, size=12)
    for name, text in workload["files"].items():
        (tmp_path / f"{name}.liealg").write_text(text, encoding="utf-8")
    runner = worker.Runner(worker.import_holriem(SRC), tmp_path)
    result = worker.timed_run(runner, workload["ops"], seconds=60, round_len=5, warmup=2, wrap=False)
    assert result["attempted"] == 12 and len(result["rounds_s"]) == 2 and result["repeated_share"] == 0


def test_holriem_from_elsewhere_is_refused(tmp_path, monkeypatch):
    worker.import_holriem(SRC)
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit, match="outside"):
        worker.import_holriem(tmp_path)
