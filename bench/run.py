"""The holriem benchmark: one command, three workloads, exact outputs checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see gen.py for the inputs and their references):

* verify-paper  in-process ``catalog.verify_all(seed)`` + ``report_to_json``,
                seeds drawn from --seed; the only workload that runs the
                catalog fragments and re-derives the same metrics.
* metric-files  14 metric files (dims 3-9), each queried in turn by
                ``connection``, ``curvature``, ``constcurv`` and ``validate``
                through in-process ``cli.cli``; inputs repeat across commands.
* structure     7700 distinct conjugated algebra and model files, one of
                ``validate``, ``invariants``, ``classify`` or ``model`` each;
                every tenth file breaks Jacobi.  No input repeats: a run
                ends early if the files run out.

One client runs a closed loop in a child process: a few warm-up ops, then
whole rounds of ops (5 reports, one pass over the 14 files, 110 files) until
--seconds have passed, so every round holds about the same mix of ops.  ops_per_s
is the median of the rounds' throughputs (a round's time is the sum of its
ops' times) and op_p50_ms the median latency of all timed ops.  setup_s is the median of fresh-interpreter imports taken
before and after the loop.  A shared host can slow everything down by up to
1.8x for minutes, so each of these timings is scaled by the host's slowdown
measured during it (hostspeed.py); the lines for people give the raw wall
times too.

With --trace 0 the last stdout line carries the end-to-end metrics;
--trace 1 instead runs one fixed pass untraced and then traced (see
tracer.py) and carries the per-layer metrics, so its counts are the same on
every run of a seed.  Every line before the last is for people: provenance,
input properties and each metric with its sample count.

holriem is imported from this checkout's ``src``; the benchmark refuses to
run when it resolves anywhere else.  Inputs and traces go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"

SETUP_RUNS = 10
COLD_VERIFY_RUNS = 3
CHILD_TIMEOUT_S = 120

IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import holriem.cli; t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); import hostspeed; "
    "print(t, holriem.cli.__file__, *(hostspeed.sample() for _ in range(5)))"
)
COLD_VERIFY = (
    "import sys; sys.path.insert(0, sys.argv[1]); from holriem.cli import cli; "
    "sys.exit(cli(['verify-paper', '--json', '--seed', sys.argv[2]]))"
)

# The result line carries the metrics BENCHMARK.json names, with its units.
SPEC = ROOT / "BENCHMARK.json"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def in_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "holriem").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    rev = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        rev = done.stdout.strip() or rev
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def setup_seconds(runs: int) -> tuple[list[float], list[float]]:
    """Import times of holriem.cli in fresh interpreters, and host-speed
    samples taken in each of them after the import."""
    times, host = [], []
    for _ in range(runs):
        done = child(["-c", IMPORT_TIMER, str(SRC), str(BENCH)])
        if done.returncode != 0:
            raise BenchError(f"import holriem.cli failed: {done.stderr.strip()[-500:]}")
        seconds, where, *samples = done.stdout.split()
        if not in_src(where):
            raise BenchError(f"holriem resolves to {where}, outside {SRC}")
        times.append(float(seconds))
        host += map(float, samples)
    return times, host


def cold_verify(seed: int) -> tuple[list[float], str | None]:
    """Wall time of fresh-process `verify-paper --json`, with its output checked."""
    times, mismatch = [], None
    for _ in range(COLD_VERIFY_RUNS):
        start = perf_counter()
        done = child(["-c", COLD_VERIFY, str(SRC), str(seed)])
        times.append(perf_counter() - start)
        problem = f"cold verify-paper exited {done.returncode}" if done.returncode else gen.check_report(done.stdout, seed)
        mismatch = mismatch or problem
    return times, mismatch


def run_worker(workload: dict, seconds: int, trace: bool, seed: int) -> dict:
    OUT.mkdir(exist_ok=True)
    input_dir = OUT / f"{workload['name']}-{seed}-{os.getpid()}"
    input_dir.mkdir()
    try:
        for name, text in workload["files"].items():
            (input_dir / f"{name}.liealg").write_text(text, encoding="utf-8")
        plan = {
            "src": str(SRC),
            "input_dir": str(input_dir),
            "ops": workload["ops"],
            "round_len": workload["round_len"],
            "warmup": workload["warmup"],
            "wrap": workload["wrap"],
            "trace_len": workload["trace_len"],
            "seconds": seconds,
            "trace": trace,
            "spans_path": str(OUT / f"spans-{workload['name']}-{seed}.csv.gz"),
        }
        plan_path = input_dir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        done = child([str(WORKER), str(plan_path)])
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    if done.returncode != 0:
        raise BenchError(f"workload process exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def say(kind: str, payload) -> None:
    print(f"{kind} {json.dumps(payload)}" if isinstance(payload, dict) else f"{kind} {payload}")


def end_to_end(workload: dict, seconds: int, seed: int) -> tuple[dict, int, int]:
    setup, setup_host = setup_seconds(SETUP_RUNS // 2)
    result = run_worker(workload, seconds, False, seed)
    more, more_host = setup_seconds(SETUP_RUNS - SETUP_RUNS // 2)
    setup, setup_host = setup + more, setup_host + more_host
    latencies, size = result["latencies_s"], result["round_len"]
    if not result["rounds_s"]:
        raise BenchError("the workload has fewer ops than one timed round")
    attempted, failed = result["attempted"], result["failed"]
    first_failure = result["first_failure"]
    setup_slow, run_slow = hostspeed.slowdown(setup_host), hostspeed.slowdown(result["host_samples_s"])
    raw = {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(size / seconds for seconds in result["rounds_s"]),
        "op_p50_ms": statistics.median(latencies) * 1000,
    }
    metrics = {
        "setup_s": raw["setup_s"] / setup_slow,
        "ops_per_s": raw["ops_per_s"] * run_slow,
        "op_p50_ms": raw["op_p50_ms"] / run_slow,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    say("holriem", result["holriem"])
    say(
        "host",
        f"slowdown {setup_slow:.4f} over the imports ({len(setup_host)} samples), "
        f"{run_slow:.4f} over the run ({len(result['host_samples_s'])} samples); timings below are scaled by it",
    )
    say(
        "metric",
        f"setup_s {metrics['setup_s']:.6f} s (raw {raw['setup_s']:.6f}; "
        f"median of {len(setup)} fresh interpreters importing holriem.cli)",
    )
    say(
        "metric",
        f"ops_per_s {metrics['ops_per_s']:.4f} 1/s (raw {raw['ops_per_s']:.4f}; median of {len(result['rounds_s'])} "
        f"rounds of {size} ops, one client, closed loop; whole run: {len(latencies)} ops in {result['window_s']:.3f} s)",
    )
    if result["window_s"] < seconds:
        say("info", f"the inputs ran out after {result['window_s']:.3f} s of the {seconds} s asked for")
    say("metric", f"op_p50_ms {metrics['op_p50_ms']:.4f} ms (raw {raw['op_p50_ms']:.4f}; n={len(latencies)})")
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) >= 2 else latencies[0]
    beyond = sum(1 for x in latencies if x > p90)
    if beyond >= 10:
        say("metric", f"op_p90_ms {p90 * 1000 / run_slow:.4f} ms (raw {p90 * 1000:.4f}; n={len(latencies)}, {beyond} beyond p90)")
    else:
        say("metric", f"op_p90_ms omitted: {beyond} of {len(latencies)} samples lie beyond p90, fewer than 10")
    say("metric", f"peak_rss_mb {metrics['peak_rss_mb']:.3f} MB (workload process)")
    say("info", f"repeated inputs among timed ops: {result['repeated_share']:.4f}")
    if workload["name"] == "verify-paper":
        times, mismatch = cold_verify(workload["ops"][0]["seed"])
        attempted += len(times)
        failed += mismatch is not None
        first_failure = first_failure or mismatch
        say("info", f"cold_verify_s {statistics.median(times):.6f} s (raw; median of {len(times)} fresh `verify-paper --json`)")
    say("metric", f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted} ops failed)")
    if first_failure:
        say("mismatch", first_failure)
    return metrics, attempted, failed


def per_layer(workload: dict, seed: int) -> tuple[dict, int, int]:
    result = run_worker(workload, 0, True, seed)
    say("holriem", result["holriem"])
    say("trace", f"{result['spans']} spans over {workload['trace_len']} ops written to {result['span_file']}")
    for name, value in result["per_layer"].items():
        say("layer", f"{name} {value} {unit_of(name)}")
    if result["first_failure"]:
        say("mismatch", result["first_failure"])
    return result["per_layer"], result["attempted"], result["failed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "holriem" / "__init__.py").is_file():
            raise BenchError(f"no holriem source under {SRC}")
        say("provenance", provenance())
        workload = gen.build(args.workload, args.seed)
        say("inputs", {"workload": workload["name"], "seed": args.seed, "sha256": workload["sha256"], **workload["properties"]})
        if args.trace:
            metrics, attempted, failed = per_layer(workload, args.seed)
        else:
            metrics, attempted, failed = end_to_end(workload, args.seconds, args.seed)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    wanted = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
