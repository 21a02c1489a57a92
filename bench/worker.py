"""The workload process: one client runs a plan's ops against holriem.

Usage: python3 bench/worker.py PLAN.json

The plan (written by run.py) names the checkout's ``src``, the input
directory, the ops with their expected outputs, the run length and
whether to trace.  The loop is closed: the next op starts when the
previous one returns.  Only the op call is timed; its output is checked
against the plan after the clock stops.  The last stdout line is a JSON
result.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import gen
import hostspeed

# Seconds between host-speed samples in a timed run (see hostspeed.py).
SAMPLE_EVERY_S = 0.1


def import_holriem(src: Path):
    """Import holriem from ``src``; SystemExit when it resolves elsewhere."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import holriem
    import holriem.cli

    where = Path(holriem.__file__).resolve()
    if not where.is_relative_to(src.resolve()):
        raise SystemExit(f"holriem resolves to {where}, outside {src}")
    return holriem


class Runner:
    def __init__(self, holriem, input_dir: Path):
        self.catalog = holriem.catalog
        self.cli = holriem.cli
        self.input_dir = input_dir

    def execute(self, op):
        """Run one op; returns what check() compares."""
        if "seed" in op:
            return self.catalog.report_to_json(self.catalog.verify_all(op["seed"]))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.cli([op["cmd"], str(self.input_dir / f"{op['file']}.liealg")])
        return code, out.getvalue(), err.getvalue()

    def run(self, op):
        """(seconds, output, mismatch or None) for one op."""
        start = perf_counter()
        try:
            output = self.execute(op)
        except Exception as exc:  # an op that raises is a failed op
            return perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        return elapsed, output, check(op, output)


def check(op, output):
    if "seed" in op:
        return gen.check_report(output, op["seed"])
    code, out, err = output
    if code != op["rc"] or out != op["stdout"] or (code == 0 and err):
        return (
            f"{op['cmd']} {op['file']}: expected exit {op['rc']} and {_first_line_diff(op['stdout'], out)!r}, "
            f"got exit {code}, stderr {err.strip()[:200]!r}"
        )
    return None


def _first_line_diff(want: str, got: str) -> str:
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for k in range(max(len(want_lines), len(got_lines))):
        a = want_lines[k] if k < len(want_lines) else "<none>"
        b = got_lines[k] if k < len(got_lines) else "<none>"
        if a != b:
            return f"line {k + 1}: want {a[:200]} / got {b[:200]}"
    return "same stdout"


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.first_failure = None

    def add(self, elapsed, mismatch):
        self.latencies.append(elapsed)
        if mismatch is not None:
            self.failed += 1
            self.first_failure = self.first_failure or mismatch


def timed_run(runner, ops, seconds, round_len, warmup, wrap=True):
    """Run ``warmup`` ops, then whole rounds of ``round_len`` ops until
    ``seconds`` have passed; a round under way at the deadline completes.
    Without ``wrap`` the run also ends when no whole round of ops is left.

    Between ops, at most every SAMPLE_EVERY_S, the host's speed is sampled;
    a round's time is the sum of its ops' times, so the samples and the
    output checks are not part of it."""
    tally = Tally()
    for op in ops[:warmup]:
        elapsed, _, mismatch = runner.run(op)
        tally.add(elapsed, mismatch)
    seen = {_input_key(op) for op in ops[:warmup]}
    position, repeated, latencies, rounds, host = warmup, 0, [], [], []
    start = next_sample = perf_counter()
    while perf_counter() < start + seconds and (wrap or position + round_len <= len(ops)):
        round_s = 0.0
        for _ in range(round_len):
            op = ops[position % len(ops)]
            position += 1
            repeated += _input_key(op) in seen
            seen.add(_input_key(op))
            elapsed, _, mismatch = runner.run(op)
            tally.add(elapsed, mismatch)
            latencies.append(elapsed)
            round_s += elapsed
            if perf_counter() >= next_sample:
                host.append(hostspeed.sample())
                next_sample = perf_counter() + SAMPLE_EVERY_S
        rounds.append(round_s)
    return {
        "latencies_s": latencies,
        "rounds_s": rounds,
        "round_len": round_len,
        "host_samples_s": host,
        "window_s": perf_counter() - start,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "first_failure": tally.first_failure,
        "repeated_share": repeated / len(latencies),
    }


def _input_key(op):
    return op.get("file", op.get("seed"))


def traced_run(runner, ops, spans_path: Path):
    """One untraced and one traced pass over the same ops."""
    from tracer import Tracer

    tally = Tally()
    for op in ops[:1] + ops:
        elapsed, _, mismatch = runner.run(op)
        tally.add(elapsed, mismatch)
    untraced = sum(tally.latencies[1:])
    tracer = Tracer()
    tracer.install()
    traced = 0.0
    for index, op in enumerate(ops):
        tracer.op = index
        elapsed, output, mismatch = runner.run(op)
        tally.add(elapsed, mismatch)
        traced += elapsed
        if output is not None and "file" in op:
            tracer.counts["cli.output_bytes"] += len(output[1].encode())
    metrics = tracer.per_layer()
    metrics["trace.overhead_ratio"] = traced / untraced
    spans = tracer.write_spans(spans_path)
    return {
        "per_layer": metrics,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "first_failure": tally.first_failure,
        "spans": spans,
        "span_file": str(spans_path),
    }


def main(argv) -> int:
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    holriem = import_holriem(Path(plan["src"]))
    runner = Runner(holriem, Path(plan["input_dir"]))
    if plan["trace"]:
        result = traced_run(runner, plan["ops"][: plan["trace_len"]], Path(plan["spans_path"]))
    else:
        result = timed_run(runner, plan["ops"], plan["seconds"], plan["round_len"], plan["warmup"], plan["wrap"])
    result["holriem"] = holriem.__file__
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
