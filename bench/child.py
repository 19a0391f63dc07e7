"""One workload run in a fresh interpreter; started by ``run.py``.

Usage: python3 bench/child.py WORKLOAD SEED SECONDS TRACE SPANS_PATH

Imports ``wfuse`` from ``src/`` of the checkout, runs passes of the
workload through ``wfuse.cli.main(argv)`` in-process with stdout captured,
checks every call's output, and prints one JSON object on its last line.
With TRACE 0 it runs passes until SECONDS have passed.  With TRACE 1 it
runs untraced passes for half of SECONDS, replays the same passes with the
span tracer installed, writes the spans to SPANS_PATH, and reports the
per-layer metrics.
"""

from __future__ import annotations

import gc
import io
import json
import resource
import signal
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import wfuse  # noqa: E402
import wfuse.cli  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import CALL_BUDGET_S, check_op, op_size, pass_ops  # noqa: E402


class BudgetExceeded(BaseException):
    """Raised in the main thread when a call outlives its wall-clock budget.

    A BaseException, so that no ``except Exception`` in the program under
    test can swallow it."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


class _LineClock(io.StringIO):
    """Captured stdout that notes the CPU time each line is completed."""

    def __init__(self) -> None:
        super().__init__()
        self.line_cpu: list[float] = []

    def write(self, s: str) -> int:
        if "\n" in s:
            self.line_cpu.append(process_time())
        return super().write(s)


def run_call(op, budget_s: float, tracer=None):
    """Run one CLI call under a wall-clock budget.

    Returns (exit code or None, stdout, operation CPU times in seconds).  A
    verify call's operations are its cases, timed between consecutive case
    lines; every other call is one operation.
    """
    out = _LineClock()
    if tracer is not None:
        tracer.call += 1
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    start = process_time()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = wfuse.cli.main(list(op.argv))
    except (BudgetExceeded, Exception):  # a failed operation, not a failed run
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    end = process_time()
    text = out.getvalue()
    if op.kind != "verify":
        return code, text, [end - start]
    stamps = [start] + [
        t for line, t in zip(text.splitlines(), out.line_cpu) if line.startswith("n=")
    ]
    return code, text, [b - a for a, b in zip(stamps, stamps[1:])]


def tail(values: list[float]) -> float:
    """Highest percentile with at least ten samples beyond it, or the
    maximum when there are fewer than eleven samples."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, -1)]


class Tally:
    """Operations and CPU times of a series of passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.pass_cpu: list[float] = []
        self.pass_wall: list[float] = []
        self.op_cpu: list[float] = []
        self.tail_cpu: list[float] = []  # per pass, the tail of its operations
        self.trial_us: list[float] = []  # campaign calls: CPU time per trial


def run_pass(workload: str, seed: int, index: int, tally: Tally, tracer=None) -> None:
    budget = CALL_BUDGET_S[workload]
    wall, cpu = perf_counter(), process_time()
    op_cpu = []
    for op in pass_ops(workload, seed, index):
        code, out, op_times = run_call(op, budget, tracer)
        tally.attempted += op_size(op)
        tally.failed += check_op(op, code, out)
        op_cpu.extend(op_times)
        if op.kind.startswith("campaign"):
            tally.trial_us.append(op_times[0] / op.params[1] * 1e6)
    tally.pass_cpu.append(process_time() - cpu)
    tally.pass_wall.append(perf_counter() - wall)
    tally.op_cpu.extend(op_cpu)
    tally.tail_cpu.append(tail(op_cpu))


def run_for(workload: str, seed: int, seconds: float, tally: Tally) -> int:
    """Run passes until ``seconds`` of wall time have passed; at least one."""
    start = perf_counter()
    index = 0
    while index == 0 or perf_counter() - start < seconds:
        run_pass(workload, seed, index, tally)
        index += 1
    return index


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, spans_path = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    # The CLI runs one call per process; here hundreds share one process, so
    # keep the start-up heap out of the collector's full passes.
    gc.freeze()
    tally = Tally()
    if not trace:
        run_for(workload, seed, seconds, tally)
        metrics = {
            "pass_cpu_s": statistics.median(tally.pass_cpu),
            "call_cpu_p50_ms": statistics.median(tally.op_cpu) * 1e3,
            "call_cpu_tail_ms": statistics.median(tally.tail_cpu) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "wall_s": statistics.median(tally.pass_wall),
        }
        per_pass = len(tally.op_cpu) // len(tally.pass_cpu)
        notes = {
            "passes": len(tally.pass_cpu),
            "operations": len(tally.op_cpu),
            "tail_percentile": "median over passes of each pass's "
            f"p{100 * max(per_pass - 10, 1) / per_pass:.1f} of {per_pass}",
            "cpu_share": sum(tally.pass_cpu) / sum(tally.pass_wall),
        }
        if tally.trial_us:
            mode = "recycle" if workload.endswith("recycle") else "plain"
            notes[f"{mode}_trial_us"] = statistics.median(tally.trial_us)
    else:
        passes = run_for(workload, seed, seconds / 2, tally)
        traced = Tally()
        tracer = Tracer()
        with tracer.install(wfuse):
            for index in range(passes):
                run_pass(workload, seed, index, traced, tracer)
        tracer.write(spans_path)
        metrics = layer_metrics(tracer, passes)
        metrics["trace.overhead_ratio"] = statistics.median(
            traced.pass_cpu
        ) / statistics.median(tally.pass_cpu)
        notes = {"passes": passes, "spans": len(tracer.spans)}
        tally.attempted += traced.attempted
        tally.failed += traced.failed
    notes["numpy"] = numpy.__version__
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "notes": notes,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
