"""Entry point of the wfuse benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload symbolic --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 18

One workload run starts a few fresh interpreters that only import
``wfuse.cli`` (the set-up time), then one fresh child interpreter
(``bench/child.py``) that runs the workload's CLI calls in-process and
checks their output, bracketed by runs of a calibration kernel
(``bench/reference.py``) that its CPU times are divided by.  Everything runs
one process at a time.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced replay with ``--trace 1``.  Each run is also recorded,
with its environment, under ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from workloads import CALL_BUDGET_S, WORKLOADS  # noqa: E402

# Reported in the record and the human-readable lines, not in the result.
UNGATED = {
    "pass_cpu_s": "s",
    "call_cpu_p50_ms": "ms",
    "call_cpu_tail_ms": "ms",
    "wall_s": "s",
    "reference_ms": "ms",
    "plain_trial_us": "us",
    "recycle_trial_us": "us",
}
SETUP_REPEATS = 7
REFERENCE_REPEATS = 4
# A run must end within 180 s; the child's own per-call budgets end it far
# sooner, so this only catches a child that stopped responding.
CHILD_TIMEOUT_CAP_S = 150.0
IMPORT_ONLY = (
    "import sys, time; sys.path.insert(0, 'src'); import wfuse.cli; "
    "print(time.process_time())"
)


def child_env() -> dict:
    """Same environment for every child: one BLAS thread (runs are meant to
    use one core, and the workloads use no BLAS), a fixed hash seed."""
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def time_setup(env: dict) -> float:
    """CPU seconds a fresh interpreter spends until ``wfuse.cli`` is imported."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_ONLY],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError("importing wfuse.cli failed")
    return float(proc.stdout)


def run_child(workload: str, seed: int, seconds: int, trace: int, env: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload}-seed{seed}.spans.jsonl"
    cmd = [
        sys.executable,
        str(BENCH / "child.py"),
        workload,
        str(seed),
        str(seconds),
        str(trace),
        str(spans),
    ]
    timeout = min(CHILD_TIMEOUT_CAP_S, 2 * seconds + CALL_BUDGET_S[workload] + 30)
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_cpu(env: dict) -> list[float]:
    """CPU seconds of the calibration kernel in ``reference.py``, once per
    repeat, in a process of its own."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "reference.py"), str(REFERENCE_REPEATS)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError("the calibration kernel failed")
    return json.loads(proc.stdout)


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    units = declared_units(trace)
    env = child_env()
    load_start = os.getloadavg()[0]
    if trace:
        child = run_child(workload, seed, seconds, trace, env)
        metrics = child["metrics"]
    else:
        setup_s = statistics.median(time_setup(env) for _ in range(SETUP_REPEATS))
        refs = reference_cpu(env)
        child = run_child(workload, seed, seconds, trace, env)
        ref = statistics.median(refs + reference_cpu(env))
        raw = child["metrics"]
        metrics = {
            "setup_s": setup_s,
            "pass_cpu_rel": raw["pass_cpu_s"] / ref,
            "call_cpu_p50_rel": raw["call_cpu_p50_ms"] / 1e3 / ref,
            "call_cpu_tail_rel": raw["call_cpu_tail_ms"] / 1e3 / ref,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        child["notes"].update(raw, reference_ms=ref * 1e3)
    if metrics.keys() != units.keys():
        raise RuntimeError("measured metrics differ from those BENCHMARK.json declares")
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": child["notes"]["numpy"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_1m_start": load_start,
            "loadavg_1m_end": os.getloadavg()[0],
        },
        "notes": child["notes"],
        "result": {
            "correct": child["failed"] == 0,
            "attempted": child["attempted"],
            "failed": child["failed"],
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    return record


def report(record: dict) -> None:
    """Human-readable lines: environment, failures, every metric by name."""
    res = record["result"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}")
    print("# env " + json.dumps(record["env"]))
    print("# notes " + json.dumps(record["notes"]))
    ratio = res["failed"] / res["attempted"]
    print(f"fail_ratio = {ratio:g} ({res['failed']} of {res['attempted']})")
    for name, m in res["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, unit in UNGATED.items():
        if name in record["notes"]:
            print(f"{name} = {record['notes'][name]:.6g} {unit} (not gated)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wfuse" / "cli.py").is_file():
        print("error: no wfuse sources at src/wfuse in this checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, args.seconds, args.trace)
        except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        report(record)
        records.append(record)
    if args.workload != "all":
        print(json.dumps(records[0]["result"]))
        return 0
    rows = {"fail_ratio": ("", [r["result"]["failed"] / r["result"]["attempted"] for r in records])}
    for name, m in records[0]["result"]["metrics"].items():
        rows[name] = (m["unit"], [r["result"]["metrics"][name]["value"] for r in records])
    if not args.trace:
        rows["wall_s"] = ("s", [r["notes"]["wall_s"] for r in records])
    print(f"{'metric [unit]':<40}" + "".join(f"{r['workload']:>17}" for r in records))
    for name, (unit, values) in rows.items():
        label = f"{name} [{unit}]" if unit else name
        print(f"{label:<40}" + "".join(f"{v:>17.6g}" for v in values))
    return 0 if all(r["result"]["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
