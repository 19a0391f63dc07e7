"""Out-of-program span tracing for the benchmark's traced runs.

The tracer patches public ``wfuse`` functions from outside, under the names
the calling modules look them up by, and records one span per call: name,
start, end, parent span and the id of the CLI call it belongs to, plus a
few counters taken from the arguments or the result.  Spans stay in memory
until ``write`` is called at the end of the run.  Nothing in ``wfuse`` is
changed, so the same trace works on every commit that keeps these names.
"""

from __future__ import annotations

import bisect
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import process_time
from typing import Callable, NamedTuple, Optional

# Gate elements of the term algebra, looked up by name in wfuse.protocol.
ELEMENTS = (
    "cross_kerr_on_polarization",
    "cross_kerr_on_path",
    "probe_linear_shift",
    "apply_bs",
    "apply_hwp45",
    "apply_path_coupler",
    "apply_swap",
)
# One (2**q, 3, 3, 9) complex128 working array of the dense oracle.
DENSE_BYTES_PER_BASIS_STATE = 3 * 3 * 9 * 16


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    call: int
    info: dict


def _terms(args, result) -> dict:
    return {"terms": len(result.terms)}


def _branches(args, result) -> dict:
    return {"branches": len(result)}


def _qubits(args, result) -> dict:
    return {"q": args[0] + args[1]}


def _dp_info(args, result) -> dict:
    """Useful (left, right) pairs of the DP, computed from the returned table.

    When the sweep reaches ``right`` it has every reachable size up to
    ``right`` and scores each ``left <= right``.  A pair is useful when its
    output ``left + right`` fits within the maximum size, which holds exactly
    when it fits within the largest reachable size, since such a sum is
    itself reachable.
    """
    sizes = sorted(result.entries)
    top = sizes[-1] if sizes else 0
    useful = sum(
        min(i + 1, bisect.bisect_right(sizes, top - right))
        for i, right in enumerate(sizes)
    )
    return {"pairs_useful": useful}


def _campaign_info(args, result) -> dict:
    return {
        "trials": result.trials,
        "recycling": result.recycling_enabled,
        "mean": result.mean_seeds_consumed,
    }


class Tracer:
    """Span recorder; ``install`` patches wfuse for the duration of a block."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.call = 0
        # (span id, name) of every open span, innermost last
        self._stack: list[tuple[int, str]] = []

    def _wrap(self, name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            result = None
            start = process_time()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = process_time()
                stack.pop()
                extra = info(args, result) if info and result is not None else {}
                spans[sid] = Span(name, start, end, parent, self.call, extra)

        return traced

    def _count(self, name: str, fn: Callable, within: str) -> Callable:
        """Counter only, for functions called too often to span; calls made
        directly inside a ``within`` span are also counted apart."""
        counts, stack = self.counts, self._stack

        def counted(*args, **kwargs):
            counts[name] += 1
            if stack and stack[-1][1] == within:
                counts[f"{name}.within"] += 1
            return fn(*args, **kwargs)

        return counted

    def _patches(self, wfuse) -> list[tuple[object, str, Callable]]:
        cli, optics, protocol, planner = (
            wfuse.cli,
            wfuse.optics,
            wfuse.protocol,
            wfuse.planner,
        )
        patches = [
            (cli, "main", "cli.main", None),
            (cli, "run_fusion", "protocol.run_fusion", None),
            (cli, "brute_force_pipeline", "oracle.brute_force_pipeline", _qubits),
            (cli, "expand_symbolic", "oracle.expand_symbolic", None),
            (cli, "fidelity", "oracle.fidelity", None),
            (cli, "cost_tables_csv", "planner.cost_tables_csv", None),
            (cli, "run_campaign", "planner.run_campaign", _campaign_info),
            (protocol, "make_branch_state", "optics.make_branch_state", _terms),
            (optics, "make_branch_state", "optics.make_branch_state", _terms),
            (protocol, "homodyne_measure", "protocol.homodyne_measure", _branches),
            (protocol, "state_to_json_obj", "optics.state_to_json_obj", None),
            (protocol.OutcomeTree, "to_json_obj", "protocol.to_json_obj", None),
            (planner, "optimal_costs", "planner.optimal_costs", _dp_info),
        ]
        patches += [(protocol, e, f"optics.element.{e}", None) for e in ELEMENTS]
        out = [
            (owner, attr, self._wrap(name, getattr(owner, attr), info))
            for owner, attr, name, info in patches
        ]
        ps_qlf = self._count("planner.ps_qlf", planner.ps_qlf, "planner.optimal_costs")
        out.append((planner, "ps_qlf", ps_qlf))
        return out

    @contextmanager
    def install(self, wfuse):
        patches = self._patches(wfuse)
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, fn in patches:
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def write(self, path) -> None:
        """Write every span as one JSON line, then the counters."""
        with open(path, "w") as fh:
            for sid, sp in enumerate(self.spans):
                rec = {
                    "id": sid,
                    "name": sp.name,
                    "start": sp.start,
                    "end": sp.end,
                    "parent": sp.parent,
                    "call": sp.call,
                }
                rec.update(sp.info)
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
            fh.write(json.dumps({"counters": dict(self.counts)}) + "\n")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    A span's self time is its duration minus that of its direct children;
    spans on one thread never overlap, so the children do not either.
    """
    spans = tracer.spans
    child_ms: defaultdict[int, float] = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child_ms[sp.parent] += (sp.end - sp.start) * 1e3
    dur: defaultdict[str, list[float]] = defaultdict(list)
    self_ms: defaultdict[str, float] = defaultdict(float)
    by_name: defaultdict[str, list[int]] = defaultdict(list)
    for sid, sp in enumerate(spans):
        name = "optics.elements" if sp.name.startswith("optics.element.") else sp.name
        ms = (sp.end - sp.start) * 1e3
        dur[name].append(ms)
        self_ms[name] += ms - child_ms[sid]
        by_name[name].append(sid)

    def per_pass(value: float) -> float:
        return value / passes

    def calls(name: str) -> float:
        return per_pass(len(dur[name]))

    def total(name: str) -> float:
        return per_pass(sum(dur[name]))

    def mean_info(name: str, key: str) -> float:
        vals = [spans[s].info[key] for s in by_name[name] if key in spans[s].info]
        return statistics.fmean(vals) if vals else 0.0

    bf = "oracle.brute_force_pipeline"
    by_q: defaultdict[int, list[float]] = defaultdict(list)
    for s in by_name[bf]:
        by_q[spans[s].info["q"]].append((spans[s].end - spans[s].start) * 1e3)
    dense_bytes = sum(
        (2 ** spans[s].info["q"]) * DENSE_BYTES_PER_BASIS_STATE for s in by_name[bf]
    )

    dp = "planner.optimal_costs"
    pairs_useful = sum(spans[s].info.get("pairs_useful", 0) for s in by_name[dp])
    ps_in_dp = tracer.counts["planner.ps_qlf.within"]

    out = {
        "optics.make_branch_state.calls": calls("optics.make_branch_state"),
        "optics.make_branch_state.total_ms": total("optics.make_branch_state"),
        "optics.terms_per_state": mean_info("optics.make_branch_state", "terms"),
        "optics.elements.calls": calls("optics.elements"),
        "optics.elements.total_ms": total("optics.elements"),
        "optics.state_to_json_obj.total_ms": total("optics.state_to_json_obj"),
        "protocol.run_fusion.calls": calls("protocol.run_fusion"),
        "protocol.run_fusion.total_ms": total("protocol.run_fusion"),
        "protocol.run_fusion.self_ms": per_pass(self_ms["protocol.run_fusion"]),
        "protocol.run_fusion.p50_us": _median(dur["protocol.run_fusion"]) * 1e3,
        "protocol.homodyne_measure.calls": calls("protocol.homodyne_measure"),
        "protocol.homodyne_measure.total_ms": total("protocol.homodyne_measure"),
        "protocol.branches_per_measure": mean_info(
            "protocol.homodyne_measure", "branches"
        ),
        "protocol.to_json_obj.total_ms": total("protocol.to_json_obj"),
        f"{bf}.calls": calls(bf),
        f"{bf}.total_ms": total(bf),
        f"{bf}.q10_ms": _median(by_q[10]),
        f"{bf}.q12_ms": _median(by_q[12]),
        f"{bf}.q14_ms": _median(by_q[14]),
        "oracle.expand_symbolic.total_ms": total("oracle.expand_symbolic"),
        "oracle.fidelity.total_ms": total("oracle.fidelity"),
        "oracle.dense_bytes_computed": per_pass(dense_bytes),
        f"{dp}.calls": calls(dp),
        f"{dp}.total_ms": total(dp),
        "planner.ps_qlf.calls": per_pass(tracer.counts["planner.ps_qlf"]),
        "planner.dp.pairs_useful": per_pass(pairs_useful),
        "planner.dp.useful_ratio": _ratio(pairs_useful, ps_in_dp),
        "planner.cost_tables_csv.total_ms": total("planner.cost_tables_csv"),
        "planner.run_campaign.total_ms": total("planner.run_campaign"),
        "cli.main.calls": calls("cli.main"),
        "cli.self_ms": per_pass(self_ms["cli.main"]),
    }
    # Campaign time per trial excludes the DP that picks the splits.
    for mode, recycling in (("plain", False), ("recycle", True)):
        trials = seeds = sim_ms = 0.0
        for s in by_name["planner.run_campaign"]:
            info = spans[s].info
            if info.get("recycling") is recycling:
                trials += info["trials"]
                seeds += info["mean"] * info["trials"]
                sim_ms += (spans[s].end - spans[s].start) * 1e3 - child_ms[s]
        trial_us = _ratio(sim_ms * 1e3, trials)
        seeds_per_trial = _ratio(seeds, trials)
        out[f"planner.campaign.{mode}.trial_us"] = trial_us
        out[f"planner.campaign.{mode}.seeds_per_trial"] = seeds_per_trial
        out[f"planner.campaign.{mode}.us_per_seed"] = _ratio(trial_us, seeds_per_trial)
    return out
