"""Resource planning on top of the fusion pipeline.

Costs count expected seed states under the accounting where a failed
fusion destroys both inputs; the balanced-split recursion gives the cheapest
split for every reachable size.  The campaign simulator estimates the same
quantity by Monte Carlo and can optionally feed recyclable failure
products back into production, which the analytic accounting ignores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .optics import round_sig12

MAX_PLAN_SIZE = 10_000
# the campaign keeps one float64 count per trial: at most an 80 MB array
MAX_TRIALS = 10_000_000
# the loss-free fusion is the only scheme; its name tags every output row
SCHEME = "qlf"


def ps_qlf(n: int, m: int) -> Fraction:
    """Success probability of the loss-free fusion of sizes n and m."""
    if n < 2 or m < 2:
        raise ValueError("input sizes must be >= 2")
    return Fraction(n + m, 2 * n * m)


def p_pair(n: int, m: int) -> Fraction:
    """Probability that the fusion of sizes n and m fails into a recyclable
    pair W_{n-1}, W_{m-1}; the rest of the failures merge into W_{n+m-2}."""
    if n < 2 or m < 2:
        raise ValueError("input sizes must be >= 2")
    return Fraction((n - 1) * (m - 1), n * m)


@dataclass(frozen=True)
class CostEntry:
    opt_cost: Fraction
    best_split: Optional[tuple[int, int]]


@dataclass(frozen=True)
class CostTable:
    seed_size: int
    seed_cost: Fraction
    entries: dict


def optimal_costs(seed_size: int, seed_cost, max_size: int) -> CostTable:
    """Cheapest fusion plan for every size reachable from one seed.

    Costs and splits are exact fractions.  The reachable sizes are the
    multiples ``k * seed_size``, and the cheapest plan for each is the
    balanced split ``left, right = (k // 2) * seed_size,
    (k - k // 2) * seed_size`` with cost
    ``(c[left] + c[right]) / ps_qlf(left, right)``.  So the table takes one
    exact step per reachable size.

    No proof is known that the balanced split is optimal at every size.
    What backs it is a bounded check over the whole domain this function
    accepts (``tests/test_planner.py``): an exact dynamic program that
    scores every split, with ties going to the most balanced one, picks the
    balanced split for every seed 2..5000 at ``MAX_PLAN_SIZE``.  Larger
    seeds reach only themselves.  A smaller maximum gives a prefix of the
    same table, and costs are linear in the seed cost, so neither changes
    the choice.
    """
    if seed_size < 2:
        raise ValueError("seed size must be >= 2")
    if not 1 <= max_size <= MAX_PLAN_SIZE:
        raise ValueError(f"max size must be in 1..{MAX_PLAN_SIZE}")
    seed_cost = Fraction(seed_cost)
    if seed_cost <= 0:
        raise ValueError("seed cost must be positive")
    entries: dict[int, CostEntry] = {}
    if seed_size > max_size:
        return CostTable(seed_size, seed_cost, entries)
    entries[seed_size] = CostEntry(seed_cost, None)
    for k in range(2, max_size // seed_size + 1):
        left, right = (k // 2) * seed_size, (k - k // 2) * seed_size
        # the module global, so a patched ps_qlf sees these calls too
        cost = (entries[left].opt_cost + entries[right].opt_cost) / ps_qlf(
            left, right
        )
        entries[k * seed_size] = CostEntry(cost, (left, right))
    return CostTable(seed_size, seed_cost, entries)


CSV_HEADER = "size,scheme,seed_size,seed_cost,opt_cost,split_k,split_rest"


def _fmt(value) -> str:
    return f"{float(value):.12g}"


def cost_tables_csv(tables: Sequence[CostTable]) -> str:
    """Render cost tables as CSV, rows ordered by table then size."""
    lines = [CSV_HEADER]
    for table in tables:
        for size in sorted(table.entries):
            entry = table.entries[size]
            if entry.best_split is None:
                split_k = split_rest = ""
            else:
                split_k, split_rest = map(str, entry.best_split)
            lines.append(
                f"{size},{SCHEME},{table.seed_size},"
                f"{_fmt(table.seed_cost)},{_fmt(entry.opt_cost)},{split_k},{split_rest}"
            )
    return "\n".join(lines) + "\n"


def plot_data(tables: Sequence[CostTable]) -> str:
    """Two-column size/cost text, one block per curve."""
    blocks = []
    for table in tables:
        lines = [f"# scheme={SCHEME} seed={table.seed_size}"]
        for size in sorted(table.entries):
            lines.append(f"{size} {_fmt(table.entries[size].opt_cost)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


@dataclass(frozen=True)
class CampaignResult:
    target_size: int
    trials: int
    mean_seeds_consumed: float
    # None for a single trial, where the standard error is undefined
    std_error: Optional[float]
    recycling_enabled: bool

    def to_json_obj(self) -> dict:
        return {
            "target": self.target_size,
            "trials": self.trials,
            "mean": round_sig12(self.mean_seeds_consumed),
            "stderr": None if self.std_error is None else round_sig12(self.std_error),
            "recycling": self.recycling_enabled,
        }


# uniforms per generator call; the stream read does not depend on it
UNIFORM_BLOCK = 4096


def _uniforms(rng):
    """The generator's uniforms one at a time, drawn in blocks."""
    while True:
        # a memoryview yields Python floats without a list per block
        yield from memoryview(rng.random(UNIFORM_BLOCK))


def _simulate_trials(
    target: int,
    seed_size: int,
    nodes: dict,
    recycling: bool,
    rng,
    trials: int,
) -> np.ndarray:
    """Seeds consumed by each trial; the trials read one uniform stream in
    order.  ``nodes`` maps a size to ``(k, r, p_success, p_pair_cut)``, where
    a uniform below the cut and not below ``p_success`` is a pair failure."""
    if target == seed_size:
        return np.ones(trials)
    draw = _uniforms(rng).__next__
    pool: dict[int, int] = {}
    seeds = 0

    def obtain(size: int) -> None:
        # each part comes from the pool, else a seed, else its own fusion
        nonlocal seeds
        k, r, p_success, p_pair_cut = nodes[size]
        while True:
            for part in (k, r):
                if pool.get(part):
                    pool[part] -= 1
                elif part == seed_size:
                    seeds += 1
                else:
                    obtain(part)
            u = draw()
            if u < p_success:
                return
            if recycling:
                if u < p_pair_cut:
                    for back in (k - 1, r - 1):
                        if back >= 2:
                            pool[back] = pool.get(back, 0) + 1
                else:
                    back = k + r - 2
                    pool[back] = pool.get(back, 0) + 1

    counts = np.empty(trials)
    for t in range(trials):
        pool.clear()
        seeds = 0
        obtain(target)
        counts[t] = seeds
    # obtain refers to itself through its closure; leave no cycle behind
    del obtain
    return counts


def run_campaign(
    target_size: int,
    seed_size: int,
    trials: int,
    recycling: bool,
    rng_seed: int,
) -> CampaignResult:
    """Monte-Carlo estimate of seeds consumed per target state produced.

    Follows the planner's best splits; with recycling on, failure
    products of size >= 2 go to a pool that future needs draw from first.
    One generator, seeded with ``rng_seed``, feeds every trial in order, so
    which draws a trial reads depends on the trials before it: trials are
    statistically independent but no longer order-independent.  The output
    is deterministic for each seed.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be in 1..{MAX_TRIALS}")
    table = optimal_costs(seed_size, 1, target_size)
    if target_size not in table.entries:
        raise ValueError(
            f"size {target_size} is not reachable from seed {seed_size}"
        )
    nodes = {}
    for size, e in table.entries.items():
        if e.best_split is not None:
            p_success = float(ps_qlf(*e.best_split))
            p_pair_cut = p_success + float(p_pair(*e.best_split))
            nodes[size] = (*e.best_split, p_success, p_pair_cut)
    counts = _simulate_trials(
        target_size,
        seed_size,
        nodes,
        recycling,
        np.random.default_rng(rng_seed),
        trials,
    )
    mean = float(counts.mean())
    std_error = (
        float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else None
    )
    return CampaignResult(target_size, trials, mean, std_error, recycling)
