"""Tests for the resource planner and the sampling campaign.

The planner's balanced recursion is validated against a brute-force
enumeration of every fusion tree reachable from the seed, carried out in exact
rational arithmetic, against the quadratic exact DP that scores every split in
Fractions, and against a prescreened exact DP over every seed and size that
``optimal_costs`` accepts.
"""

from __future__ import annotations

import gc
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from wfuse import planner
from wfuse.planner import (
    CSV_HEADER,
    MAX_PLAN_SIZE,
    MAX_TRIALS,
    CostEntry,
    CostTable,
    cost_tables_csv,
    optimal_costs,
    p_pair,
    plot_data,
    ps_qlf,
    run_campaign,
)
from wfuse.protocol import LeafKind, run_fusion

# ---------------------------------------------------------------------------
# brute-force oracle: enumerate every fusion tree
# ---------------------------------------------------------------------------


def all_tree_costs(seed: int, target: int, limit: int) -> set:
    """Expected costs of every distinct fusion tree for the target size."""

    @lru_cache(maxsize=None)
    def costs(size: int) -> frozenset:
        if size == seed:
            base = {Fraction(1)}
        else:
            base = set()
        for left in range(seed, size):
            right = size - left
            if right < seed or left > right:
                continue
            if left < 2 or right < 2:
                continue
            p = ps_qlf(left, right)
            for cl in costs(left):
                for cr in costs(right):
                    base.add((cl + cr) / p)
        return frozenset(base)

    found = costs(target)
    assert len(found) <= limit
    return set(found)


def _reference_costs(seed_size: int, seed_cost, max_size: int) -> dict:
    """The quadratic exact DP: every fitting (left, right) pair in Fraction
    arithmetic, choosing by the key (cost, right - left, left)."""
    seed_cost = Fraction(seed_cost)
    entries: dict = {}
    best: dict = {}
    if seed_size <= max_size:
        entries[seed_size] = CostEntry(seed_cost, None)
    for right in range(seed_size, max_size + 1):
        if right in best and right not in entries:
            cost, _, k = best[right]
            entries[right] = CostEntry(cost, (k, right - k))
        if right not in entries:
            continue
        right_cost = entries[right].opt_cost
        for left, entry in entries.items():
            size = left + right
            if left > right or size > max_size:
                break
            cost = (entry.opt_cost + right_cost) / ps_qlf(left, right)
            cand = (cost, right - left, left)
            if size not in best or cand < best[size]:
                best[size] = cand
    return entries


# ---------------------------------------------------------------------------
# success probability
# ---------------------------------------------------------------------------


def test_success_probability_values():
    assert ps_qlf(2, 2) == Fraction(1, 2)
    assert ps_qlf(2, 3) == Fraction(5, 12)
    assert ps_qlf(3, 3) == Fraction(1, 3)
    assert ps_qlf(2, 4) == Fraction(3, 8)
    assert ps_qlf(5, 5) == Fraction(1, 5)


def test_success_probability_symmetry_and_bound():
    for n in range(2, 9):
        for m in range(2, 9):
            p = ps_qlf(n, m)
            assert p == ps_qlf(m, n)
            assert Fraction(0) < p <= Fraction(1, 2)


def test_success_probability_rejects_small_inputs():
    with pytest.raises(ValueError):
        ps_qlf(1, 3)
    with pytest.raises(ValueError):
        ps_qlf(2, 0)


def test_rates_match_pipeline_leaves():
    """The campaign's rates and leaf sizes are those of the pipeline."""
    for n in range(2, 9):
        for m in range(2, 9):
            tree = run_fusion(n, m)
            success = tree.leaves[LeafKind.SUCCESS]
            pair = tree.leaves[LeafKind.RECYCLABLE_PAIR]
            merged = tree.leaves[LeafKind.RECYCLABLE_MERGED]
            assert success.probability_exact == ps_qlf(n, m)
            assert pair.probability_exact == p_pair(n, m)
            assert success.sizes == (n + m,)
            assert pair.sizes == (n - 1, m - 1)
            assert merged.sizes == (n + m - 2,)


# ---------------------------------------------------------------------------
# dynamic program
# ---------------------------------------------------------------------------


def test_pair_seed_table_known_values():
    table = optimal_costs(2, Fraction(1), 10)
    got = {size: entry.opt_cost for size, entry in table.entries.items()}
    assert got == {
        2: Fraction(1),
        4: Fraction(4),
        6: Fraction(40, 3),
        8: Fraction(32),
        10: Fraction(416, 5),
    }


def test_triple_seed_table_known_values():
    table = optimal_costs(3, Fraction(1), 9)
    got = {size: entry.opt_cost for size, entry in table.entries.items()}
    assert got == {3: Fraction(1), 6: Fraction(6), 9: Fraction(28)}


@pytest.mark.parametrize("seed", [2, 3])
def test_dynamic_program_matches_tree_enumeration(seed):
    table = optimal_costs(seed, Fraction(1), 10)
    for size, entry in table.entries.items():
        if size == seed:
            continue
        trees = all_tree_costs(seed, size, limit=100_000)
        assert trees, f"no fusion tree reaches size {size}"
        assert entry.opt_cost == min(trees)


def test_recorded_splits_recompose():
    table = optimal_costs(2, Fraction(1), 24)
    for size, entry in table.entries.items():
        if entry.best_split is None:
            assert size == 2
            continue
        k, rest = entry.best_split
        assert k + rest == size
        expected = (
            table.entries[k].opt_cost + table.entries[rest].opt_cost
        ) / ps_qlf(k, rest)
        assert entry.opt_cost == expected


def test_seed_cost_scales_linearly():
    unit = optimal_costs(2, Fraction(1), 16)
    scaled = optimal_costs(2, Fraction(3, 2), 16)
    for size in unit.entries:
        assert scaled.entries[size].opt_cost == Fraction(3, 2) * unit.entries[size].opt_cost


def test_triple_seed_never_beaten_by_pair_seed_at_common_sizes():
    pair = optimal_costs(2, Fraction(1), 50)
    triple = optimal_costs(3, Fraction(1), 50)
    common = sorted(set(pair.entries) & set(triple.entries))
    assert common, "tables share no sizes"
    for size in common:
        assert triple.entries[size].opt_cost <= pair.entries[size].opt_cost


def test_unreachable_sizes_are_absent():
    table = optimal_costs(2, Fraction(1), 11)
    assert set(table.entries) == {2, 4, 6, 8, 10}
    table3 = optimal_costs(3, Fraction(1), 11)
    assert set(table3.entries) == {3, 6, 9}


@pytest.mark.parametrize(
    "seed_cost",
    [1, Fraction(3, 2), 0.1, 1e308, 3e-300, Fraction(7, 3)],
    ids=str,
)
@pytest.mark.parametrize("seed", range(2, 8))
def test_dynamic_program_matches_reference(seed, seed_cost):
    """The balanced recursion picks the costs and splits of the full exact DP.

    The seed costs 1e308 and 3e-300 pin that no step of the table passes
    through a float, which would overflow or underflow at these values.
    """
    for max_size in (1, seed, 2 * seed, 97, 300):
        table = optimal_costs(seed, seed_cost, max_size)
        expected = _reference_costs(seed, seed_cost, max_size)
        assert table.entries == expected, (seed, seed_cost, max_size)


# relative width of the float prescreen's window; see _prescreened_costs
PRESCREEN_WINDOW = 1e-9


def _prescreened_costs(seed_size: int, max_size: int) -> tuple:
    """The exact DP over every split, with a float prescreen, at seed cost 1.

    Returns the cost table's entries and the number of sizes whose best
    split is not the balanced one.  Only the multiples ``k * seed_size`` are
    reachable, so the DP runs in units of the seed ``s``:
    ``k = left + right`` in units.  The cost of ``(left, right)`` is
    ``(c[left] + c[right]) / ps_qlf(left * s, right * s)``, which is
    ``(c[left] + c[right]) * left * right`` times the constant ``2 s / k``.
    So the prescreen scores every ``left <= right`` in one numpy pass with
    the unit costs ``u[k] = float(c[k])``:
    ``score = (u[left] + u[right]) * (left * right)``.  The kept candidates
    are checked exactly from the most balanced down, and a later one wins
    only with a strictly lower cost.

    Window bound.  Each ``u[k]`` is the correctly rounded value of an exact
    number, so rounding errors do not carry from one size to the next.
    ``left * right <= 2500**2`` is an exact float.  A score then takes at most
    4 roundings from exact inputs (two conversions, the sum, the product),
    so its relative error is at most ``d = 4 * 2**-53 ~ 4.4e-16``.  Unit
    costs are at least 1 and below 2**95 up to size 10000, so nothing
    underflows or overflows.  If ``S`` is the exact minimum score, every
    float score is at least ``S * (1 - d)``, and the float score of any
    exact minimiser is at most ``S * (1 + d)``.  So the window
    ``score <= min * (1 + PRESCREEN_WINDOW)`` holds every exact minimiser,
    since ``(1 + d) / (1 - d) < 1 + 1e-9`` by far.
    """
    top = max_size // seed_size
    exact = [None, Fraction(1)]
    unit = np.empty(top + 1)
    unit[1] = 1.0
    units = np.arange(top + 1, dtype=np.float64)
    entries = {seed_size: CostEntry(Fraction(1), None)}
    exceptions = 0
    for k in range(2, top + 1):
        n = k // 2
        lefts = units[1 : n + 1]
        # the right parts k - 1 down to k - n line up with lefts 1..n
        score = (unit[1 : n + 1] + unit[k - 1 : k - n - 1 : -1]) * (
            lefts * (k - lefts)
        )
        window = np.flatnonzero(score <= score.min() * (1 + PRESCREEN_WINDOW))
        best_cost = best_left = None
        for left in (window[::-1] + 1).tolist():
            right = k - left
            cost = (exact[left] + exact[right]) / ps_qlf(
                left * seed_size, right * seed_size
            )
            if best_cost is None or cost < best_cost:
                best_cost, best_left = cost, left
        exceptions += best_left != n
        exact.append(best_cost)
        unit[k] = float(best_cost)
        entries[k * seed_size] = CostEntry(
            best_cost, (best_left * seed_size, (k - best_left) * seed_size)
        )
    return entries, exceptions


def test_balanced_split_is_optimal_over_the_whole_domain():
    """Every seed 2..5000 at the largest max size picks the balanced split.

    Seeds above 5000 reach only themselves.  A smaller max size gives a
    prefix of the same table, in the DP as in the recursion, and costs are
    linear in the seed cost, so the argmin does not depend on it.  This
    bounded check is what backs ``optimal_costs``; no proof for unbounded
    sizes is known.
    """
    sizes = exceptions = 0
    for seed in range(2, MAX_PLAN_SIZE // 2 + 1):
        expected, missed = _prescreened_costs(seed, MAX_PLAN_SIZE)
        sizes += len(expected) - 1
        exceptions += missed
        assert optimal_costs(seed, 1, MAX_PLAN_SIZE).entries == expected, seed
    assert (sizes, exceptions) == (73_669, 0)


def test_optimal_costs_calls_ps_qlf_through_the_module(monkeypatch):
    """One ps_qlf call per reachable size, through the module global.

    The bench tracer counts ps_qlf by patching this name; a binding that
    let the DP's calls escape the patch would count 0.
    """
    calls = []

    def counting(n, m):
        calls.append((n, m))
        return ps_qlf(n, m)

    monkeypatch.setattr(planner, "ps_qlf", counting)
    optimal_costs(2, 1, 2000)
    assert len(calls) == 999


def test_max_size_below_seed_yields_empty_table():
    table = optimal_costs(4, Fraction(1), 3)
    assert table.entries == {}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_csv_header_and_rows():
    table = optimal_costs(2, Fraction(1), 6)
    text = cost_tables_csv([table])
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "2,qlf,2,1,1,,"
    assert lines[2] == "4,qlf,2,1,4,2,2"
    assert lines[3] == "6,qlf,2,1,13.3333333333,2,4"
    assert text.endswith("\n")


def test_csv_is_deterministic():
    tables = [
        optimal_costs(2, Fraction(1), 30),
        optimal_costs(3, Fraction(1), 30),
    ]
    assert cost_tables_csv(tables) == cost_tables_csv(tables)


def test_plot_data_blocks():
    tables = [
        optimal_costs(2, Fraction(1), 8),
        optimal_costs(3, Fraction(1), 8),
    ]
    text = plot_data(tables)
    blocks = text.strip().split("\n\n")
    assert len(blocks) == 2
    first = blocks[0].splitlines()
    assert first[0] == "# scheme=qlf seed=2"
    assert first[1].split() == ["2", "1"]
    assert first[2].split() == ["4", "4"]


# ---------------------------------------------------------------------------
# sampling campaign
# ---------------------------------------------------------------------------


def test_campaign_is_deterministic():
    a = run_campaign(4, 2, 500, recycling=False, rng_seed=42)
    b = run_campaign(4, 2, 500, recycling=False, rng_seed=42)
    assert a.mean_seeds_consumed == b.mean_seeds_consumed
    assert a.std_error == b.std_error


def test_campaign_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_campaign(4, 2, 0, recycling=False, rng_seed=1)
    with pytest.raises(ValueError):
        run_campaign(5, 2, 100, recycling=False, rng_seed=1)
    # rejected before a count array of MAX_TRIALS + 1 floats is allocated
    with pytest.raises(ValueError, match="trials must be in 1.."):
        run_campaign(4, 2, MAX_TRIALS + 1, recycling=False, rng_seed=1)


def test_campaign_mean_matches_planner_cost():
    table = optimal_costs(2, Fraction(1), 4)
    expected = float(table.entries[4].opt_cost)
    result = run_campaign(4, 2, 40_000, recycling=False, rng_seed=9)
    assert result.std_error > 0
    assert abs(result.mean_seeds_consumed - expected) < 3 * result.std_error


def test_recycling_reduces_seed_consumption():
    off = run_campaign(8, 2, 30_000, recycling=False, rng_seed=5)
    on = run_campaign(8, 2, 30_000, recycling=True, rng_seed=5)
    assert on.mean_seeds_consumed < off.mean_seeds_consumed
    assert off.mean_seeds_consumed - on.mean_seeds_consumed > 3 * max(on.std_error, off.std_error)


def test_campaign_json_shape():
    result = run_campaign(4, 2, 100, recycling=True, rng_seed=3)
    doc = result.to_json_obj()
    assert set(doc) == {"target", "trials", "mean", "stderr", "recycling"}
    assert doc["target"] == 4
    assert doc["trials"] == 100
    assert doc["recycling"] is True


def exact_plain_moments(target: int, seed_size: int = 2) -> tuple:
    """Exact mean and variance of the seeds one trial consumes without
    recycling, along the planner's splits.

    A tree node of size s retries its split (k, r) until success, so its
    attempts A are geometric with p = ps_qlf(k, r): E A = 1/p and
    Var A = (1 - p)/p**2.  Each attempt costs Y = X_k + X_r, independent of
    A and of the other attempts, so by the law of total variance
    E X_s = E A * E Y and Var X_s = E A * Var Y + Var A * (E Y)**2.
    """
    table = optimal_costs(seed_size, Fraction(1), target)

    @lru_cache(maxsize=None)
    def moments(size: int) -> tuple:
        split = table.entries[size].best_split
        if split is None:
            return Fraction(1), Fraction(0)
        (mean_k, var_k), (mean_r, var_r) = map(moments, split)
        p = ps_qlf(*split)
        mean_a, var_a = 1 / p, (1 - p) / p**2
        mean_y, var_y = mean_k + mean_r, var_k + var_r
        return mean_a * mean_y, mean_a * var_y + var_a * mean_y**2

    return moments(target)


def test_exact_plain_moments_anchor_values():
    assert exact_plain_moments(4) == (4, 8)
    assert exact_plain_moments(8) == (32, 832)
    assert exact_plain_moments(16) == (512, 242_688)
    for size in (4, 8, 16, 32):
        mean, _ = exact_plain_moments(size)
        assert mean == optimal_costs(2, Fraction(1), size).entries[size].opt_cost


def test_plain_campaign_matches_exact_moments():
    trials = 20_000
    mean, var = exact_plain_moments(8)
    exact_se = math.sqrt(var / trials)
    result = run_campaign(8, 2, trials, recycling=False, rng_seed=43)
    # 4 exact standard errors: a false failure about once in 16 000 seeds
    assert abs(result.mean_seeds_consumed - float(mean)) < 4 * exact_se
    # the kurtosis of X_8 is about 9, so at 20 000 trials the sample standard
    # error spreads about 1 % around the exact one; 5 % is 5 sigma
    assert abs(result.std_error / exact_se - 1) < 0.05


def test_recycling_campaign_at_target_4_consumes_seven_halves():
    """Target 4 fuses two seeds with p = 1/2.  A failure is a pair
    W_1, W_1 (probability 1/4, nothing to recycle) or a merged W_2
    (probability 1/4, recycled as a seed).  So the pool holds 0 or 1
    seeds, and from those states a trial needs E0 and E1 more seeds:
    E0 = 2 + E0/4 + E1/4 and E1 = 1 + E0/4 + E1/4.  Subtracting gives
    E0 - E1 = 1, so E0 = 7/4 + E0/2 and E0 = 7/2.
    """
    result = run_campaign(4, 2, 200_000, recycling=True, rng_seed=41)
    assert abs(result.mean_seeds_consumed - 3.5) < 4 * result.std_error


def test_recycling_campaign_at_target_8_consumes_twenty_eight():
    """Target 8 fuses two W_4 with p = ps_qlf(4, 4) = 1/4.  A W_4 costs 7/2
    seeds, as at target 4: each W_4 attempt draws a pooled W_2 first, so the
    pool holds no W_2 when a W_4 finishes, and every W_4 starts from an
    empty pool.  A failed W_8 fusion leaves two W_3 or one W_6, sizes the
    tree never requests, so nothing carries over between W_8 attempts.  The
    attempts are geometric with mean 4, each costs 2 * 7/2 seeds, and the
    mean is 4 * 2 * 7/2 = 28.
    """
    result = run_campaign(8, 2, 50_000, recycling=True, rng_seed=88)
    assert abs(result.mean_seeds_consumed - 28) < 4 * result.std_error


def test_campaign_at_seed_size_consumes_one_seed():
    result = run_campaign(2, 2, 5, recycling=True, rng_seed=1)
    assert (result.mean_seeds_consumed, result.std_error) == (1.0, 0.0)


def test_campaign_builds_one_generator(monkeypatch):
    seeds = []
    real = np.random.default_rng

    def counting(seed):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    run_campaign(8, 2, 100, recycling=True, rng_seed=3)
    assert seeds == [3]


def test_campaign_leaves_no_garbage_cycle():
    run_campaign(8, 2, 20, recycling=True, rng_seed=0)
    gc.collect()
    gc.disable()
    try:
        run_campaign(8, 2, 1000, recycling=True, rng_seed=1)
        assert gc.collect() == 0
    finally:
        gc.enable()
