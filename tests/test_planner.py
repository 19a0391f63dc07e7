"""Tests for the resource planner and the sampling campaign.

The dynamic program is validated against a brute-force enumeration of every
fusion tree reachable from the seed, carried out in exact rational arithmetic,
and against the quadratic exact DP that scores every split in Fractions.
"""

from __future__ import annotations

import gc
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from wfuse.planner import (
    CSV_HEADER,
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
            success = tree.leaf(LeafKind.SUCCESS)
            pair = tree.leaf(LeafKind.RECYCLABLE_PAIR)
            merged = tree.leaf(LeafKind.RECYCLABLE_MERGED)
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
    """The prescreened DP picks the costs and splits of the full exact one.

    A seed cost of 1e308 would overflow a prescreen that scored at the real
    seed cost, and sizes would drop out of the table.
    """
    for max_size in (1, seed, 2 * seed, 97, 300):
        table = optimal_costs(seed, seed_cost, max_size)
        expected = _reference_costs(seed, seed_cost, max_size)
        assert table.entries == expected, (seed, seed_cost, max_size)


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
