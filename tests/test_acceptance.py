"""Acceptance suite.

One test per shipped criterion, each with its tolerance pinned inline and a
single summary line printed on success.  Run with `pytest -v -s` to see the
per-criterion lines alongside the pass/fail status.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np

from wfuse.cli import main as cli_main
from wfuse.homodyne import ProbeConfig, p_error
from wfuse.optics import Polarization
from wfuse.oracle import (
    brute_force_pipeline,
    expand_symbolic,
    fidelity,
    make_w_state,
)
from wfuse.planner import (
    optimal_costs,
    ps_qlf,
    run_campaign,
)
from wfuse.protocol import (
    LeafKind,
    polarization_gate,
    run_fusion,
    step2_spatial_gate,
)

from dense_helpers import (
    SWAP_MATRIX,
    embed_register_state,
    mach_zehnder_mode_matrix,
    two_photon_routing_matrix,
)
from symbolic_helpers import build_input_state

ABS_TOL = 1e-12
FID_TOL = 1e-10

FULL_GRID = [(n, m) for n in range(2, 9) for m in range(2, 9)]
ORACLE_GRID = [(n, m) for n, m in FULL_GRID if n + m <= 10]


def _stage_branch(tree, stage_label, abs_class):
    for stage in tree.stages:
        if stage.label == stage_label:
            for branch in stage.branches:
                if branch.phase_class == abs_class:
                    return branch
    raise AssertionError(f"missing {stage_label} class {abs_class}")


def test_criterion_1_success_probability():
    start = time.perf_counter()
    for n, m in FULL_GRID:
        tree = run_fusion(n, m)
        leaf = tree.leaves[LeafKind.SUCCESS]
        want = Fraction(n + m, 2 * n * m)
        assert leaf.probability_exact == want
        assert abs(leaf.probability - float(want)) <= ABS_TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"grid sweep took {elapsed:.2f}s"
    print(
        f"PASS criterion 1: success probability (n+m)/(2nm) exact and "
        f"within {ABS_TOL:g} on the 2..8 grid in {elapsed:.2f}s"
    )


def test_criterion_2_stage_probabilities():
    for n, m in FULL_GRID:
        tree = run_fusion(n, m)
        keep1 = _stage_branch(tree, "polarization-gate-1", 1)
        want1 = Fraction(n + m - 1, n * m)
        assert keep1.probability_exact == want1
        assert abs(keep1.probability - float(want1)) <= ABS_TOL

        for abs_class in (0, 2):
            br2 = _stage_branch(tree, "spatial-gate", abs_class)
            assert br2.probability_exact == Fraction(1, 2)
            assert abs(br2.probability - 0.5) <= ABS_TOL

        for via in ("phase-class-0", "phase-class-2"):
            keep3 = _stage_branch(tree, f"polarization-gate-2[via {via}]", 1)
            want3 = Fraction(n + m, 2 * (n + m - 1))
            assert keep3.probability_exact == want3
            assert abs(keep3.probability - float(want3)) <= ABS_TOL
    print(
        "PASS criterion 2: stage branch probabilities (n+m-1)/(nm), 1/2, "
        "(n+m)/(2(n+m-1)) across the 2..8 grid"
    )


def test_criterion_3_success_state_and_amplitude():
    for n, m in ORACLE_GRID:
        tree = run_fusion(n, m)
        vec = expand_symbolic(tree.leaves[LeafKind.SUCCESS].state, n, m)
        fid = fidelity(vec, make_w_state(n + m))
        assert fid >= 1.0 - FID_TOL, f"(n={n}, m={m}) fidelity {fid}"

        keep1 = _stage_branch(tree, "polarization-gate-1", 1)
        keep3 = _stage_branch(
            tree, "polarization-gate-2[via phase-class-0]", 1
        )
        branch_exact = (
            keep1.probability_exact * Fraction(1, 2) * keep3.probability_exact
        )
        assert branch_exact == Fraction(n + m, 4 * n * m)
        amp = math.sqrt(
            keep1.probability * 0.5 * keep3.probability
        )
        want_amp = math.sqrt(n + m) / (2.0 * math.sqrt(n * m))
        assert abs(amp - want_amp) <= ABS_TOL
    print(
        "PASS criterion 3: success leaf matches the target W state within "
        f"{FID_TOL:g} and the single-branch amplitude matches within {ABS_TOL:g}"
    )


def test_criterion_4_recyclable_branches():
    for n, m in FULL_GRID:
        tree = run_fusion(n, m)
        pair = tree.leaves[LeafKind.RECYCLABLE_PAIR]
        merged = tree.leaves[LeafKind.RECYCLABLE_MERGED]
        assert pair.probability_exact == Fraction((n - 1) * (m - 1), n * m)
        assert merged.probability_exact == Fraction(n + m - 2, 2 * n * m)
        total = sum(leaf.probability for leaf in tree.leaves.values())
        assert abs(total - 1.0) <= ABS_TOL
        assert pair.sizes == (n - 1, m - 1)
        assert merged.sizes == (n + m - 2,)

    for n, m in ORACLE_GRID:
        tree = run_fusion(n, m)
        dense = brute_force_pipeline(n, m)
        pair_vec = expand_symbolic(tree.leaves[LeafKind.RECYCLABLE_PAIR].state, n, m)
        pair = dense[LeafKind.RECYCLABLE_PAIR].state
        assert fidelity(pair_vec, pair) >= 1.0 - FID_TOL
        merged_leaf = tree.leaves[LeafKind.RECYCLABLE_MERGED]
        merged_vec = expand_symbolic(merged_leaf.state, n, m)
        merged = dense[LeafKind.RECYCLABLE_MERGED].state
        assert fidelity(merged_vec, merged) >= 1.0 - FID_TOL
        expect = embed_register_state(make_w_state(n + m - 2), n, m, True, True)
        assert fidelity(merged, expect) >= 1.0 - FID_TOL
    print(
        "PASS criterion 4: recyclable leaf probabilities, register contents, "
        f"and unit leaf sum within {ABS_TOL:g}"
    )


def test_criterion_5_swap_gate():
    composed = two_photon_routing_matrix(mach_zehnder_mode_matrix())
    hot = np.unravel_index(np.argmax(np.abs(composed)), composed.shape)
    phase = composed[hot] / abs(composed[hot])
    aligned = composed / phase
    assert np.max(np.abs(aligned - SWAP_MATRIX)) <= ABS_TOL
    assert np.max(np.abs(aligned @ aligned - np.eye(4))) <= ABS_TOL

    for n, m in [(2, 2), (3, 2), (4, 3)]:
        keep1 = next(
            b
            for b in polarization_gate(build_input_state(n, m), Polarization.H)
            if b.phase_class == 1
        )
        zero, nonzero = step2_spatial_gate(keep1.post_state)
        assert zero.phase_class == 0
        assert nonzero.phase_class == 2
        assert zero.post_state == nonzero.post_state
    print(
        "PASS criterion 5: interferometer composition reproduces the swap "
        f"matrix within {ABS_TOL:g} and the swapped branch matches exactly"
    )


def test_criterion_6_homodyne_error():
    probe = ProbeConfig(90000.0, 0.01)
    pe = p_error(probe, 0, 2)
    assert abs(pe - 3.4e-6) / 3.4e-6 <= 0.15

    alphas = (30000.0, 60000.0, 90000.0, 120000.0, 240000.0)
    values = [
        p_error(ProbeConfig(a, 0.01), 0, 2)
        for a in alphas
    ]
    assert all(x > y for x, y in zip(values, values[1:]))
    print(
        f"PASS criterion 6: readout error {pe:.3e} within 15% of 3.4e-6 and "
        "monotone in the probe amplitude at 5 points"
    )


def _all_tree_costs(seed: int, target: int) -> set:
    @lru_cache(maxsize=None)
    def costs(size: int) -> frozenset:
        acc = {Fraction(1)} if size == seed else set()
        for left in range(seed, size):
            right = size - left
            if right < max(seed, 2) or left > right or left < 2:
                continue
            p = ps_qlf(left, right)
            for cl in costs(left):
                for cr in costs(right):
                    acc.add((cl + cr) / p)
        return frozenset(acc)

    return set(costs(target))


def test_criterion_7_planner():
    for seed in (2, 3):
        table = optimal_costs(seed, Fraction(1), 10)
        for size, entry in table.entries.items():
            if size == seed:
                assert entry.opt_cost == Fraction(1)
                continue
            trees = _all_tree_costs(seed, size)
            assert trees and entry.opt_cost == min(trees)

    pair_cost = optimal_costs(2, Fraction(1), 4).entries[4].opt_cost
    triple_cost = optimal_costs(3, Fraction(1), 6).entries[6].opt_cost
    assert pair_cost == Fraction(4)
    assert triple_cost == Fraction(6)

    start = time.perf_counter()
    pair = optimal_costs(2, Fraction(1), 250)
    triple = optimal_costs(3, Fraction(1), 250)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"planning to 250 took {elapsed:.2f}s"
    common = set(pair.entries) & set(triple.entries)
    assert common
    for size in common:
        assert triple.entries[size].opt_cost <= pair.entries[size].opt_cost
    print(
        "PASS criterion 7: dynamic program matches tree enumeration to "
        f"size 10, anchors 4 and 6 hold, triple seed never loses, "
        f"250-size tables in {elapsed:.2f}s"
    )


def test_criterion_8_campaign_consistency():
    off = run_campaign(4, 2, 100_000, recycling=False, rng_seed=2024)
    assert abs(off.mean_seeds_consumed - 4.0) <= 3 * off.std_error
    on = run_campaign(4, 2, 100_000, recycling=True, rng_seed=2024)
    combined = math.hypot(on.std_error, off.std_error)
    assert on.mean_seeds_consumed <= off.mean_seeds_consumed + 3 * combined
    print(
        f"PASS criterion 8: campaign mean {off.mean_seeds_consumed:.3f} within "
        f"3 standard errors of 4; recycling mean {on.mean_seeds_consumed:.3f} "
        "does not exceed it"
    )


def test_criterion_9_cli_determinism(capsys):
    invocations = [
        ["fuse", "-n", "4", "-m", "3"],
        ["fuse", "-n", "2", "-m", "2", "--format", "csv"],
        ["plan", "--seed", "2", "--seed", "3", "--max", "30"],
        ["error", "--alpha", "90000", "--theta", "0.01"],
        ["campaign", "--target", "4", "--trials", "2000", "--rng", "11"],
    ]
    for argv in invocations:
        code_a = cli_main(argv)
        out_a = capsys.readouterr()
        code_b = cli_main(argv)
        out_b = capsys.readouterr()
        assert code_a == code_b == 0
        assert out_a.out == out_b.out
        assert out_a.err == out_b.err
    with capsys.disabled():
        print(
            "\nPASS criterion 9: repeated CLI invocations are byte-identical "
            "for fuse, plan, error, and campaign"
        )
