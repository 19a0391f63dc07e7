"""Tests for the three-stage pipeline: branch structure, probabilities,
recyclable classification, and the outcome tree."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from wfuse.optics import (
    BranchState,
    PathLabel,
    Polarization,
    RegisterKind,
    apply_bs,
    cross_kerr_on_path,
)
from wfuse.protocol import (
    LeafKind,
    build_input_state,
    homodyne_measure,
    polarization_gate,
    project_recyclable,
    run_fusion,
    step2_spatial_gate,
)

ABS_TOL = 1e-12

H = Polarization.H
V = Polarization.V


def amp_by_pols(state):
    return {(t.pol1, t.pol2): t.amplitude for t in state.terms}


# ---------------------------------------------------------------------------
# input construction
# ---------------------------------------------------------------------------


def test_input_2_2_has_four_equal_components():
    state = build_input_state(2, 2)
    amps = amp_by_pols(state)
    assert len(amps) == 4
    for amp in amps.values():
        assert abs(amp - 0.5) < ABS_TOL
    for t in state.terms:
        assert abs(t.exact) == Fraction(1, 4)


def test_input_3_2_amplitudes():
    state = build_input_state(3, 2)
    amps = amp_by_pols(state)
    s6 = math.sqrt(6)
    assert abs(amps[(V, V)] - 1 / s6) < ABS_TOL
    assert abs(amps[(H, V)] - math.sqrt(2) / s6) < ABS_TOL
    assert abs(amps[(V, H)] - 1 / s6) < ABS_TOL
    assert abs(amps[(H, H)] - math.sqrt(2) / s6) < ABS_TOL


def test_json_register_counts_track_parties():
    # the state records no size; the tree's n and m set every count
    doc = run_fusion(3, 5).to_json_obj()
    for stage in doc["stages"]:
        for branch in stage["branches"]:
            for term in branch["state"]:
                assert (term["regA"]["count"], term["regB"]["count"]) == (2, 4)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 9) for m in range(2, 9)])
def test_input_is_normalized(n, m):
    state = build_input_state(n, m)
    assert abs(state.norm_squared() - 1.0) < ABS_TOL
    assert sum(abs(t.exact) for t in state.terms) == 1


def test_input_rejects_small_parties():
    with pytest.raises(ValueError):
        build_input_state(1, 2)
    with pytest.raises(ValueError):
        build_input_state(2, 0)


# ---------------------------------------------------------------------------
# homodyne grouping
# ---------------------------------------------------------------------------


def test_homodyne_groups_first_gate_output():
    state = build_input_state(2, 2)
    branches = polarization_gate(state, H)
    assert [b.phase_class for b in branches] == [1, 3]
    assert abs(branches[0].probability - 0.75) < ABS_TOL
    assert branches[0].probability_exact == Fraction(3, 4)
    assert branches[1].probability_exact == Fraction(1, 4)


def test_homodyne_resets_probe_and_renormalizes():
    state = build_input_state(2, 2)
    for branch in polarization_gate(state, H):
        assert abs(branch.post_state.norm_squared() - 1.0) < ABS_TOL
        assert sum(abs(t.exact) for t in branch.post_state.terms) == 1
        for t in branch.post_state.terms:
            assert t.probe_phase == 0


def test_homodyne_single_class_probability_one():
    state = build_input_state(2, 2)
    branches = homodyne_measure(state)
    assert len(branches) == 1
    assert branches[0].phase_class == 0
    assert abs(branches[0].probability - 1.0) < ABS_TOL


def test_homodyne_rejects_empty_state():
    from wfuse.optics import make_branch_state

    with pytest.raises(ValueError):
        homodyne_measure(make_branch_state([]))


def test_branch_probabilities_sum_to_one():
    for n, m in [(2, 2), (3, 4), (5, 2)]:
        branches = polarization_gate(build_input_state(n, m), H)
        assert abs(sum(b.probability for b in branches) - 1.0) < ABS_TOL
        assert sum(b.probability_exact for b in branches) == 1


# ---------------------------------------------------------------------------
# stage 1
# ---------------------------------------------------------------------------


def test_step1_keep_amplitudes_2_2():
    branches = polarization_gate(build_input_state(2, 2), H)
    keep = branches[0].post_state
    amps = amp_by_pols(keep)
    expected = 1 / math.sqrt(3)
    assert set(amps) == {(V, V), (H, V), (V, H)}
    for amp in amps.values():
        assert abs(amp - expected) < ABS_TOL


def test_step1_keep_probability_3_3():
    branches = polarization_gate(build_input_state(3, 3), H)
    assert branches[0].probability_exact == Fraction(5, 9)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 5), (4, 3), (6, 6)])
def test_step1_keep_probability_formula(n, m):
    branches = polarization_gate(build_input_state(n, m), H)
    assert branches[0].probability_exact == Fraction(n + m - 1, n * m)


def test_step1_drop_branch_is_shrunken_pair():
    branches = polarization_gate(build_input_state(2, 2), H)
    drop = branches[1].post_state
    assert len(drop.terms) == 1
    t = drop.terms[0]
    assert t.reg_a is RegisterKind.W_STATE
    assert t.reg_b is RegisterKind.W_STATE
    assert t.pol1 is H and t.pol2 is H
    assert abs(t.amplitude - 1.0) < ABS_TOL


# ---------------------------------------------------------------------------
# stage 2
# ---------------------------------------------------------------------------


def test_step2_intermediate_zero_branch_structure():
    # stop after the path-conditioned kicks and the measurement
    keep = polarization_gate(build_input_state(2, 2), H)[0].post_state
    s = apply_bs(keep, 1)
    s = apply_bs(s, 2)
    s = cross_kerr_on_path(s, 1, PathLabel.S11, +2)
    s = cross_kerr_on_path(s, 2, PathLabel.S21, -2)
    zero = homodyne_measure(s)[0]
    assert zero.phase_class == 0
    assert abs(zero.probability - 0.5) < ABS_TOL
    combos = {(t.path1, t.path2) for t in zero.post_state.terms}
    assert combos == {(PathLabel.S11, PathLabel.S21), (PathLabel.S12, PathLabel.S22)}
    for t in zero.post_state.terms:
        assert abs(abs(t.amplitude) ** 2 - abs(t.exact)) < ABS_TOL


def test_step2_branches_agree_exactly():
    for n, m in [(2, 2), (3, 2), (4, 5)]:
        keep = polarization_gate(build_input_state(n, m), H)[0].post_state
        zero, nonzero = step2_spatial_gate(keep)
        assert zero.probability_exact == Fraction(1, 2)
        assert nonzero.probability_exact == Fraction(1, 2)
        assert zero.post_state == nonzero.post_state


def test_step2_rejects_branches_the_swap_does_not_align(monkeypatch):
    monkeypatch.setattr("wfuse.protocol.apply_swap", lambda state: state)
    with pytest.raises(RuntimeError, match="diverged after the swap"):
        run_fusion(3, 2)


def test_step2_merged_state_2_2():
    keep = polarization_gate(build_input_state(2, 2), H)[0].post_state
    merged = step2_spatial_gate(keep)[0].post_state
    expected = 1 / math.sqrt(6)
    assert len(merged.terms) == 6
    for t in merged.terms:
        assert t.path1 is PathLabel.UNSPLIT
        assert t.path2 is PathLabel.UNSPLIT
        assert abs(t.amplitude - expected) < ABS_TOL
    pol_patterns = [(t.pol1, t.pol2) for t in merged.terms]
    assert sorted(pol_patterns.count(p) for p in {(H, V), (V, H)}) == [1, 1]
    assert pol_patterns.count((H, H)) == 2
    assert pol_patterns.count((V, V)) == 2


# ---------------------------------------------------------------------------
# stage 3
# ---------------------------------------------------------------------------


def test_step3_success_probability_2_2():
    keep = polarization_gate(build_input_state(2, 2), H)[0].post_state
    merged = step2_spatial_gate(keep)[0].post_state
    branches = polarization_gate(merged, V)
    assert branches[0].probability_exact == Fraction(2, 3)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 4), (5, 5), (2, 7)])
def test_step3_success_probability_formula(n, m):
    keep = polarization_gate(build_input_state(n, m), H)[0].post_state
    merged = step2_spatial_gate(keep)[0].post_state
    branches = polarization_gate(merged, V)
    assert branches[0].probability_exact == Fraction(n + m, 2 * (n + m - 1))


def test_step3_success_state_is_w_form():
    # per-position amplitudes across all single-V patterns must be equal
    for n, m in [(2, 2), (3, 2), (4, 4)]:
        keep = polarization_gate(build_input_state(n, m), H)[0].post_state
        merged = step2_spatial_gate(keep)[0].post_state
        success = polarization_gate(merged, V)[0].post_state
        per_position = []
        for t in success.terms:
            pols = (t.pol1, t.pol2)
            if pols in ((H, V), (V, H)):
                per_position.append(t.amplitude)
            else:
                assert pols == (H, H)
                w_count = n - 1 if t.reg_a is RegisterKind.W_STATE else m - 1
                per_position.append(t.amplitude / math.sqrt(w_count))
        target = 1 / math.sqrt(n + m)
        for amp in per_position:
            assert abs(amp - target) < ABS_TOL


def test_unnormalized_success_amplitude_identity():
    # cumulative amplitude inside one spatial branch, before renormalizing
    for n, m in [(2, 2), (3, 5), (6, 2)]:
        p1 = polarization_gate(build_input_state(n, m), H)[0]
        br2 = step2_spatial_gate(p1.post_state)[0]
        p3 = polarization_gate(br2.post_state, V)[0]
        branch_amp = math.sqrt(p1.probability * br2.probability * p3.probability)
        expected = math.sqrt(n + m) / (2 * math.sqrt(n * m))
        assert abs(branch_amp - expected) < ABS_TOL
        exact = p1.probability_exact * br2.probability_exact * p3.probability_exact
        assert exact == Fraction(n + m, 4 * n * m)


def test_project_recyclable_classifies_merged_branch():
    keep = polarization_gate(build_input_state(3, 4), H)[0].post_state
    merged = step2_spatial_gate(keep)[0].post_state
    drop = polarization_gate(merged, V)[1].post_state
    assert project_recyclable(drop, 3, 4) == (5,)


def test_project_recyclable_rejects_wrong_states():
    state = build_input_state(2, 2)
    with pytest.raises(ValueError):
        project_recyclable(state, 2, 2)


def test_project_recyclable_rejects_unequal_per_position_amplitudes():
    keep = polarization_gate(build_input_state(3, 4), H)[0].post_state
    merged = step2_spatial_gate(keep)[0].post_state
    drop = polarization_gate(merged, V)[1].post_state
    first, second = drop.terms
    flipped = second._replace(exact=-second.exact)
    shrunk = second._replace(exact=second.exact * Fraction(1, 4))
    for bad in (flipped, shrunk):
        with pytest.raises(ValueError, match="unequal"):
            project_recyclable(BranchState((first, bad)), 3, 4)


# ---------------------------------------------------------------------------
# full tree
# ---------------------------------------------------------------------------


def test_run_fusion_2_2_leaf_probabilities():
    tree = run_fusion(2, 2)
    assert tree.leaves[LeafKind.SUCCESS].probability_exact == Fraction(1, 2)
    assert tree.leaves[LeafKind.RECYCLABLE_PAIR].probability_exact == Fraction(1, 4)
    assert tree.leaves[LeafKind.RECYCLABLE_MERGED].probability_exact == Fraction(1, 4)


def test_run_fusion_3_3_success():
    tree = run_fusion(3, 3)
    assert tree.leaves[LeafKind.SUCCESS].probability_exact == Fraction(1, 3)


def test_run_fusion_2_3_success():
    tree = run_fusion(2, 3)
    assert tree.leaves[LeafKind.SUCCESS].probability_exact == Fraction(5, 12)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 9) for m in range(2, 9)])
def test_run_fusion_grid_invariants(n, m):
    tree = run_fusion(n, m)
    success = tree.leaves[LeafKind.SUCCESS]
    pair = tree.leaves[LeafKind.RECYCLABLE_PAIR]
    merged = tree.leaves[LeafKind.RECYCLABLE_MERGED]
    assert success.probability_exact == Fraction(n + m, 2 * n * m)
    assert pair.probability_exact == Fraction((n - 1) * (m - 1), n * m)
    assert merged.probability_exact == Fraction(n + m - 2, 2 * n * m)
    total = success.probability + pair.probability + merged.probability
    assert abs(total - 1.0) < ABS_TOL
    # float and exact tracks agree leaf by leaf
    for leaf in tree.leaves.values():
        assert abs(leaf.probability - float(leaf.probability_exact)) < ABS_TOL
    assert success.sizes == (n + m,)
    assert pair.sizes == (n - 1, m - 1)
    assert merged.sizes == (n + m - 2,)


def test_run_fusion_records_both_spatial_continuations():
    tree = run_fusion(3, 2)
    labels = [st.label for st in tree.stages]
    assert labels[0] == "polarization-gate-1"
    assert labels[1] == "spatial-gate"
    assert len(labels) == 4
    assert labels[2] != labels[3]
    # the two continuations report identical branch statistics
    s3a, s3b = tree.stages[2], tree.stages[3]
    for ba, bb in zip(s3a.branches, s3b.branches):
        assert ba.probability_exact == bb.probability_exact
        assert ba.post_state == bb.post_state


def _stage_keys(tree):
    """Term keys of every stage branch and every leaf of a tree."""
    branches = [
        [t.key for t in br.post_state.terms] for st in tree.stages for br in st.branches
    ]
    leaves = [[t.key for t in lf.state.terms] for lf in tree.leaves.values()]
    return branches, leaves


def test_stage_keys_do_not_depend_on_party_sizes():
    # no gate reads or changes a register's size, so n and m reach the
    # states only through the input weights
    reference = _stage_keys(run_fusion(2, 2))
    for n in range(2, 13):
        for m in range(2, 13):
            assert _stage_keys(run_fusion(n, m)) == reference, (n, m)


def test_tree_serialization_shape_and_determinism():
    tree = run_fusion(2, 3)
    doc = tree.to_json_obj()
    assert set(doc) == {"n", "m", "stages", "leaves"}
    assert doc["n"] == 2 and doc["m"] == 3
    for stage in doc["stages"]:
        assert set(stage) == {"label", "branches"}
        for branch in stage["branches"]:
            assert set(branch) == {"phaseClass", "prob", "state"}
    kinds = [leaf["class"] for leaf in doc["leaves"]]
    assert kinds == ["success", "recyclable-pair", "recyclable-merged"]
    assert abs(sum(leaf["cumProb"] for leaf in doc["leaves"]) - 1.0) < 1e-9
    again = run_fusion(2, 3).to_json_obj()
    assert json.dumps(doc) == json.dumps(again)
