"""Tests for the three-stage pipeline: branch structure, probabilities,
the outcome tree, and the size-free gate run that ``run_fusion`` weighs.
The phase-class and merged-W-state checks run once, in that gate run; the
tests below call them directly, and through a cold run with a patched gate.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from wfuse import optics, planner, protocol
from wfuse.optics import (
    BranchState,
    FusionTerm,
    PathLabel,
    Polarization,
    RegisterKind,
    apply_bs,
    cross_kerr_on_path,
    make_branch_state,
)
from wfuse.protocol import (
    LeafKind,
    homodyne_measure,
    polarization_gate,
    run_fusion,
    step2_spatial_gate,
)

from symbolic_helpers import build_input_state

ABS_TOL = 1e-12

H = Polarization.H
V = Polarization.V


def amp_by_pols(state):
    return {(t.pol1, t.pol2): t.amplitude for t in state.terms}


@pytest.fixture
def cold_gate_run():
    """Clear the per-process gate run before and after the test, so a patched
    element runs and leaves nothing cached behind it."""
    protocol._gate_run.cache_clear()
    yield
    protocol._gate_run.cache_clear()


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


def test_step2_rejects_branches_the_swap_does_not_align(monkeypatch, cold_gate_run):
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


def _size_free_drop_state():
    """The drop branch of the second probe gate, run on the size-free input."""
    keep = polarization_gate(protocol._size_free_input(), H)[0].post_state
    merged = step2_spatial_gate(keep)[0].post_state
    return polarization_gate(merged, V)[1].post_state


def test_merged_check_accepts_the_cached_drop_branch():
    run = protocol._gate_run()
    drop = run.gates[2][1]
    assert drop.phase_class == 3
    protocol._check_merged(run.states[drop.state])
    assert run.states[drop.state] == protocol._SizeFreeState.of(_size_free_drop_state())


def test_merged_check_rejects_the_size_free_input():
    state = protocol._SizeFreeState.of(protocol._size_free_input())
    with pytest.raises(ValueError, match="not all vertical"):
        protocol._check_merged(state)


def test_merged_check_rejects_unequal_per_position_amplitudes():
    first, second = _size_free_drop_state().terms
    flipped = second._replace(exact=-second.exact)
    shrunk = second._replace(exact=second.exact * Fraction(1, 4))
    for bad in (flipped, shrunk):
        state = protocol._SizeFreeState.of(BranchState((first, bad)))
        with pytest.raises(ValueError, match="unequal"):
            protocol._check_merged(state)


def test_merged_check_rejects_a_missing_pattern():
    first, _ = _size_free_drop_state().terms
    state = protocol._SizeFreeState.of(BranchState((first,)))
    with pytest.raises(ValueError, match="two single-W patterns"):
        protocol._check_merged(state)


def test_cold_run_rejects_unequal_merged_terms(monkeypatch, cold_gate_run):
    real = protocol.polarization_gate

    def gate(state, pol):
        branches = real(state, pol)
        if pol is V:
            first, second = branches[1].post_state.terms
            bad = BranchState((first, second._replace(exact=second.exact / 4)))
            branches[1] = replace(branches[1], post_state=bad)
        return branches

    monkeypatch.setattr(protocol, "polarization_gate", gate)
    with pytest.raises(ValueError, match="per-position amplitudes are unequal"):
        run_fusion(3, 4)


def test_cold_run_rejects_branches_out_of_phase_class_order(monkeypatch, cold_gate_run):
    real = protocol.homodyne_measure
    monkeypatch.setattr(protocol, "homodyne_measure", lambda state: real(state)[::-1])
    with pytest.raises(RuntimeError, match="phase classes") as raised:
        run_fusion(3, 4)
    assert "[[3, 1], [2, 0], [3, 1]]" in str(raised.value)


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


# ---------------------------------------------------------------------------
# one gate run per process
# ---------------------------------------------------------------------------

# the names through which the gate sequence reaches the term algebra
GATE_NAMES = (
    "make_branch_state",
    "normalize_global_phase",
    "homodyne_measure",
    "cross_kerr_on_polarization",
    "cross_kerr_on_path",
    "probe_linear_shift",
    "apply_bs",
    "apply_hwp45",
    "apply_path_coupler",
    "apply_swap",
)


def _count_calls(monkeypatch, targets) -> dict:
    """Count the calls made through each (module, name) from now on."""
    calls = {name: 0 for _, name in targets}
    for module, name in targets:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_warm_run_fusion_makes_no_gate_calls(monkeypatch, cold_gate_run):
    run_fusion(2, 2)
    # the elements reach make_branch_state through optics' own name
    targets = [(protocol, name) for name in GATE_NAMES]
    calls = _count_calls(monkeypatch, targets + [(optics, "make_branch_state")])
    for n, m in [(2, 2), (3, 5), (17, 4), (1000, 999)]:
        run_fusion(n, m)
    assert calls == dict.fromkeys(GATE_NAMES, 0)
    # the counters see a cold run
    protocol._gate_run.cache_clear()
    run_fusion(3, 5)
    assert calls["homodyne_measure"] == 3
    assert all(calls[name] > 0 for name in GATE_NAMES)


def test_warm_run_fusion_runs_no_size_free_check(monkeypatch, cold_gate_run):
    run_fusion(2, 2)
    names = ("_check_classes", "_check_merged")
    calls = _count_calls(monkeypatch, [(protocol, name) for name in names])
    for n, m in [(2, 2), (3, 5), (17, 4), (1000, 999)]:
        run_fusion(n, m)
    assert calls == dict.fromkeys(names, 0)
    # the counters see a cold run
    protocol._gate_run.cache_clear()
    run_fusion(3, 5)
    assert calls == dict.fromkeys(names, 1)


def test_cold_gate_run_gives_the_warm_tree(cold_gate_run):
    pairs = [(2, 2), (2, 9), (7, 3), (31, 31), (500, 700)]
    warm = [run_fusion(n, m) for n, m in pairs]
    protocol._gate_run.cache_clear()
    cold = [run_fusion(n, m) for n, m in pairs]
    assert cold == warm
    assert [t.to_json_obj() for t in cold] == [t.to_json_obj() for t in warm]


def test_weighed_run_equals_the_gates_run_at_the_party_sizes():
    """The reference: the gate sequence run on the input at (n, m), which
    the test helper writes term by term, sharing no weighing code with
    ``run_fusion``.  Every branch probability and stored signed square is
    the same Fraction."""
    pairs = [(n, m) for n in range(2, 13) for m in range(2, 13)]
    for n, m in pairs + [(500, 700), (1000, 2)]:
        gate1 = polarization_gate(build_input_state(n, m), H)
        spatial = step2_spatial_gate(gate1[0].post_state)
        gate2 = polarization_gate(spatial[0].post_state, V)
        want = [tuple(gate1), tuple(spatial), tuple(gate2), tuple(gate2)]
        assert [st.branches for st in run_fusion(n, m).stages] == want, (n, m)


def test_gate_run_state_is_shared_and_immutable():
    # functools.cache hands one result to every caller
    run = protocol._gate_run()
    assert protocol._gate_run() is run
    assert len(run.states) == 5
    assert [len(s.terms) for s in run.states] == [3, 1, 6, 4, 2]
    with pytest.raises(TypeError):
        run.states[0].terms[0][2] += 1


# A polynomial in a = n-1 and b = m-1 is a dict {(i, j): coefficient of a^i b^j}.
# The register patterns weigh 1, a, b and ab (protocol._PATTERNS).
PATTERN_MONOMIALS = ((0, 0), (1, 0), (0, 1), (1, 1))


def _poly(coeffs: dict) -> dict:
    return {mono: c for mono, c in coeffs.items() if c}


def _linear(sums) -> dict:
    return _poly(dict(zip(PATTERN_MONOMIALS, sums)))


def _add(p: dict, q: dict) -> dict:
    out = dict(p)
    for mono, c in q.items():
        out[mono] = out.get(mono, 0) + c
    return _poly(out)


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i, j), c in p.items():
        for (k, l), d in q.items():
            out[(i + k, j + l)] = out.get((i + k, j + l), 0) + c * d
    return _poly(out)


def _evaluate(p: dict, n: int, m: int) -> int:
    return sum(c * (n - 1) ** i * (m - 1) ** j for (i, j), c in p.items())


def _branch_rates(branches) -> dict:
    """Each branch's probability as (numerator, denominator) polynomials."""
    den = {}
    for br in branches:
        den = _add(den, _linear(br.sums))
    return {br.phase_class: (_linear(br.sums), den) for br in branches}


def _symbolic_leaves():
    """The three leaf probabilities of the cached run as rational functions,
    and the index of each leaf's state."""
    gate1, spatial, gate2 = protocol._gate_run().gates
    g1, g2 = _branch_rates(gate1), _branch_rates(gate2)
    sp = _branch_rates(spatial)
    # both spatial branches lead on to the second gate, so, as in run_fusion,
    # success = keep1 * (zero + two) * keep3 and merged = ... * drop3
    (z_num, z_den), (t_num, t_den) = sp[0], sp[2]
    assert z_den == t_den
    through = (_mul(g1[1][0], _add(z_num, t_num)), _mul(g1[1][1], z_den))
    states = {b.phase_class: b.state for b in gate2}
    pair_state = next(b.state for b in gate1 if b.phase_class == 3)
    return {
        LeafKind.SUCCESS: (
            (_mul(through[0], g2[1][0]), _mul(through[1], g2[1][1])),
            states[1],
        ),
        LeafKind.RECYCLABLE_PAIR: (g1[3], pair_state),
        LeafKind.RECYCLABLE_MERGED: (
            (_mul(through[0], g2[3][0]), _mul(through[1], g2[3][1])),
            states[3],
        ),
    }


# (n+m)/(2nm), (n-1)(m-1)/(nm) and (n+m-2)/(2nm) with n = a+1, m = b+1
NM = {(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1}  # nm = (a+1)(b+1)
PAPER_RATES = {
    LeafKind.SUCCESS: ({(1, 0): 1, (0, 1): 1, (0, 0): 2}, _mul({(0, 0): 2}, NM)),
    LeafKind.RECYCLABLE_PAIR: ({(1, 1): 1}, NM),
    LeafKind.RECYCLABLE_MERGED: ({(1, 0): 1, (0, 1): 1}, _mul({(0, 0): 2}, NM)),
}


def test_leaf_probabilities_hold_for_symbolic_party_sizes():
    leaves = _symbolic_leaves()
    for kind, ((num, den), _) in leaves.items():
        want_num, want_den = PAPER_RATES[kind]
        # num/den == want_num/want_den as rational functions of a and b
        assert _mul(num, want_den) == _mul(den, want_num), kind
    # the planner's rates are the same functions
    rates = {LeafKind.SUCCESS: planner.ps_qlf, LeafKind.RECYCLABLE_PAIR: planner.p_pair}
    sizes = [2, 3, 4, 7, 10, 64, 999, 10**6]
    for kind, rate in rates.items():
        (num, den), _ = leaves[kind]
        for n in sizes:
            for m in sizes:
                want = Fraction(_evaluate(num, n, m), _evaluate(den, n, m))
                assert rate(n, m) == want
    # and the leaves exhaust the outcomes at every n and m
    total_num, total_den = {}, {(0, 0): 1}
    for (num, den), _ in leaves.values():
        total_num = _add(_mul(total_num, den), _mul(num, total_den))
        total_den = _mul(total_den, den)
    assert total_num == total_den


def _v_slots(key) -> tuple:
    """Where a term's vertical photons sit: in A's or B's kept register (a W
    register holds exactly one) or on traveling photon 1 or 2."""
    reg_a, reg_b, pol1, path1, pol2, path2, k = key
    assert (path1, path2, k) == (PathLabel.UNSPLIT, PathLabel.UNSPLIT, 0)
    w = RegisterKind.W_STATE
    flags = (reg_a is w, reg_b is w, pol1 is V, pol2 is V)
    return tuple(slot for slot, v in zip(("A", "B", "p1", "p2"), flags) if v)


def test_leaves_are_w_states_for_symbolic_party_sizes():
    """A term of pattern weight w and signed square w*c/Z stands for w basis
    states of amplitude sign(c)*sqrt(|c|/Z), so equal c means one amplitude
    and one sign.  A's register holds n-1 positions, B's m-1, and each
    traveling photon one."""
    run = protocol._gate_run()
    for kind, (_, index) in _symbolic_leaves().items():
        state = run.states[index]
        slots = sorted(_v_slots(key) for key, _, _ in state.terms)
        if kind is LeafKind.SUCCESS:
            # one V over n-1 + m-1 + 1 + 1 = n+m disjoint positions: W_{n+m}
            assert slots == [("A",), ("B",), ("p1",), ("p2",)]
        elif kind is LeafKind.RECYCLABLE_PAIR:
            # one V in A's n-1 positions times one in B's m-1: W_{n-1} W_{m-1}
            assert slots == [("A", "B")]
        else:
            # both photons V, one V over n-1 + m-1 positions: W_{n+m-2}
            assert slots == [("A", "p1", "p2"), ("B", "p1", "p2")]
        assert len({c for _, _, c in state.terms}) == 1
        assert state.terms[0][2] > 0


# ---------------------------------------------------------------------------
# the exact norm checks
# ---------------------------------------------------------------------------


def _drop_last_term(state):
    return BranchState(state.terms[:-1])


def _inflate_first_term(state):
    first = state.terms[0]
    return BranchState((first._replace(exact=first.exact * 4),) + state.terms[1:])


@pytest.mark.parametrize("mutate", [_drop_last_term, _inflate_first_term])
@pytest.mark.parametrize("element", ["apply_path_coupler", "probe_linear_shift"])
def test_element_that_changes_the_norm_fails_the_pattern_check(
    monkeypatch, cold_gate_run, element, mutate
):
    """A lost term lowers the norm, which the removed float cap (norm at
    most 1 + 1e-12) let pass; an inflated one raises it, which the cap
    caught.  Keeping every pattern's sum exactly implies both."""
    real = getattr(protocol, element)
    monkeypatch.setattr(protocol, element, lambda *args: mutate(real(*args)))
    with pytest.raises(ValueError, match="changed a register pattern's norm"):
        run_fusion(3, 5)


@pytest.mark.parametrize("sign", [1, -1])
def test_terms_that_meet_at_the_probe_reset_fail_the_partition(sign):
    # k = +1 and k = -1 meet at k = 0: they add to twice the norm, or cancel
    term = FusionTerm(
        RegisterKind.ALL_HORIZONTAL, RegisterKind.ALL_HORIZONTAL,
        H, PathLabel.UNSPLIT, V, PathLabel.UNSPLIT, 1, Fraction(1, 2),
    )
    state = make_branch_state(
        [term, term._replace(probe_phase=-1, exact=sign * term.exact)]
    )
    with pytest.raises(ValueError, match="changed a norm"):
        homodyne_measure(state)


def test_homodyne_reports_shares_of_an_unnormalized_state():
    state = polarization_gate(build_input_state(3, 4), H)[0].post_state
    s = step2_spatial_gate(state)[0].post_state
    scaled = BranchState(tuple(t._replace(exact=3 * t.exact) for t in s.terms))
    assert polarization_gate(scaled, V) == polarization_gate(s, V)
