"""Tests for the dense-vector oracle and its cross-checks against the
symbolic pipeline."""

from __future__ import annotations

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wfuse.oracle import (
    MAX_QUBITS,
    DenseState,
    _flip,
    brute_force_pipeline,
    expand_symbolic,
    fidelity,
    make_w_state,
)
from wfuse.planner import p_pair, ps_qlf
from wfuse.protocol import LeafKind, run_fusion

from dense_helpers import embed_register_state, gather, kept_w_product, scatter
from symbolic_helpers import build_input_state

FID_TOL = 1e-10

GRID = [(n, m) for n in range(2, 9) for m in range(2, 9) if n + m <= 10]
REFERENCE_GRID = [(n, m) for n in range(2, 15) for m in range(2, 15) if n + m <= 16]


def _idx(*indices: int) -> np.ndarray:
    return np.array(indices, dtype=np.int64)


def _reference_pipeline(n: int, m: int) -> dict:
    """The oracle on full 2**q vectors: every live slice covers all indices
    and a half-wave plate is a gather over all of them.  Returns each leaf
    kind's (probability, 2**q vector)."""
    q = n + m
    idx = np.arange(2**q)
    vertical = ((idx >> (n - 1)) & 1) + ((idx >> (q - 1)) & 1)
    masks = [vertical == c for c in range(3)]
    unsplit = (0, 0, 0)

    def collect(items):
        out = {}
        for key, vec in items:
            out[key] = out[key] + vec if key in out else vec
        return out

    def kerr(state, sectors):
        return collect(
            ((p1, p2, k + s), np.where(mask, vec, 0.0))
            for (p1, p2, k), vec in state.items()
            for s, mask in sectors
        )

    def measure(state, ks):
        hits = [(key, vec) for key, vec in state.items() if key[2] in ks]
        prob = float(sum(np.sum(vec * vec) for _, vec in hits))
        post = collect(((p1, p2, 0), vec) for (p1, p2, _), vec in hits)
        return prob, {key: vec * (1.0 / np.sqrt(prob)) for key, vec in post.items()}

    product = np.kron(scatter(make_w_state(m)), scatter(make_w_state(n)))
    stage = kerr({unsplit: product}, [(1 - 2 * (2 - c), masks[c]) for c in range(3)])
    p_keep1, psi = measure(stage, (-1, 1))
    p_pair, pair_branch = measure(stage, (-3,))
    half = psi[unsplit] / 2.0
    stage = {(1, 1, 0): half, (1, 2, 2): half, (2, 1, -2): half, (2, 2, 0): half}
    p_zero, zero_branch = measure(stage, (0,))
    p_two, two_branch = measure(stage, (-2, 2))
    swapped = {(p1, 3 - p2, k): vec for (p1, p2, k), vec in two_branch.items()}
    flip1, flip2 = idx ^ (1 << (n - 1)), idx ^ (1 << (q - 1))
    sectors = [(1 - 2 * c, masks[c]) for c in range(3)]
    p_succ = p_merge = 0.0
    leaf_states = []
    for p_branch, branch in [(p_zero, zero_branch), (p_two, swapped)]:
        plated = []
        for (p1, p2, k), vec in branch.items():
            if p1 == 1:
                vec = vec[flip1]
            if p2 == 2:
                vec = vec[flip2]
            plated.append(((0, 0, k), vec))
        stage = kerr(collect(plated), sectors)
        p_s, succ = measure(stage, (-1, 1))
        p_m, merge = measure(stage, (-3,))
        p_succ += p_keep1 * p_branch * p_s
        p_merge += p_keep1 * p_branch * p_m
        leaf_states.append((succ[unsplit], merge[unsplit]))
    return {
        LeafKind.SUCCESS: (p_succ, leaf_states[0][0]),
        LeafKind.RECYCLABLE_PAIR: (p_pair, pair_branch[unsplit]),
        LeafKind.RECYCLABLE_MERGED: (p_merge, leaf_states[0][1]),
    }


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_w1_is_the_lone_vertical_photon():
    w1 = make_w_state(1)
    assert np.allclose(scatter(w1), [0.0, 1.0])


def test_w2_and_w3_components():
    w2 = scatter(make_w_state(2))
    assert abs(w2[0b01] - 1 / math.sqrt(2)) < FID_TOL
    assert abs(w2[0b10] - 1 / math.sqrt(2)) < FID_TOL
    w3 = scatter(make_w_state(3))
    for idx in (0b001, 0b010, 0b100):
        assert abs(w3[idx] - 1 / math.sqrt(3)) < FID_TOL
    assert abs(np.sum(np.abs(w3) ** 2) - 1.0) < FID_TOL


def test_w_state_is_permutation_symmetric():
    n = 5
    w = scatter(make_w_state(n))
    idx = np.arange(2**n)
    # exchange qubits 1 and 3
    b1, b3 = (idx >> 1) & 1, (idx >> 3) & 1
    swapped = idx ^ ((b1 ^ b3) << 1) ^ ((b1 ^ b3) << 3)
    assert np.allclose(w, w[swapped])


def test_w_state_size_limits():
    with pytest.raises(ValueError):
        make_w_state(0)
    with pytest.raises(ValueError):
        make_w_state(63)
    top = make_w_state(62)
    assert top.support[-1] == 1 << 61


def test_dense_state_requires_normalization():
    with pytest.raises(ValueError):
        DenseState(2, _idx(0, 1, 2, 3), np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        DenseState(2, _idx(0, 1, 2), np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        DenseState(1, _idx(0, 1), np.array([np.nan, 1.0]))


@pytest.mark.parametrize(
    "support,amplitudes",
    [
        (_idx(2, 1), [0.6, 0.8]),  # unsorted
        (_idx(1, 1), [0.6, 0.8]),  # duplicate index
        (_idx(1, 4), [0.6, 0.8]),  # index >= 2**2
        (_idx(-1, 1), [0.6, 0.8]),  # negative index
        (_idx(0, 1, 2), [0.6, 0.8]),  # shape mismatch
        (np.array([0, 1], dtype=np.int32), [0.6, 0.8]),  # not int64
    ],
)
def test_dense_state_rejects_a_bad_support(support, amplitudes):
    DenseState(2, _idx(1, 2), np.array([0.6, 0.8]))  # the valid twin
    with pytest.raises(ValueError):
        DenseState(2, support, np.array(amplitudes))


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


def test_fidelity_of_identical_states_is_one():
    w = make_w_state(4)
    assert abs(fidelity(w, w) - 1.0) < FID_TOL


def test_fidelity_of_orthogonal_states_is_zero():
    a = DenseState(1, _idx(0, 1), np.array([1.0, 0.0], dtype=complex))
    b = DenseState(1, _idx(0, 1), np.array([0.0, 1.0], dtype=complex))
    assert fidelity(a, b) < FID_TOL
    # disjoint supports share no index at all
    assert fidelity(gather(scatter(a)), gather(scatter(b))) == 0.0


def test_fidelity_sign_flipped_w3():
    w3 = make_w_state(3)
    flipped = scatter(w3)
    flipped[0b100] = -flipped[0b100]
    assert abs(fidelity(w3, gather(flipped)) - 1 / 9) < FID_TOL


def test_fidelity_keeps_a_complex_input():
    plus_i = DenseState(1, _idx(0, 1), np.array([1.0, 1.0j]) / math.sqrt(2))
    minus_i = DenseState(1, _idx(0, 1), np.array([1.0, -1.0j]) / math.sqrt(2))
    assert plus_i.amplitudes.dtype == np.complex128
    assert abs(fidelity(plus_i, minus_i)) < FID_TOL
    assert abs(fidelity(plus_i, plus_i) - 1.0) < FID_TOL


def test_fidelity_rejects_size_mismatch():
    with pytest.raises(ValueError):
        fidelity(make_w_state(2), make_w_state(3))


# ---------------------------------------------------------------------------
# symbolic expansion
# ---------------------------------------------------------------------------


def test_expand_input_product_equals_w_tensor_w():
    for n, m in [(2, 2), (3, 2), (2, 4), (3, 3)]:
        dense = expand_symbolic(build_input_state(n, m), n, m)
        expected = np.kron(scatter(make_w_state(m)), scatter(make_w_state(n)))
        assert np.allclose(scatter(dense), expected, atol=1e-12)


def test_expand_rejects_empty_state():
    from wfuse.optics import make_branch_state

    with pytest.raises(ValueError):
        expand_symbolic(make_branch_state([]), 2, 2)


def test_expand_rejects_pending_probe_phase():
    from wfuse.optics import probe_linear_shift

    state = probe_linear_shift(build_input_state(2, 2), 1)
    with pytest.raises(ValueError):
        expand_symbolic(state, 2, 2)


def test_expand_rejects_split_paths():
    from wfuse.optics import apply_bs

    state = apply_bs(build_input_state(2, 2), 1)
    with pytest.raises(ValueError):
        expand_symbolic(state, 2, 2)


def test_embed_register_state_places_photons():
    kept = make_w_state(2)
    dense = scatter(embed_register_state(kept, 2, 2, True, True))
    # photons vertical on qubits 1 and 3, register on qubits 0 and 2
    assert abs(dense[0b1011] - 1 / math.sqrt(2)) < FID_TOL
    assert abs(dense[0b1110] - 1 / math.sqrt(2)) < FID_TOL


# ---------------------------------------------------------------------------
# brute-force pipeline
# ---------------------------------------------------------------------------


def test_brute_force_2_2_probabilities():
    res = brute_force_pipeline(2, 2)
    assert abs(res[LeafKind.SUCCESS].probability - 0.5) < FID_TOL
    assert abs(res[LeafKind.RECYCLABLE_PAIR].probability - 0.25) < FID_TOL
    assert abs(res[LeafKind.RECYCLABLE_MERGED].probability - 0.25) < FID_TOL


def test_brute_force_3_2_success():
    res = brute_force_pipeline(3, 2)
    assert abs(res[LeafKind.SUCCESS].probability - 5 / 12) < FID_TOL


@pytest.mark.parametrize("n,m", GRID)
def test_brute_force_probabilities_sum_to_one(n, m):
    res = brute_force_pipeline(n, m)
    assert set(res) == set(LeafKind)
    assert abs(sum(leaf.probability for leaf in res.values()) - 1.0) < FID_TOL


@pytest.mark.parametrize("n,m", GRID)
def test_success_leaf_expands_to_w(n, m):
    tree = run_fusion(n, m)
    dense = expand_symbolic(tree.leaves[LeafKind.SUCCESS].state, n, m)
    assert abs(fidelity(dense, make_w_state(n + m)) - 1.0) < FID_TOL


@pytest.mark.parametrize("n,m", GRID)
def test_pair_leaf_expands_to_w_product(n, m):
    tree = run_fusion(n, m)
    dense = expand_symbolic(tree.leaves[LeafKind.RECYCLABLE_PAIR].state, n, m)
    expected = embed_register_state(kept_w_product(n, m), n, m, False, False)
    assert abs(fidelity(dense, expected) - 1.0) < FID_TOL


@pytest.mark.parametrize("n,m", GRID)
def test_merged_leaf_expands_to_smaller_w(n, m):
    tree = run_fusion(n, m)
    dense = expand_symbolic(tree.leaves[LeafKind.RECYCLABLE_MERGED].state, n, m)
    expected = embed_register_state(make_w_state(n + m - 2), n, m, True, True)
    assert abs(fidelity(dense, expected) - 1.0) < FID_TOL


@pytest.mark.parametrize("n,m", GRID)
def test_brute_force_matches_symbolic_probabilities(n, m):
    tree = run_fusion(n, m)
    res = brute_force_pipeline(n, m)
    assert list(tree.leaves) == list(res)
    for kind, leaf in tree.leaves.items():
        assert abs(leaf.probability - res[kind].probability) < FID_TOL


@pytest.mark.parametrize("n,m", GRID)
def test_brute_force_states_match_constructions(n, m):
    res = brute_force_pipeline(n, m)
    success = res[LeafKind.SUCCESS].state
    assert abs(fidelity(success, make_w_state(n + m)) - 1.0) < FID_TOL
    expected_merged = embed_register_state(make_w_state(n + m - 2), n, m, True, True)
    merged = res[LeafKind.RECYCLABLE_MERGED].state
    assert abs(fidelity(merged, expected_merged) - 1.0) < FID_TOL
    expected_pair = embed_register_state(kept_w_product(n, m), n, m, False, False)
    pair = res[LeafKind.RECYCLABLE_PAIR].state
    assert abs(fidelity(pair, expected_pair) - 1.0) < FID_TOL


@pytest.mark.parametrize("n,m", [(2, 2), (4, 3)])
def test_oracle_vectors_are_real(n, m):
    """Every element the oracle models is real, so it computes in float64."""
    tree = run_fusion(n, m)
    res = brute_force_pipeline(n, m)
    kept = make_w_state(n + m - 2)
    states = [
        make_w_state(n),
        embed_register_state(kept, n, m, True, True),
        *(leaf.state for leaf in res.values()),
        *(expand_symbolic(leaf.state, n, m) for leaf in tree.leaves.values()),
    ]
    for state in states:
        assert state.amplitudes.dtype == np.float64
        assert state.support.dtype == np.int64


def test_brute_force_rejects_bad_sizes():
    with pytest.raises(ValueError):
        brute_force_pipeline(1, 2)
    with pytest.raises(ValueError):
        brute_force_pipeline(32, 31)
    assert MAX_QUBITS == 62
    assert set(brute_force_pipeline(31, 31)) == set(LeafKind)


def test_brute_force_at_16_qubits_matches_exact_rates():
    n, m = 9, 7
    res = brute_force_pipeline(n, m)
    success = res[LeafKind.SUCCESS]
    pair = res[LeafKind.RECYCLABLE_PAIR]
    merged = res[LeafKind.RECYCLABLE_MERGED]
    assert abs(success.probability - float(ps_qlf(n, m))) < 1e-12
    assert abs(pair.probability - float(p_pair(n, m))) < 1e-12
    merged_rate = Fraction(n + m - 2, 2 * n * m)
    assert abs(merged.probability - float(merged_rate)) < 1e-12
    assert fidelity(success.state, make_w_state(n + m)) >= 1.0 - FID_TOL


@pytest.mark.parametrize("n,m", [(31, 31), (2, 60), (60, 2)])
def test_brute_force_at_62_qubits_matches_exact_rates(n, m):
    res = brute_force_pipeline(n, m)
    rates = {
        LeafKind.SUCCESS: Fraction(n + m, 2 * n * m),
        LeafKind.RECYCLABLE_PAIR: Fraction((n - 1) * (m - 1), n * m),
        LeafKind.RECYCLABLE_MERGED: Fraction(n + m - 2, 2 * n * m),
    }
    for kind, rate in rates.items():
        assert abs(res[kind].probability - float(rate)) < 1e-12
    success = res[LeafKind.SUCCESS].state
    assert abs(fidelity(success, make_w_state(n + m)) - 1.0) < FID_TOL
    # each slice lives on the 4nm closure of the input support
    assert success.support.size == 4 * n * m


@pytest.mark.parametrize("n,m", REFERENCE_GRID)
def test_brute_force_matches_full_vector_reference(n, m):
    res = brute_force_pipeline(n, m)
    for kind, (probability, vec) in _reference_pipeline(n, m).items():
        assert abs(res[kind].probability - probability) <= 1e-15
        assert np.max(np.abs(scatter(res[kind].state) - vec)) <= 1e-12


def test_flip_permutes_a_closed_support():
    support = _idx(0b000, 0b001, 0b100, 0b101)
    assert list(support[_flip(support, 0b100)]) == [0b100, 0b101, 0b000, 0b001]


@pytest.mark.parametrize("support", [_idx(0, 1, 4), _idx(0, 4, 5), _idx(1, 5, 6)])
def test_flip_off_the_support_raises(support):
    with pytest.raises(RuntimeError):
        _flip(support, 0b100)


def test_oracle_imports_nothing_of_the_term_algebra():
    """The oracle checks the symbolic pipeline only while it shares no code
    with it: it may read a branch state and name the leaves, nothing more."""
    source = Path(__file__).parents[1] / "src" / "wfuse" / "oracle.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom) and (
            node.level or node.module.split(".")[0] == "wfuse"
        ):
            imported |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {
                (alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "wfuse"
            }
    assert imported == {
        ("optics", "BranchState"),
        ("optics", "PathLabel"),
        ("optics", "RegisterKind"),
        ("protocol", "LeafKind"),
    }
