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
    DenseState,
    brute_force_leaf_probabilities,
    brute_force_pipeline,
    embed_register_state,
    expand_symbolic,
    fidelity,
    make_w_state,
)
from wfuse.planner import p_pair, ps_qlf
from wfuse.protocol import LeafKind, build_input_state, run_fusion

FID_TOL = 1e-10

GRID = [(n, m) for n in range(2, 9) for m in range(2, 9) if n + m <= 10]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_w1_is_the_lone_vertical_photon():
    w1 = make_w_state(1)
    assert np.allclose(w1.amplitudes, [0.0, 1.0])


def test_w2_and_w3_components():
    w2 = make_w_state(2)
    assert abs(w2.amplitudes[0b01] - 1 / math.sqrt(2)) < FID_TOL
    assert abs(w2.amplitudes[0b10] - 1 / math.sqrt(2)) < FID_TOL
    w3 = make_w_state(3)
    for idx in (0b001, 0b010, 0b100):
        assert abs(w3.amplitudes[idx] - 1 / math.sqrt(3)) < FID_TOL
    assert abs(np.sum(np.abs(w3.amplitudes) ** 2) - 1.0) < FID_TOL


def test_w_state_is_permutation_symmetric():
    n = 5
    w = make_w_state(n)
    idx = np.arange(2**n)
    # exchange qubits 1 and 3
    b1, b3 = (idx >> 1) & 1, (idx >> 3) & 1
    swapped = idx ^ ((b1 ^ b3) << 1) ^ ((b1 ^ b3) << 3)
    assert np.allclose(w.amplitudes, w.amplitudes[swapped])


def test_w_state_size_limits():
    with pytest.raises(ValueError):
        make_w_state(0)
    with pytest.raises(ValueError):
        make_w_state(21)


def test_dense_state_requires_normalization():
    with pytest.raises(ValueError):
        DenseState(2, np.zeros(4, dtype=complex))
    with pytest.raises(ValueError):
        DenseState(2, np.ones(3, dtype=complex))


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


def test_fidelity_of_identical_states_is_one():
    w = make_w_state(4)
    assert abs(fidelity(w, w) - 1.0) < FID_TOL


def test_fidelity_of_orthogonal_states_is_zero():
    a = DenseState(1, np.array([1.0, 0.0], dtype=complex))
    b = DenseState(1, np.array([0.0, 1.0], dtype=complex))
    assert fidelity(a, b) < FID_TOL


def test_fidelity_sign_flipped_w3():
    w3 = make_w_state(3)
    flipped = w3.amplitudes.copy()
    flipped[0b100] = -flipped[0b100]
    assert abs(fidelity(w3, DenseState(3, flipped)) - 1 / 9) < FID_TOL


def test_fidelity_keeps_a_complex_input():
    plus_i = DenseState(1, np.array([1.0, 1.0j]) / math.sqrt(2))
    minus_i = DenseState(1, np.array([1.0, -1.0j]) / math.sqrt(2))
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
        dense = expand_symbolic(build_input_state(n, m))
        expected = np.kron(make_w_state(m).amplitudes, make_w_state(n).amplitudes)
        assert np.allclose(dense.amplitudes, expected, atol=1e-12)


def test_expand_rejects_empty_state():
    from wfuse.optics import make_branch_state

    with pytest.raises(ValueError):
        expand_symbolic(make_branch_state([], 2, 2))


def test_expand_rejects_pending_probe_phase():
    from wfuse.optics import probe_linear_shift

    state = probe_linear_shift(build_input_state(2, 2), 1)
    with pytest.raises(ValueError):
        expand_symbolic(state)


def test_expand_rejects_split_paths():
    from wfuse.optics import apply_bs

    state = apply_bs(build_input_state(2, 2), 1)
    with pytest.raises(ValueError):
        expand_symbolic(state)


def test_embed_register_state_places_photons():
    kept = make_w_state(2).amplitudes
    dense = embed_register_state(kept, 2, 2, True, True)
    # photons vertical on qubits 1 and 3, register on qubits 0 and 2
    assert abs(dense.amplitudes[0b1011] - 1 / math.sqrt(2)) < FID_TOL
    assert abs(dense.amplitudes[0b1110] - 1 / math.sqrt(2)) < FID_TOL


# ---------------------------------------------------------------------------
# brute-force pipeline
# ---------------------------------------------------------------------------


def test_brute_force_2_2_probabilities():
    probs = brute_force_leaf_probabilities(2, 2)
    by_kind = {cls.kind: p for cls, p in probs.items()}
    assert abs(by_kind[LeafKind.SUCCESS] - 0.5) < FID_TOL
    assert abs(by_kind[LeafKind.RECYCLABLE_PAIR] - 0.25) < FID_TOL
    assert abs(by_kind[LeafKind.RECYCLABLE_MERGED] - 0.25) < FID_TOL


def test_brute_force_3_2_success():
    probs = brute_force_leaf_probabilities(3, 2)
    by_kind = {cls.kind: p for cls, p in probs.items()}
    assert abs(by_kind[LeafKind.SUCCESS] - 5 / 12) < FID_TOL


@pytest.mark.parametrize("n,m", GRID)
def test_brute_force_probabilities_sum_to_one(n, m):
    probs = brute_force_leaf_probabilities(n, m)
    assert abs(sum(probs.values()) - 1.0) < FID_TOL


@pytest.mark.parametrize("n,m", GRID)
def test_success_leaf_expands_to_w(n, m):
    tree = run_fusion(n, m)
    dense = expand_symbolic(tree.leaf(LeafKind.SUCCESS).state)
    assert abs(fidelity(dense, make_w_state(n + m)) - 1.0) < FID_TOL


@pytest.mark.parametrize("n,m", GRID)
def test_pair_leaf_expands_to_w_product(n, m):
    tree = run_fusion(n, m)
    dense = expand_symbolic(tree.leaf(LeafKind.RECYCLABLE_PAIR).state)
    kept = np.kron(make_w_state(m - 1).amplitudes, make_w_state(n - 1).amplitudes)
    expected = embed_register_state(kept, n, m, False, False)
    assert abs(fidelity(dense, expected) - 1.0) < FID_TOL


@pytest.mark.parametrize("n,m", GRID)
def test_merged_leaf_expands_to_smaller_w(n, m):
    tree = run_fusion(n, m)
    dense = expand_symbolic(tree.leaf(LeafKind.RECYCLABLE_MERGED).state)
    expected = embed_register_state(
        make_w_state(n + m - 2).amplitudes, n, m, True, True
    )
    assert abs(fidelity(dense, expected) - 1.0) < FID_TOL


@pytest.mark.parametrize("n,m", GRID)
def test_brute_force_matches_symbolic_probabilities(n, m):
    tree = run_fusion(n, m)
    probs = brute_force_leaf_probabilities(n, m)
    for cls, p in probs.items():
        matching = [
            lf for lf in tree.leaves if lf.classification == cls
        ]
        assert len(matching) == 1
        assert abs(matching[0].probability - p) < FID_TOL


@pytest.mark.parametrize("n,m", GRID)
def test_brute_force_states_match_constructions(n, m):
    res = brute_force_pipeline(n, m)
    assert abs(fidelity(res.success_state, make_w_state(n + m)) - 1.0) < FID_TOL
    assert (
        abs(fidelity(res.merged_kept_state, make_w_state(n + m - 2)) - 1.0)
        < FID_TOL
    )
    kept = np.kron(make_w_state(m - 1).amplitudes, make_w_state(n - 1).amplitudes)
    expected_pair = embed_register_state(kept, n, m, False, False)
    assert abs(fidelity(res.pair_state, expected_pair) - 1.0) < FID_TOL


@pytest.mark.parametrize("n,m", [(2, 2), (4, 3)])
def test_oracle_vectors_are_real(n, m):
    """Every element the oracle models is real, so it computes in float64."""
    tree = run_fusion(n, m)
    res = brute_force_pipeline(n, m)
    kept = make_w_state(n + m - 2).amplitudes
    states = [
        make_w_state(n),
        embed_register_state(kept, n, m, True, True),
        res.success_state,
        res.pair_state,
        res.merged_kept_state,
    ] + [expand_symbolic(leaf.state) for leaf in tree.leaves]
    for state in states:
        assert state.amplitudes.dtype == np.float64


def test_brute_force_rejects_bad_sizes():
    with pytest.raises(ValueError):
        brute_force_pipeline(1, 2)
    with pytest.raises(ValueError):
        brute_force_pipeline(11, 10)


def test_brute_force_at_16_qubits_matches_exact_rates():
    n, m = 9, 7
    res = brute_force_pipeline(n, m)
    assert abs(res.success_probability - float(ps_qlf(n, m))) < 1e-12
    assert abs(res.pair_probability - float(p_pair(n, m))) < 1e-12
    merged_rate = Fraction(n + m - 2, 2 * n * m)
    assert abs(res.merged_probability - float(merged_rate)) < 1e-12
    assert fidelity(res.success_state, make_w_state(n + m)) >= 1.0 - FID_TOL


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
        ("protocol", "LeafClassification"),
        ("protocol", "LeafKind"),
    }
