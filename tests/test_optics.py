"""Tests for the term algebra and its optical elements."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfuse.optics import (
    BranchState,
    FusionTerm,
    PathLabel,
    Polarization,
    RegisterKind,
    add_exact,
    apply_bs,
    apply_hwp45,
    apply_path_coupler,
    apply_swap,
    cross_kerr_on_path,
    cross_kerr_on_polarization,
    make_branch_state,
    normalize_global_phase,
    probe_linear_shift,
    round_sig12,
    state_to_json_obj,
)
from wfuse.protocol import build_input_state

from dense_helpers import (
    SWAP_MATRIX,
    beam_splitter_matrix,
    mach_zehnder_mode_matrix,
    phase_shift_matrix,
    two_photon_routing_matrix,
)

ABS_TOL = 1e-12

H = Polarization.H
V = Polarization.V
UNSPLIT = PathLabel.UNSPLIT
ALL_H = RegisterKind.ALL_HORIZONTAL


ONE = Fraction(1)


def make_term(pol1, pol2, exact, k=0, path1=UNSPLIT, path2=UNSPLIT, reg_b=ALL_H):
    """A term with the given exact amplitude."""
    return FusionTerm(
        reg_a=ALL_H,
        reg_b=reg_b,
        pol1=pol1,
        path1=path1,
        pol2=pol2,
        path2=path2,
        probe_phase=k,
        exact=exact,
    )


def single_term_state(pol1, pol2, exact=ONE, k=0, path1=UNSPLIT, path2=UNSPLIT):
    return make_branch_state([make_term(pol1, pol2, exact, k, path1, path2)])


def terms_by_pols(state):
    return {(t.pol1, t.pol2): t for t in state.terms}


# ---------------------------------------------------------------------------
# probe kicks
# ---------------------------------------------------------------------------


def test_kerr_polarization_shifts_only_matches():
    state = single_term_state(V, V)
    out = cross_kerr_on_polarization(state, 1, V, 2)
    assert out.terms[0].probe_phase == 2
    out = cross_kerr_on_polarization(state, 1, H, 2)
    assert out.terms[0].probe_phase == 0


def test_kerr_polarization_amplitude_untouched():
    state = single_term_state(H, V, Fraction(1, 4))
    out = cross_kerr_on_polarization(state, 1, H, -2)
    assert out.terms[0].amplitude == 0.5
    assert out.terms[0].exact == Fraction(1, 4)
    assert out.terms[0].probe_phase == -2


def test_first_gate_phase_pattern_on_product_input():
    # the four components of the (2,2) product pick up +1, -1, -1, -3
    state = build_input_state(2, 2)
    s = cross_kerr_on_polarization(state, 1, H, -2)
    s = cross_kerr_on_polarization(s, 2, H, -2)
    s = probe_linear_shift(s, 1)
    phases = {k: t.probe_phase for k, t in terms_by_pols(s).items()}
    assert phases == {(V, V): 1, (H, V): -1, (V, H): -1, (H, H): -3}


def test_second_gate_phase_pattern():
    state = build_input_state(2, 2)
    s = cross_kerr_on_polarization(state, 1, V, -2)
    s = cross_kerr_on_polarization(s, 2, V, -2)
    s = probe_linear_shift(s, 1)
    phases = {k: t.probe_phase for k, t in terms_by_pols(s).items()}
    assert phases == {(V, V): -3, (H, V): -1, (V, H): -1, (H, H): 1}


def test_kerr_path_shifts():
    state = single_term_state(V, V, path1=PathLabel.S11, path2=PathLabel.S21)
    s = cross_kerr_on_path(state, 1, PathLabel.S11, 2)
    s = cross_kerr_on_path(s, 2, PathLabel.S21, -2)
    assert s.terms[0].probe_phase == 0
    s = cross_kerr_on_path(state, 2, PathLabel.S21, -2)
    assert s.terms[0].probe_phase == -2


def test_probe_linear_shift_uniform_and_empty():
    state = single_term_state(H, V, k=-2)
    out = probe_linear_shift(state, 1)
    assert out.terms[0].probe_phase == -1
    empty = make_branch_state([])
    assert probe_linear_shift(empty, 1).terms == ()


def test_invalid_photon_index_rejected():
    state = single_term_state(H, V)
    with pytest.raises(ValueError):
        cross_kerr_on_polarization(state, 3, H, 1)


def test_probe_phase_range_enforced():
    with pytest.raises(ValueError):
        single_term_state(H, V, k=5)


def test_photon_path_range_enforced():
    # photon 1 may only use its own split paths
    with pytest.raises(ValueError):
        single_term_state(H, V, path1=PathLabel.S21)


# ---------------------------------------------------------------------------
# path elements
# ---------------------------------------------------------------------------


def test_bs_splits_with_equal_weights():
    state = single_term_state(V, V)
    out = apply_bs(state, 1)
    assert len(out.terms) == 2
    paths = {t.path1 for t in out.terms}
    assert paths == {PathLabel.S11, PathLabel.S12}
    for t in out.terms:
        assert abs(t.amplitude - 1 / math.sqrt(2)) < ABS_TOL
        assert abs(t.exact) == Fraction(1, 2)


def test_bs_on_both_photons_gives_four_paths():
    state = single_term_state(V, V)
    out = apply_bs(apply_bs(state, 1), 2)
    assert len(out.terms) == 4
    combos = {(t.path1, t.path2) for t in out.terms}
    assert combos == {
        (p1, p2)
        for p1 in (PathLabel.S11, PathLabel.S12)
        for p2 in (PathLabel.S21, PathLabel.S22)
    }
    for t in out.terms:
        assert abs(abs(t.amplitude) ** 2 - 0.25) < ABS_TOL


def test_bs_rejects_split_photon():
    state = single_term_state(V, V, path1=PathLabel.S11)
    with pytest.raises(ValueError):
        apply_bs(state, 1)


def test_hwp_flips_on_matching_path_only():
    state = single_term_state(H, V, path1=PathLabel.S11)
    out = apply_hwp45(state, 1, PathLabel.S11)
    assert out.terms[0].pol1 is V
    out = apply_hwp45(state, 1, PathLabel.S12)
    assert out.terms[0].pol1 is H


def test_hwp_is_an_involution():
    state = apply_bs(single_term_state(H, V), 1)
    twice = apply_hwp45(apply_hwp45(state, 1, PathLabel.S11), 1, PathLabel.S11)
    assert twice == state


def test_coupler_merges_amplitudes_without_rescale():
    # 3/10 + 4/10 = 7/10, exactly: sqrt(9/100) + sqrt(16/100) = sqrt(49/100)
    state = make_branch_state(
        [
            make_term(H, V, Fraction(9, 100), path1=PathLabel.S11),
            make_term(H, V, Fraction(16, 100), path1=PathLabel.S12),
        ],
    )
    out = apply_path_coupler(state, 1)
    assert len(out.terms) == 1
    assert abs(out.terms[0].amplitude - 0.7) < ABS_TOL
    assert out.terms[0].exact == Fraction(49, 100)
    assert out.terms[0].path1 is UNSPLIT


def test_coupler_drops_destructive_terms():
    half = Fraction(1, 4)
    state = make_branch_state(
        [
            make_term(H, V, half, path1=PathLabel.S11),
            make_term(H, V, -half, path1=PathLabel.S12),
        ],
    )
    out = apply_path_coupler(state, 1)
    assert out.terms == ()


def test_bs_then_coupler_preserves_polarization_content():
    base = build_input_state(2, 2)
    halved = make_branch_state(
        [
            t._replace(exact=t.exact * Fraction(1, 2))
            for t in base.terms
        ],
    )
    back = apply_path_coupler(apply_bs(halved, 1), 1)
    # same polarization structure, uniform sqrt(2) scale from the eraser
    assert len(back.terms) == len(halved.terms)
    for a, b in zip(back.terms, halved.terms):
        assert a.key == b.key
        assert abs(a.amplitude - math.sqrt(2) * b.amplitude) < ABS_TOL


def test_swap_exchanges_photon2_paths_and_is_involution():
    state = single_term_state(V, V, path2=PathLabel.S21)
    out = apply_swap(state)
    assert out.terms[0].path2 is PathLabel.S22
    assert apply_swap(out) == state


# ---------------------------------------------------------------------------
# swap as an interferometer
# ---------------------------------------------------------------------------


def test_mz_mode_matrix_is_the_exchange():
    m = mach_zehnder_mode_matrix()
    target = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(m, target, atol=ABS_TOL)


def test_mz_composition_reproduces_swap_gate():
    routed = two_photon_routing_matrix(mach_zehnder_mode_matrix())
    # strip the global phase before the entrywise comparison
    hot = np.unravel_index(np.argmax(np.abs(routed)), routed.shape)
    routed = routed / (routed[hot] / abs(routed[hot]))
    assert np.max(np.abs(routed - SWAP_MATRIX)) < ABS_TOL


def test_routing_matrix_identity_mode():
    routed = two_photon_routing_matrix(np.eye(2))
    assert np.allclose(routed, np.eye(4), atol=ABS_TOL)


def test_bs_and_phase_matrices_are_unitary():
    for m in (beam_splitter_matrix(), phase_shift_matrix(0.7), mach_zehnder_mode_matrix()):
        assert np.allclose(m @ m.conj().T, np.eye(2), atol=ABS_TOL)


# ---------------------------------------------------------------------------
# phases and canonicalization
# ---------------------------------------------------------------------------


def test_normalize_global_phase_flips_negative_lead():
    state = build_input_state(2, 2)
    negated = make_branch_state([t._replace(exact=-t.exact) for t in state.terms])
    assert negated.terms[0].amplitude < 0
    fixed = normalize_global_phase(negated)
    assert fixed == state


def test_merge_canonicalization_no_duplicate_keys():
    term = make_term(H, V, Fraction(1, 4))
    state = make_branch_state([term, term])
    assert len(state.terms) == 1
    assert abs(state.terms[0].amplitude - 1.0) < ABS_TOL
    assert state.terms[0].exact == ONE


def test_merge_outside_exact_form_raises():
    # sqrt(1/8) + sqrt(1/12) is not a signed square root of a rational
    terms = [
        make_term(H, V, Fraction(1, 8)),
        make_term(H, V, Fraction(1, 12)),
    ]
    with pytest.raises(ValueError):
        make_branch_state(terms)


def test_norm_cap_enforced():
    with pytest.raises(ValueError):
        single_term_state(H, V, Fraction(121, 100))


def test_exact_amp_addition():
    half = Fraction(1, 2)
    doubled = add_exact(half, half)
    assert doubled == Fraction(2)
    cancel = add_exact(half, -half)
    assert abs(cancel) == 0
    # sqrt(1/4) = 1/2 and sqrt(1/16) = 1/4: the sum has the larger one's sign
    big, small = Fraction(1, 4), Fraction(1, 16)
    for a, b, total in [
        (big, small, Fraction(9, 16)),
        (big, -small, Fraction(1, 16)),
        (-big, small, -Fraction(1, 16)),
        (-big, -small, -Fraction(9, 16)),
        (Fraction(0), -small, -small),
    ]:
        assert add_exact(a, b) == add_exact(b, a) == total
    with pytest.raises(ValueError):
        add_exact(Fraction(1, 2), Fraction(1, 3))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_round_sig12():
    assert round_sig12(5 / 12) == 0.416666666667
    assert round_sig12(0.25) == 0.25


def test_state_serialization_shape_and_determinism():
    state = build_input_state(3, 2)
    doc = state_to_json_obj(state, 3, 2)
    assert len(doc) == 4
    for entry in doc:
        assert set(entry) == {"re", "im", "regA", "regB", "p1", "p2", "k"}
        assert set(entry["regA"]) == {"kind", "count"}
        assert set(entry["p1"]) == {"pol", "path"}
        assert (entry["regA"]["count"], entry["regB"]["count"]) == (2, 1)
    assert doc == state_to_json_obj(build_input_state(3, 2), 3, 2)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@st.composite
def random_states(draw, merging=False):
    """Unsplit two-photon states with random weights on the product basis.

    Amplitudes are s_i / sqrt(sum s^2) for nonzero integers s_i, so every
    cross term of a merge is rational and the exact track stays in form.
    Unless ``merging``, photon 1's polarization is mirrored in register B,
    so flipping it never makes two terms coincide.  A merging state has
    norm 1/2, so constructive interference at a coupler stays within 1.
    """
    keys = draw(
        st.lists(
            st.tuples(
                st.sampled_from([H, V]),
                st.sampled_from([H, V]),
                st.integers(min_value=-3, max_value=3),
            ),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.integers(min_value=-20, max_value=20).filter(bool),
            min_size=len(keys),
            max_size=len(keys),
        )
    )
    total = sum(w * w for w in weights) * (2 if merging else 1)
    terms = [
        make_term(
            pol1,
            pol2,
            (1 if w > 0 else -1) * Fraction(w * w, total),
            k,
            reg_b=RegisterKind.W_STATE if pol1 is H and not merging else ALL_H,
        )
        for (pol1, pol2, k), w in zip(keys, weights)
    ]
    return make_branch_state(terms)


@settings(max_examples=60, deadline=None)
@given(random_states())
def test_norm_preserved_by_unitary_elements(state):
    start = state.norm_squared()
    start_exact = sum(abs(t.exact) for t in state.terms)
    for op in (
        lambda s: cross_kerr_on_polarization(s, 1, H, -1),
        lambda s: probe_linear_shift(s, 1),
        lambda s: apply_bs(s, 1),
        lambda s: apply_bs(s, 2),
        normalize_global_phase,
    ):
        state = op(state)
        assert abs(state.norm_squared() - start) < 1e-9
        assert sum(abs(t.exact) for t in state.terms) == start_exact


@settings(max_examples=60, deadline=None)
@given(random_states())
def test_split_gate_erase_preserves_norm(state):
    """The protocol's own BS-HWP-coupler sandwich never loses amplitude."""
    start = state.norm_squared()
    s = apply_bs(state, 1)
    s = apply_hwp45(s, 1, PathLabel.S11)
    s = apply_path_coupler(s, 1)
    assert abs(s.norm_squared() - start) < 1e-9


@settings(max_examples=60, deadline=None)
@given(random_states())
def test_canonical_states_have_unique_keys(state):
    out = apply_bs(cross_kerr_on_polarization(state, 1, V, 1), 2)
    keys = [t.key for t in out.terms]
    assert len(keys) == len(set(keys))
    assert keys == sorted(keys)


@settings(max_examples=60, deadline=None)
@given(random_states(merging=True))
@example(  # two keys cancel exactly, one survives
    make_branch_state(
        [
            make_term(H, V, Fraction(1, 4)),
            make_term(V, V, -Fraction(1, 4)),
            make_term(H, H, Fraction(1, 4)),
        ],
    )
)
def test_exact_track_follows_float_through_merges(state):
    """Flipping one path's polarization makes terms coincide at the coupler.
    Each merged exact amplitude, cancellations included, matches a float sum
    of +-sqrt(q)/sqrt(2) over the input terms that land on its key."""
    flip = {H: V, V: H}
    expected: dict[tuple, float] = {}
    for t in state.terms:
        sign = 1 if t.exact > 0 else -1
        half = sign * math.sqrt(float(abs(t.exact))) / math.sqrt(2)
        # the s12 half keeps its polarization, the s11 half has it flipped
        for pol1 in (t.pol1, flip[t.pol1]):
            key = t._replace(pol1=pol1).key
            expected[key] = expected.get(key, 0.0) + half
    survivors = {key: amp for key, amp in expected.items() if abs(amp) > 1e-9}
    s = apply_bs(state, 1)
    s = apply_hwp45(s, 1, PathLabel.S11)
    s = apply_path_coupler(s, 1)
    assert [t.key for t in s.terms] == sorted(survivors)
    for t in s.terms:
        assert abs(t.amplitude - survivors[t.key]) < 1e-9
