"""Three-stage fusion pipeline over the term algebra.

The pipeline takes the tensor product of two W states (sizes n, m >= 2),
runs the polarization-conditioned probe gate, the path-conditioned probe
gate, and a second polarization-conditioned gate, and enumerates every
measurement branch.  Every amplitude is an exact signed square root, so
every probability is stored as an exact fraction and its float is derived
from it; leaves are classified as the fused W state, a recyclable pair of
shrunken W states, or a recyclable merged W state.

Homodyne readout is idealized here: branches are grouped by the absolute
probe phase, the measurement-induced relative phase inside a group is taken
to be removed by the phase corrector, and the probe resets to zero.  The
noisy readout model lives in a separate module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .optics import (
    BranchState,
    FusionTerm,
    PathLabel,
    Polarization,
    RegisterKind,
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


@dataclass(frozen=True)
class MeasurementBranch:
    """One homodyne outcome; its phase class is |k| in half-angle units."""

    phase_class: int
    probability_exact: Fraction
    post_state: BranchState

    @property
    def probability(self) -> float:
        """Float probability, the exact one correctly rounded."""
        return float(self.probability_exact)


class LeafKind(Enum):
    SUCCESS = "success"
    RECYCLABLE_PAIR = "recyclable-pair"
    RECYCLABLE_MERGED = "recyclable-merged"


@dataclass(frozen=True)
class OutcomeLeaf:
    sizes: tuple[int, ...]
    probability_exact: Fraction
    state: BranchState

    @property
    def probability(self) -> float:
        """Float probability, the exact one correctly rounded."""
        return float(self.probability_exact)


@dataclass(frozen=True)
class StageRecord:
    label: str
    branches: tuple[MeasurementBranch, ...]


@dataclass(frozen=True)
class OutcomeTree:
    n: int
    m: int
    stages: tuple[StageRecord, ...]
    # in the order success, pair, merged, like brute_force_pipeline's leaves
    leaves: dict[LeafKind, OutcomeLeaf]

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "stages": [
                {
                    "label": st.label,
                    "branches": [
                        {
                            "phaseClass": br.phase_class,
                            "prob": round_sig12(br.probability),
                            "state": state_to_json_obj(br.post_state),
                        }
                        for br in st.branches
                    ],
                }
                for st in self.stages
            ],
            "leaves": [
                {
                    "class": kind.value,
                    "sizes": list(lf.sizes),
                    "cumProb": round_sig12(lf.probability),
                }
                for kind, lf in self.leaves.items()
            ],
        }


def build_input_state(n: int, m: int) -> BranchState:
    """Tensor product of W_n and W_m, written in kept-register form.

    The four components follow from peeling the last photon off each W
    state; a single-photon W register is the lone vertical photon.  The
    kept registers hold n-1 and m-1 photons, which the state records.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if m < 2:
        raise ValueError("m must be >= 2")
    nm = n * m

    def term(reg_a, reg_b, pol1, pol2, weight):
        return FusionTerm(
            reg_a=reg_a,
            reg_b=reg_b,
            pol1=pol1,
            path1=PathLabel.UNSPLIT,
            pol2=pol2,
            path2=PathLabel.UNSPLIT,
            probe_phase=0,
            exact=Fraction(weight, nm),
        )

    all_h, w = RegisterKind.ALL_HORIZONTAL, RegisterKind.W_STATE
    terms = [
        term(all_h, all_h, Polarization.V, Polarization.V, 1),
        term(w, all_h, Polarization.H, Polarization.V, n - 1),
        term(all_h, w, Polarization.V, Polarization.H, m - 1),
        term(w, w, Polarization.H, Polarization.H, (n - 1) * (m - 1)),
    ]
    return make_branch_state(terms, n, m)


def homodyne_measure(state: BranchState) -> list[MeasurementBranch]:
    """Group terms by absolute probe phase and collapse each group.

    Post-states are renormalized, the probe resets to zero, and the ideal
    corrector makes the signed phases within a group coherent, so the
    amplitudes carry over unchanged up to the renormalization.
    """
    if not state.terms:
        raise ValueError("cannot measure an empty state")
    groups: dict[int, list[FusionTerm]] = {}
    for t in state.terms:
        groups.setdefault(abs(t.probe_phase), []).append(t)
    branches = []
    total = Fraction(0)
    for abs_k in sorted(groups):
        members = groups[abs_k]
        prob = sum((abs(t.exact) for t in members), Fraction(0))
        total += prob
        post_terms = [t._replace(probe_phase=0, exact=t.exact / prob) for t in members]
        post = normalize_global_phase(
            make_branch_state(post_terms, state.n_party_a, state.m_party_b)
        )
        branches.append(MeasurementBranch(abs_k, prob, post))
    if total != 1:
        raise ValueError("homodyne requires a normalized state")
    return branches


def step1_polarization_gate(state: BranchState) -> list[MeasurementBranch]:
    """First probe gate: each horizontal photon retards the probe by a full
    angle, then a fixed half-angle advance is applied.

    Branches come back ordered by phase class: the keep branch (|k|=1,
    both-vertical/one-horizontal components) and the drop branch (|k|=3,
    both-horizontal component).
    """
    s = cross_kerr_on_polarization(state, 1, Polarization.H, -2)
    s = cross_kerr_on_polarization(s, 2, Polarization.H, -2)
    s = probe_linear_shift(s, +1)
    return homodyne_measure(s)


def step2_spatial_gate(state: BranchState) -> list[MeasurementBranch]:
    """Path gate: split both photons, phase-tag one path of each, measure.

    The path swap on the nonzero-phase branch must reproduce the zero-phase
    branch exactly, so the gate is completed once: half-wave plates and path
    couplers act on that common state, which both branches then carry.
    """
    s = apply_bs(state, 1)
    s = apply_bs(s, 2)
    s = cross_kerr_on_path(s, 1, PathLabel.S11, +2)
    s = cross_kerr_on_path(s, 2, PathLabel.S21, -2)
    zero, two = homodyne_measure(s)
    if apply_swap(two.post_state) != zero.post_state:
        raise RuntimeError("spatial branches diverged after the swap")
    post = apply_hwp45(zero.post_state, 1, PathLabel.S11)
    post = apply_hwp45(post, 2, PathLabel.S22)
    post = apply_path_coupler(post, 1)
    post = apply_path_coupler(post, 2)
    return [replace(zero, post_state=post), replace(two, post_state=post)]


def step3_polarization_gate(state: BranchState) -> list[MeasurementBranch]:
    """Second probe gate, conditioned on vertical photons this time."""
    s = cross_kerr_on_polarization(state, 1, Polarization.V, -2)
    s = cross_kerr_on_polarization(s, 2, Polarization.V, -2)
    s = probe_linear_shift(s, +1)
    return homodyne_measure(s)


def _branch_by_class(branches: list[MeasurementBranch], abs_k: int) -> MeasurementBranch:
    for br in branches:
        if br.phase_class == abs_k:
            return br
    raise ValueError(f"no branch with phase class {abs_k}")


def project_recyclable(state: BranchState) -> tuple[int, ...]:
    """Check the drop branch of the second probe gate and return its sizes.

    Projecting both photons onto vertical leaves the kept registers in a
    merged W state of n+m-2 photons; the check asserts equal per-position
    amplitudes across the two register patterns, whose W registers hold n-1
    and m-1 photons.
    """
    n, m = state.n_party_a, state.m_party_b
    if not state.terms:
        raise ValueError("empty state")
    seen = set()
    per_position = set()
    for t in state.terms:
        if t.pol1 is not Polarization.V or t.pol2 is not Polarization.V:
            raise ValueError("photons are not all vertical")
        regs = (t.reg_a, t.reg_b)
        if regs == (RegisterKind.W_STATE, RegisterKind.ALL_HORIZONTAL):
            count = n - 1
        elif regs == (RegisterKind.ALL_HORIZONTAL, RegisterKind.W_STATE):
            count = m - 1
        else:
            raise ValueError("unexpected register pattern for a merged W state")
        seen.add(regs)
        per_position.add(t.exact / count)
    if len(seen) != 2:
        raise ValueError("merged W state must cover both register patterns")
    if len(per_position) != 1:
        raise ValueError("per-position amplitudes are unequal")
    return (n + m - 2,)


def run_fusion(n: int, m: int) -> OutcomeTree:
    """Run the full pipeline and collect stages and classified leaves.

    Both spatial branches carry one completed state, so the second probe
    gate runs once and is recorded under each of them.  Leaf probabilities
    are cumulative from the root, exact, and checked to sum to one.
    """
    state0 = build_input_state(n, m)
    stage1_branches = step1_polarization_gate(state0)
    keep1 = _branch_by_class(stage1_branches, 1)
    drop1 = _branch_by_class(stage1_branches, 3)

    stages = [StageRecord("polarization-gate-1", tuple(stage1_branches))]

    stage2_branches = step2_spatial_gate(keep1.post_state)
    stages.append(StageRecord("spatial-gate", tuple(stage2_branches)))

    stage3_branches = tuple(step3_polarization_gate(stage2_branches[0].post_state))
    keep3 = _branch_by_class(stage3_branches, 1)
    drop3 = _branch_by_class(stage3_branches, 3)
    success_state = keep3.post_state
    merged_state = drop3.post_state
    success_prob = Fraction(0)
    merged_prob = Fraction(0)
    for br2 in stage2_branches:
        stages.append(
            StageRecord(
                f"polarization-gate-2[via phase-class-{br2.phase_class}]",
                stage3_branches,
            )
        )
        path_prob = keep1.probability_exact * br2.probability_exact
        success_prob += path_prob * keep3.probability_exact
        merged_prob += path_prob * drop3.probability_exact

    leaves = {
        LeafKind.SUCCESS: OutcomeLeaf((n + m,), success_prob, success_state),
        LeafKind.RECYCLABLE_PAIR: OutcomeLeaf(
            (n - 1, m - 1), drop1.probability_exact, drop1.post_state
        ),
        LeafKind.RECYCLABLE_MERGED: OutcomeLeaf(
            project_recyclable(merged_state), merged_prob, merged_state
        ),
    }
    if sum(lf.probability_exact for lf in leaves.values()) != 1:
        raise RuntimeError("exact leaf probabilities do not sum to 1")
    return OutcomeTree(n, m, tuple(stages), leaves)
