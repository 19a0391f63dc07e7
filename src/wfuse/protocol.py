"""Three-stage fusion pipeline over the term algebra.

The pipeline takes the tensor product of two W states (sizes n, m >= 2),
runs the polarization-conditioned probe gate, the path-conditioned probe
gate, and a second polarization-conditioned gate, and enumerates every
measurement branch.  Every amplitude is an exact signed square root, so
every probability is stored as an exact fraction and its float is derived
from it; leaves are classified as the fused W state, a recyclable pair of
shrunken W states, or a recyclable merged W state.

No gate reads n or m.  They enter only as the weights 1, n-1, m-1 and
(n-1)(m-1) of the input's four register patterns, and every step is
homogeneous in those weights (see ``optics``).  So the gate sequence runs
once per process, with no sizes, on an unnormalized input whose signed
square is 1 in each pattern; the run is cached at the first
``run_fusion`` call, never at import.  ``run_fusion(n, m)`` then weighs the
cached states and branch sums with integer weights, and checks nothing
that holds at every size.  The gate run checks those facts once: every
element keeps each pattern's norm exactly, which is norm conservation at
every (n, m) at once; the measurements give their phase classes in order;
and the drop branch of the second probe gate is a merged W state.

Homodyne readout is idealized here: branches are grouped by the absolute
probe phase, the measurement-induced relative phase inside a group is taken
to be removed by the phase corrector, and the probe resets to zero.  The
noisy readout model lives in a separate module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

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
    pattern_sums,
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
                            "state": state_to_json_obj(br.post_state, self.n, self.m),
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


_ALL_H, _W = RegisterKind.ALL_HORIZONTAL, RegisterKind.W_STATE
# the register patterns (reg_a, reg_b), in the order of _pattern_weights
_PATTERNS = ((_ALL_H, _ALL_H), (_W, _ALL_H), (_ALL_H, _W), (_W, _W))


def _pattern_weights(n: int, m: int) -> tuple[int, int, int, int]:
    """Weights of the register patterns in the fusion of W_n and W_m: the
    number of basis states a term of each pattern stands for."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if m < 2:
        raise ValueError("m must be >= 2")
    return (1, n - 1, m - 1, (n - 1) * (m - 1))


def _weigh(weights: tuple[int, ...], sums: tuple[int, ...]) -> int:
    return sum(w * s for w, s in zip(weights, sums))


class _SizeFreeState(NamedTuple):
    """A state of the size-free gate run, over one common denominator.

    Each term is (basis key, pattern index, c), its signed square being c
    over the denominator; ``sums`` is the sum of |c| per pattern.
    """

    terms: tuple[tuple[tuple, int, int], ...]
    sums: tuple[int, ...]

    @classmethod
    def of(cls, state: BranchState) -> "_SizeFreeState":
        terms = state.terms
        den = math.lcm(*(t.exact.denominator for t in terms))
        scaled = tuple(
            (
                t.key,
                _PATTERNS.index((t.reg_a, t.reg_b)),
                t.exact.numerator * (den // t.exact.denominator),
            )
            for t in terms
        )
        sums = [0] * len(_PATTERNS)
        for _, i, c in scaled:
            sums[i] += abs(c)
        return cls(scaled, tuple(sums))

    def at(self, weights: tuple[int, ...]) -> BranchState:
        """The normalized state at these pattern weights: each signed square
        is w*c over the sum of w*|c|.  The keys, their order and the signs
        are those of the size-free state."""
        z = _weigh(weights, self.sums)
        # from a list: tuple() of a generator over-allocates, then shrinks,
        # and the shrunk tuples pile up in the interpreter's free lists
        terms = [
            FusionTerm(*key, Fraction(weights[i] * c, z)) for key, i, c in self.terms
        ]
        return BranchState(tuple(terms))


def _size_free_input() -> BranchState:
    """W_n (x) W_m in kept-register form with the sizes factored out: signed
    square 1 in each register pattern.  A party's traveling photon is
    horizontal when its kept register is a W state, else vertical."""
    pol = {_W: Polarization.H, _ALL_H: Polarization.V}
    unsplit = PathLabel.UNSPLIT
    return make_branch_state(
        FusionTerm(a, b, pol[a], unsplit, pol[b], unsplit, 0, Fraction(1))
        for a, b in _PATTERNS
    )


def _apply(state: BranchState, *steps) -> BranchState:
    """Apply the (element, *args) steps in turn, checking that each keeps
    the norm of every register pattern exactly."""
    sums = pattern_sums(state.terms)
    for element, *args in steps:
        state = element(state, *args)
        if pattern_sums(state.terms) != sums:
            raise ValueError(f"{element.__name__} changed a register pattern's norm")
    return state


def homodyne_measure(state: BranchState) -> list[MeasurementBranch]:
    """Group terms by absolute probe phase and collapse each group.

    A branch's probability is its share of the state's sum of |e|, so the
    state need not be normalized.  Post-states are renormalized, the probe
    resets to zero, and the ideal corrector makes the signed phases within a
    group coherent, so the amplitudes carry over unchanged up to the
    renormalization.  Terms that meet at the reset must keep each register
    pattern's norm: every branch keeps its share of each pattern's sum, so
    the branches partition it.
    """
    if not state.terms:
        raise ValueError("cannot measure an empty state")
    groups: dict[int, list[FusionTerm]] = {}
    for t in state.terms:
        groups.setdefault(abs(t.probe_phase), []).append(t)
    total = sum(abs(t.exact) for t in state.terms)
    branches = []
    for abs_k in sorted(groups):
        members = groups[abs_k]
        share = pattern_sums(members)
        prob = sum(share.values())
        post_terms = [t._replace(probe_phase=0, exact=t.exact / prob) for t in members]
        post = normalize_global_phase(make_branch_state(post_terms))
        if pattern_sums(post.terms) != {regs: s / prob for regs, s in share.items()}:
            raise ValueError("terms met at the probe reset and changed a norm")
        branches.append(MeasurementBranch(abs_k, prob / total, post))
    return branches


def polarization_gate(state: BranchState, pol: Polarization) -> list[MeasurementBranch]:
    """Probe gate: each photon of polarization pol retards the probe by a
    full angle, then a fixed half-angle advance is applied.

    The first gate is conditioned on H, the second on V.  Branches come back
    ordered by phase class: the keep branch (|k|=1, at most one photon of
    polarization pol) and the drop branch (|k|=3, both photons pol).
    """
    s = _apply(
        state,
        (cross_kerr_on_polarization, 1, pol, -2),
        (cross_kerr_on_polarization, 2, pol, -2),
        (probe_linear_shift, +1),
    )
    return homodyne_measure(s)


def step2_spatial_gate(state: BranchState) -> list[MeasurementBranch]:
    """Path gate: split both photons, phase-tag one path of each, measure.

    The path swap on the nonzero-phase branch must reproduce the zero-phase
    branch exactly, so the gate is completed once: half-wave plates and path
    couplers act on that common state, which both branches then carry.
    """
    s = _apply(
        state,
        (apply_bs, 1),
        (apply_bs, 2),
        (cross_kerr_on_path, 1, PathLabel.S11, +2),
        (cross_kerr_on_path, 2, PathLabel.S21, -2),
    )
    zero, two = homodyne_measure(s)
    if _apply(two.post_state, (apply_swap,)) != zero.post_state:
        raise RuntimeError("spatial branches diverged after the swap")
    post = _apply(
        zero.post_state,
        (apply_hwp45, 1, PathLabel.S11),
        (apply_hwp45, 2, PathLabel.S22),
        (apply_path_coupler, 1),
        (apply_path_coupler, 2),
    )
    return [replace(zero, post_state=post), replace(two, post_state=post)]


def _check_classes(*gates: list[MeasurementBranch]) -> None:
    classes = [[br.phase_class for br in branches] for branches in gates]
    if classes != [[1, 3], [0, 2], [1, 3]]:
        raise RuntimeError(f"unexpected phase classes {classes}")


def _check_merged(state: _SizeFreeState) -> None:
    """Check that the drop branch of the second probe gate is a merged W
    state of n+m-2 photons at every (n, m): both photons vertical, one term
    in each single-W register pattern, and one c for every term.  At (n, m)
    a term of pattern weight w stores w*c/Z and stands for w positions, so
    one c is one per-position amplitude."""
    # a key is (reg_a, reg_b, pol1, path1, pol2, path2, probe_phase)
    if any((key[2], key[4]) != (Polarization.V,) * 2 for key, _, _ in state.terms):
        raise ValueError("photons are not all vertical")
    # the patterns (W, all-H) and (all-H, W) of _PATTERNS
    if sorted(i for _, i, _ in state.terms) != [1, 2]:
        raise ValueError("merged W state must cover the two single-W patterns")
    if len({c for _, _, c in state.terms}) != 1:
        raise ValueError("per-position amplitudes are unequal")


class _Branch(NamedTuple):
    """A measurement branch of the size-free run: its phase class, its
    share of each register pattern's norm over its measurement's common
    denominator, and the index of its post-state in ``_GateRun.states``."""

    phase_class: int
    sums: tuple[int, ...]
    state: int


class _GateRun(NamedTuple):
    states: tuple[_SizeFreeState, ...]
    # the branches of polarization gate 1, the spatial gate, polarization gate 2
    gates: tuple[tuple[_Branch, ...], ...]


@functools.cache
def _gate_run() -> _GateRun:
    """The gate sequence, run once per process with no party sizes.

    Each fact that holds at every (n, m) is checked here, once: the phase
    classes of the three measurements, and the merged W state.  A branch's
    share of a pattern's norm is its probability times its post-state's
    pattern sum: ``homodyne_measure`` checks that the share survives the
    readout, and the elements of the spatial gate that act after it keep
    every pattern sum.
    """
    gate1 = polarization_gate(_size_free_input(), Polarization.H)
    spatial = step2_spatial_gate(gate1[0].post_state)
    gate2 = polarization_gate(spatial[0].post_state, Polarization.V)
    _check_classes(gate1, spatial, gate2)
    index: dict[BranchState, int] = {}
    gates = []
    for branches in (gate1, spatial, gate2):
        shares = []
        for br in branches:
            sums = pattern_sums(br.post_state.terms)
            shares.append([br.probability_exact * sums.get(r, 0) for r in _PATTERNS])
        den = math.lcm(*(f.denominator for row in shares for f in row))
        gates.append(
            tuple(
                _Branch(
                    br.phase_class,
                    tuple(int(f * den) for f in row),
                    index.setdefault(br.post_state, len(index)),
                )
                for br, row in zip(branches, shares)
            )
        )
    states = tuple(_SizeFreeState.of(s) for s in index)
    _check_merged(states[gates[2][1].state])
    return _GateRun(states, tuple(gates))


def _weigh_branches(
    branches: tuple[_Branch, ...], weights: tuple[int, ...], states: list[BranchState]
) -> tuple[MeasurementBranch, ...]:
    """One measurement of the size-free run at these pattern weights: each
    branch probability is a ratio of two weighted sums."""
    xs = [_weigh(weights, br.sums) for br in branches]
    total = sum(xs)
    # from a list, as in _SizeFreeState.at
    return tuple(
        [
            MeasurementBranch(br.phase_class, Fraction(x, total), states[br.state])
            for br, x in zip(branches, xs)
        ]
    )


def run_fusion(n: int, m: int) -> OutcomeTree:
    """Collect the stages and classified leaves of the fusion of W_n and W_m.

    The cached size-free gate run is weighed at (n, m); the stored exact
    values are those the gates give when run at (n, m).  Both spatial
    branches carry one completed state, so the second probe gate runs once
    and is recorded under each of them, and the two spatial probabilities
    sum to exactly 1.  Leaf probabilities are cumulative from the root,
    exact, and checked to sum to one.
    """
    weights = _pattern_weights(n, m)
    run = _gate_run()
    states = [s.at(weights) for s in run.states]
    stage1, stage2, stage3 = [_weigh_branches(g, weights, states) for g in run.gates]
    (keep1, drop1), (keep3, drop3) = stage1, stage3
    p_keep1 = keep1.probability_exact
    leaves = {
        LeafKind.SUCCESS: OutcomeLeaf(
            (n + m,), p_keep1 * keep3.probability_exact, keep3.post_state
        ),
        LeafKind.RECYCLABLE_PAIR: OutcomeLeaf(
            (n - 1, m - 1), drop1.probability_exact, drop1.post_state
        ),
        LeafKind.RECYCLABLE_MERGED: OutcomeLeaf(
            (n + m - 2,), p_keep1 * drop3.probability_exact, drop3.post_state
        ),
    }
    if sum(lf.probability_exact for lf in leaves.values()) != 1:
        raise RuntimeError("exact leaf probabilities do not sum to 1")
    stages = (
        StageRecord("polarization-gate-1", stage1),
        StageRecord("spatial-gate", stage2),
        StageRecord("polarization-gate-2[via phase-class-0]", stage3),
        StageRecord("polarization-gate-2[via phase-class-2]", stage3),
    )
    return OutcomeTree(n, m, stages, leaves)
