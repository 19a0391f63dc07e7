"""Dense state-vector cross-checks for the fusion pipeline.

Everything here works on explicit 2**q amplitude vectors with a fixed qubit
ordering: party A's kept modes, photon 1, party B's kept modes, photon 2,
encoded H -> 0, V -> 1 with qubit i on bit i of the index.  The brute-force
pipeline re-runs the whole protocol in this representation, modeling the
homodyne classes as orthogonal probe sectors, and never touches the
symbolic term algebra, so agreement between the two is an independent
check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optics import BranchState, PathLabel, RegisterKind
from .protocol import LeafClassification, LeafKind

MAX_QUBITS = 14
NORM_TOL = 1e-10

# probe sector axis: integer phases -4..+4 stored at offset +4
_K_OFF = 4
_K_DIM = 9
# path axis values per photon: not-split, first split path, second split path
_UNSPLIT, _FIRST, _SECOND = 0, 1, 2


@dataclass(frozen=True, eq=False)
class DenseState:
    """Normalized amplitude vector over qubit_count qubits."""

    qubit_count: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.qubit_count <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}")
        if self.amplitudes.shape != (2**self.qubit_count,):
            raise ValueError("amplitude vector has the wrong length")
        norm = float(np.sum(np.abs(self.amplitudes) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} is not 1")


def make_w_state(n: int) -> DenseState:
    """Equal superposition of all single-V computational states."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"W size must be in 1..{MAX_QUBITS}")
    amps = np.zeros(2**n, dtype=complex)
    amps[[1 << j for j in range(n)]] = 1.0 / np.sqrt(n)
    return DenseState(n, amps)


def fidelity(a: DenseState, b: DenseState) -> float:
    if a.qubit_count != b.qubit_count:
        raise ValueError("qubit counts differ")
    ip = np.vdot(a.amplitudes, b.amplitudes)
    return float(abs(ip) ** 2)


def _register_patterns(kind: RegisterKind, count: int):
    """(bit pattern, amplitude) pairs for one kept register of count modes."""
    if kind is RegisterKind.ALL_HORIZONTAL:
        yield 0, 1.0
    else:
        amp = 1.0 / np.sqrt(count)
        for j in range(count):
            yield 1 << j, amp


def expand_symbolic(state: BranchState) -> DenseState:
    """Expand a symbolic branch state into the dense representation.

    Requires unsplit photons and a reset probe; raises if the result does
    not normalize, which catches empty and corrupted inputs.
    """
    n, m = state.n_party_a, state.m_party_b
    q = n + m
    if q > MAX_QUBITS:
        raise ValueError(f"{q} qubits exceed the dense limit {MAX_QUBITS}")
    amps = np.zeros(2**q, dtype=complex)
    for term in state.terms:
        if term.path1 is not PathLabel.UNSPLIT:
            raise ValueError("photon 1 is still split")
        if term.path2 is not PathLabel.UNSPLIT:
            raise ValueError("photon 2 is still split")
        if term.probe_phase != 0:
            raise ValueError("probe phase is not reset")
        bit1 = 1 if term.pol1.value == "V" else 0
        bit2 = 1 if term.pol2.value == "V" else 0
        base = (bit1 << (n - 1)) | (bit2 << (q - 1))
        for pat_a, amp_a in _register_patterns(term.reg_a, n - 1):
            for pat_b, amp_b in _register_patterns(term.reg_b, m - 1):
                idx = base | pat_a | (pat_b << n)
                amps[idx] += term.amplitude * amp_a * amp_b
    return DenseState(q, amps)


def embed_register_state(
    kept: np.ndarray, n: int, m: int, pol1_v: bool, pol2_v: bool
) -> DenseState:
    """Insert definite photon polarizations into a kept-register vector."""
    q = n + m
    amps = np.zeros(2**q, dtype=complex)
    base = (int(pol1_v) << (n - 1)) | (int(pol2_v) << (q - 1))
    low_mask = (1 << (n - 1)) - 1
    for idx in range(len(kept)):
        if kept[idx] == 0:
            continue
        full = base | (idx & low_mask) | ((idx >> (n - 1)) << n)
        amps[full] = kept[idx]
    return DenseState(q, amps)


@dataclass(frozen=True, eq=False)
class DensePipelineResult:
    """Leaf probabilities and leaf states from the brute-force run."""

    n: int
    m: int
    success_probability: float
    pair_probability: float
    merged_probability: float
    success_state: DenseState
    pair_state: DenseState
    merged_kept_state: DenseState


def _sector_probability(psi: np.ndarray, ks: tuple[int, ...]) -> float:
    return float(sum(np.sum(np.abs(psi[..., _K_OFF + k]) ** 2) for k in ks))


def _collapse_sectors(psi: np.ndarray, ks: tuple[int, ...], prob: float) -> np.ndarray:
    """Project onto the given probe sectors, renormalize, reset the probe.

    Amplitude never occupies two sectors of one group for the same basis
    element here, so summing the sectors is a plain relabeling.
    """
    out = np.zeros_like(psi)
    acc = np.zeros(psi.shape[:-1], dtype=complex)
    for k in ks:
        acc += psi[..., _K_OFF + k]
    out[..., _K_OFF] = acc / np.sqrt(prob)
    return out


def brute_force_pipeline(n: int, m: int) -> DensePipelineResult:
    """Re-run the whole protocol on dense vectors with explicit path and
    probe axes and report every leaf probability and state."""
    if n < 2 or m < 2:
        raise ValueError("party sizes must be >= 2")
    q = n + m
    if q > MAX_QUBITS:
        raise ValueError(f"{q} qubits exceed the dense limit {MAX_QUBITS}")
    dim = 2**q
    idx = np.arange(dim)
    bit1 = (idx >> (n - 1)) & 1
    bit2 = (idx >> (q - 1)) & 1

    # input product state: psi[pol, path1, path2, k]
    psi = np.zeros((dim, 3, 3, _K_DIM), dtype=complex)
    psi[:, _UNSPLIT, _UNSPLIT, _K_OFF] = np.kron(
        make_w_state(m).amplitudes, make_w_state(n).amplitudes
    )

    # ---- first polarization gate ----
    shift1 = -2 * ((1 - bit1) + (1 - bit2)) + 1
    stage = np.zeros_like(psi)
    for s in (-3, -1, 1):
        mask = shift1 == s
        stage[mask, :, :, _K_OFF + s] = psi[mask, :, :, _K_OFF]
    p_keep1 = _sector_probability(stage, (-1, 1))
    p_pair = _sector_probability(stage, (-3,))
    pair_branch = _collapse_sectors(stage, (-3,), p_pair)
    pair_state = DenseState(
        q, pair_branch[:, _UNSPLIT, _UNSPLIT, _K_OFF].copy()
    )
    psi = _collapse_sectors(stage, (-1, 1), p_keep1)

    # ---- path gate ----
    split = np.zeros_like(psi)
    for p1 in (_FIRST, _SECOND):
        for p2 in (_FIRST, _SECOND):
            split[:, p1, p2, :] = psi[:, _UNSPLIT, _UNSPLIT, :] / 2.0
    stage = np.zeros_like(split)
    for p1, p2, s in (
        (_FIRST, _FIRST, 0),
        (_FIRST, _SECOND, 2),
        (_SECOND, _FIRST, -2),
        (_SECOND, _SECOND, 0),
    ):
        stage[:, p1, p2, _K_OFF + s] = split[:, p1, p2, _K_OFF]
    p_zero = _sector_probability(stage, (0,))
    p_two = _sector_probability(stage, (-2, 2))

    spatial_branches = []
    zero_branch = _collapse_sectors(stage, (0,), p_zero)
    spatial_branches.append((p_zero, zero_branch))
    swapped = _collapse_sectors(stage, (-2, 2), p_two)
    swapped = swapped[:, :, (_UNSPLIT, _SECOND, _FIRST), :]
    spatial_branches.append((p_two, swapped))

    flip1 = idx ^ (1 << (n - 1))
    flip2 = idx ^ (1 << (q - 1))
    shift3 = -2 * (bit1 + bit2) + 1

    success_probability = 0.0
    merged_probability = 0.0
    success_state = None
    merged_kept_state = None
    for p_branch, branch in spatial_branches:
        # half-wave plates on one split path of each photon
        plated = branch.copy()
        plated[:, _FIRST, :, :] = branch[flip1, _FIRST, :, :]
        tmp = plated.copy()
        plated[:, :, _SECOND, :] = tmp[flip2, :, _SECOND, :]
        # couplers erase both path labels
        merged = np.zeros_like(plated)
        acc = np.zeros((dim, _K_DIM), dtype=complex)
        for p1 in (_FIRST, _SECOND):
            for p2 in (_FIRST, _SECOND):
                acc += plated[:, p1, p2, :]
        merged[:, _UNSPLIT, _UNSPLIT, :] = acc
        norm = float(np.sum(np.abs(merged) ** 2))
        if abs(norm - 1.0) > NORM_TOL:
            raise RuntimeError("path couplers failed to conserve the norm")

        # ---- second polarization gate ----
        stage = np.zeros_like(merged)
        for s in (-3, -1, 1):
            mask = shift3 == s
            stage[mask, :, :, _K_OFF + s] = merged[mask, :, :, _K_OFF]
        p_succ = _sector_probability(stage, (-1, 1))
        p_merge = _sector_probability(stage, (-3,))
        success_probability += p_keep1 * p_branch * p_succ
        merged_probability += p_keep1 * p_branch * p_merge

        succ = _collapse_sectors(stage, (-1, 1), p_succ)
        succ_vec = succ[:, _UNSPLIT, _UNSPLIT, _K_OFF].copy()
        if success_state is None:
            success_state = DenseState(q, succ_vec)
        merge = _collapse_sectors(stage, (-3,), p_merge)
        merge_vec = merge[:, _UNSPLIT, _UNSPLIT, _K_OFF]
        if merged_kept_state is None:
            both_v = (bit1 == 1) & (bit2 == 1)
            if float(np.sum(np.abs(merge_vec[~both_v]) ** 2)) > NORM_TOL:
                raise RuntimeError("merged branch has non-vertical photons")
            kept = np.zeros(2 ** (q - 2), dtype=complex)
            low_mask = (1 << (n - 1)) - 1
            mid_mask = (1 << (m - 1)) - 1
            src = np.nonzero(both_v)[0]
            dst = (src & low_mask) | (((src >> n) & mid_mask) << (n - 1))
            kept[dst] = merge_vec[src]
            kept /= np.sqrt(np.sum(np.abs(kept) ** 2))
            merged_kept_state = DenseState(q - 2, kept)

    pair_probability = p_pair
    return DensePipelineResult(
        n,
        m,
        success_probability,
        pair_probability,
        merged_probability,
        success_state,
        pair_state,
        merged_kept_state,
    )


def brute_force_leaf_probabilities(n: int, m: int) -> dict[LeafClassification, float]:
    """Leaf probabilities keyed the same way the symbolic pipeline keys them."""
    res = brute_force_pipeline(n, m)
    return {
        LeafClassification(LeafKind.SUCCESS, (n + m,)): res.success_probability,
        LeafClassification(LeafKind.RECYCLABLE_PAIR, (n - 1, m - 1)): res.pair_probability,
        LeafClassification(LeafKind.RECYCLABLE_MERGED, (n + m - 2,)): res.merged_probability,
    }
