"""Dense state-vector cross-checks for the fusion pipeline.

Everything here works on explicit 2**q amplitude vectors with a fixed qubit
ordering: party A's kept modes, photon 1, party B's kept modes, photon 2,
encoded H -> 0, V -> 1 with qubit i on bit i of the index.  The brute-force
pipeline re-runs the whole protocol in this representation, modeling the
homodyne classes as orthogonal probe sectors.  Its state maps each live
(path1, path2, probe phase) slice to one such vector, where a path is 0
while the photon is unsplit and 1 or 2 on its two split paths.  It never
touches the symbolic term algebra, so agreement between the two is an
independent check rather than a tautology.

Every vector the oracle builds is real float64.  That is exact, not an
approximation: every element it models is real.  The Kerr phases become
orthogonal probe-sector labels, the half-wave plate is a bit flip, the path
gate halves a vector and the couplers sum slices, and every symbolic
amplitude is real.  ``DenseState`` and ``fidelity`` accept any dtype
and never cast: a complex input keeps its imaginary part.  Inner products
are numpy ufunc reductions rather than ``vdot``, which would hand 2**q
vectors to a multithreaded BLAS; ``ndarray.conj`` returns a real array
itself, so a real inner product copies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optics import BranchState, PathLabel, RegisterKind
from .protocol import LeafClassification, LeafKind

MAX_QUBITS = 20
NORM_TOL = 1e-10


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
    amps = np.zeros(2**n)
    amps[[1 << j for j in range(n)]] = 1.0 / np.sqrt(n)
    return DenseState(n, amps)


def fidelity(a: DenseState, b: DenseState) -> float:
    if a.qubit_count != b.qubit_count:
        raise ValueError("qubit counts differ")
    ip = np.sum(a.amplitudes.conj() * b.amplitudes)
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
    amps = np.zeros(2**q)
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


def _kept_index(n: int, m: int) -> np.ndarray:
    """Full index of each kept-register index, with both photon bits clear.

    A kept-register index holds party A's n-1 modes in its low bits and
    party B's m-1 modes above them.
    """
    kept = np.arange(2 ** (n + m - 2))
    return (kept & ((1 << (n - 1)) - 1)) | ((kept >> (n - 1)) << n)


def embed_register_state(
    kept: np.ndarray, n: int, m: int, pol1_v: bool, pol2_v: bool
) -> DenseState:
    """Insert definite photon polarizations into a kept-register vector."""
    q = n + m
    amps = np.zeros(2**q)
    base = (int(pol1_v) << (n - 1)) | (int(pol2_v) << (q - 1))
    amps[_kept_index(n, m) | base] = kept
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


def _collect(items) -> dict:
    """Sum the vectors of (key, vector) items that share a key."""
    out = {}
    for key, vec in items:
        out[key] = out[key] + vec if key in out else vec
    return out


def _kerr(state: dict, sectors: list) -> dict:
    """Cross-Kerr gate: move the probe phase of the basis elements in each
    (shift, mask) sector by its shift; the masks partition the basis."""
    return _collect(
        ((p1, p2, k + s), np.where(mask, vec, 0.0))
        for (p1, p2, k), vec in state.items()
        for s, mask in sectors
    )


def _renormalize(vec: np.ndarray, prob: float) -> np.ndarray:
    """Scale vec by the reciprocal of sqrt(prob).  `verify`'s printed dprob
    depends on this rounding: dividing by sqrt(prob) rounds differently."""
    return vec * (1.0 / np.sqrt(prob))


def _measure(state: dict, ks: tuple[int, ...]) -> tuple[float, dict]:
    """Readout outcome covering the probe sectors ks.

    Returns its probability and the renormalized post-state with the probe
    reset; slices that then share a path pair are summed.  Within one
    outcome no basis element occupies two sectors, so that sum relabels.
    """
    hits = [(key, vec) for key, vec in state.items() if key[2] in ks]
    prob = float(sum(np.sum(vec * vec) for _, vec in hits))
    post = _collect(((p1, p2, 0), vec) for (p1, p2, _), vec in hits)
    return prob, {key: _renormalize(vec, prob) for key, vec in post.items()}


def brute_force_pipeline(n: int, m: int) -> DensePipelineResult:
    """Re-run the whole protocol on dense vectors, one per live (path1,
    path2, probe phase) slice, and report every leaf probability and state."""
    if n < 2 or m < 2:
        raise ValueError("party sizes must be >= 2")
    q = n + m
    if q > MAX_QUBITS:
        raise ValueError(f"{q} qubits exceed the dense limit {MAX_QUBITS}")
    idx = np.arange(2**q)
    # each gate shifts the probe by 1 - 2 * (photons of one polarization),
    # so the count of vertical photons picks one of three fixed sectors
    vertical = ((idx >> (n - 1)) & 1) + ((idx >> (q - 1)) & 1)
    masks = [vertical == c for c in range(3)]
    unsplit = (0, 0, 0)

    # ---- first polarization gate ----
    product = np.kron(make_w_state(m).amplitudes, make_w_state(n).amplitudes)
    sectors = [(1 - 2 * (2 - c), masks[c]) for c in range(3)]
    stage = _kerr({unsplit: product}, sectors)
    p_keep1, psi = _measure(stage, (-1, 1))
    p_pair, pair_branch = _measure(stage, (-3,))
    pair_state = DenseState(q, pair_branch[unsplit])

    # ---- path gate: each photon splits evenly over its paths 1 and 2 ----
    half = psi[unsplit] / 2.0
    stage = {(1, 1, 0): half, (1, 2, 2): half, (2, 1, -2): half, (2, 2, 0): half}
    p_zero, zero_branch = _measure(stage, (0,))
    p_two, two_branch = _measure(stage, (-2, 2))
    # the swap exchanges photon 2's split paths
    swapped = {(p1, 3 - p2, k): vec for (p1, p2, k), vec in two_branch.items()}
    spatial_branches = [(p_zero, zero_branch), (p_two, swapped)]

    flip1 = idx ^ (1 << (n - 1))
    flip2 = idx ^ (1 << (q - 1))
    sectors = [(1 - 2 * c, masks[c]) for c in range(3)]

    success_probability = 0.0
    merged_probability = 0.0
    success_state = None
    for p_branch, branch in spatial_branches:
        plated = []
        for (p1, p2, k), vec in branch.items():
            # half-wave plates on one split path of each photon
            if p1 == 1:
                vec = vec[flip1]
            if p2 == 2:
                vec = vec[flip2]
            plated.append(((0, 0, k), vec))
        # couplers erase both path labels
        merged = _collect(plated)
        norm = float(sum(np.sum(vec * vec) for vec in merged.values()))
        if abs(norm - 1.0) > NORM_TOL:
            raise RuntimeError("path couplers failed to conserve the norm")

        # ---- second polarization gate ----
        stage = _kerr(merged, sectors)
        p_succ, succ = _measure(stage, (-1, 1))
        p_merge, merge = _measure(stage, (-3,))
        success_probability += p_keep1 * p_branch * p_succ
        merged_probability += p_keep1 * p_branch * p_merge

        if success_state is None:  # leaf states come from the first branch
            success_state = DenseState(q, succ[unsplit])
            merge_vec = merge[unsplit]
            kept = merge_vec[_kept_index(n, m) | (1 << (n - 1)) | (1 << (q - 1))]
            kept_norm = np.sum(kept * kept)
            if float(np.sum(merge_vec * merge_vec) - kept_norm) > NORM_TOL:
                raise RuntimeError("merged branch has non-vertical photons")
            merged_kept_state = DenseState(q - 2, _renormalize(kept, kept_norm))

    return DensePipelineResult(
        n,
        m,
        success_probability,
        p_pair,
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
