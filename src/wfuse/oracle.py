"""Dense state-vector cross-checks for the fusion pipeline.

Everything here works on explicit amplitude vectors with a fixed qubit
ordering: party A's kept modes, photon 1, party B's kept modes, photon 2,
encoded H -> 0, V -> 1 with qubit i on bit i of the index.  A vector is
stored on its support: a sorted list of basis indices and the amplitude of
each, every other index having amplitude 0.  The brute-force pipeline
re-runs the whole protocol in this representation, modeling the homodyne
classes as orthogonal probe sectors.  Its state maps each live (path1,
path2, probe phase) slice to one vector over a common support, where a path
is 0 while the photon is unsplit and 1 or 2 on its two split paths.  It
never touches the symbolic term algebra, so agreement between the two is an
independent check rather than a tautology.

Every vector the oracle builds is real float64.  That is exact, not an
approximation: every element it models is real.  The Kerr phases become
orthogonal probe-sector labels, the half-wave plate is a bit flip, the path
gate halves a vector and the couplers sum slices, and every symbolic
amplitude is real.  The two half-wave-plate flips are the only elements
that move a basis index, so the run never leaves the closure of the input
W_n x W_m support under them: at most 4nm indices, whatever 2**q is.  A flip
that would leave that support raises rather than drop amplitude.
``DenseState`` and ``fidelity`` accept any dtype and never cast: a complex
input keeps its imaginary part.  Inner products are numpy ufunc reductions
rather than ``vdot``, which would hand vectors to a multithreaded BLAS;
``ndarray.conj`` returns a real array itself, so a real inner product copies
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .optics import BranchState, PathLabel, RegisterKind
from .protocol import LeafKind

# every basis index and the bound 2**q fit in a signed 64-bit integer
MAX_QUBITS = 62
NORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class DenseState:
    """Normalized state over qubit_count qubits: amplitudes[i] belongs to
    basis index support[i], and every index off the support has amplitude 0.
    The support is a strictly increasing int64 array."""

    qubit_count: int
    support: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        q, support, amps = self.qubit_count, self.support, self.amplitudes
        if not 1 <= q <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}")
        if support.dtype != np.int64 or support.ndim != 1:
            raise ValueError("support must be a 1-D int64 array")
        if support.shape != amps.shape:
            raise ValueError("support and amplitudes differ in shape")
        if (support[1:] <= support[:-1]).any():
            raise ValueError("support is not strictly increasing")
        if support.size and (support[0] < 0 or support[-1] >= 1 << q):
            raise ValueError(f"support index outside 0..2**{q}-1")
        norm = float((abs(amps) ** 2).sum())
        if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"state norm {norm} is not 1")


def make_w_state(n: int) -> DenseState:
    """Equal superposition of all single-V computational states."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"W size must be in 1..{MAX_QUBITS}")
    support = 1 << np.arange(n, dtype=np.int64)
    return DenseState(n, support, np.full(n, 1.0 / np.sqrt(n)))


def fidelity(a: DenseState, b: DenseState) -> float:
    if a.qubit_count != b.qubit_count:
        raise ValueError("qubit counts differ")
    # where each index of a's support sits in b's, and whether it is there
    pos = np.searchsorted(b.support, a.support)
    hit = b.support.take(pos, mode="clip") == a.support
    ip = (a.amplitudes[hit].conj() * b.amplitudes[pos[hit]]).sum()
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
    amps: dict[int, float] = {}
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
        amp = term.amplitude
        for pat_a, amp_a in _register_patterns(term.reg_a, n - 1):
            for pat_b, amp_b in _register_patterns(term.reg_b, m - 1):
                idx = base | pat_a | (pat_b << n)
                amps[idx] = amps.get(idx, 0.0) + amp * amp_a * amp_b
    support = sorted(amps)
    values = np.array([amps[idx] for idx in support])
    return DenseState(q, np.array(support, dtype=np.int64), values)


class DenseLeaf(NamedTuple):
    """One leaf of the brute-force run: its probability and its q-qubit state."""

    probability: float
    state: DenseState


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
    """Scale vec by the reciprocal of sqrt(prob).  Later stage probabilities
    are sums over the scaled vectors, so this rounding reaches `verify`'s
    printed dprob: dividing by sqrt(prob) rounds differently."""
    return vec * (1.0 / np.sqrt(prob))


def _measure(state: dict, ks: tuple[int, ...]) -> tuple[float, dict]:
    """Readout outcome covering the probe sectors ks.

    Returns its probability and the renormalized post-state with the probe
    reset; slices that then share a path pair are summed.  Within one
    outcome no basis element occupies two sectors, so that sum relabels.
    """
    hits = [(key, vec) for key, vec in state.items() if key[2] in ks]
    prob = float(sum((vec * vec).sum() for _, vec in hits))
    post = _collect(((p1, p2, 0), vec) for (p1, p2, _), vec in hits)
    return prob, {key: _renormalize(vec, prob) for key, vec in post.items()}


def _flip(support: np.ndarray, bit: int) -> np.ndarray:
    """Gather order that flips `bit` of every index of a vector over support:
    vec[_flip(support, bit)] is the flipped vector.  Raises if the support is
    not closed under the flip, rather than drop the amplitude that leaves it."""
    target = support ^ bit
    pos = np.searchsorted(support, target)
    if not np.array_equal(support.take(pos, mode="clip"), target):
        raise RuntimeError("bit flip leaves the dense support")
    return pos


def brute_force_pipeline(n: int, m: int) -> dict[LeafKind, DenseLeaf]:
    """Re-run the whole protocol on dense vectors, one per live (path1,
    path2, probe phase) slice, and report every leaf probability and state."""
    if n < 2 or m < 2:
        raise ValueError("party sizes must be >= 2")
    q = n + m
    if q > MAX_QUBITS:
        raise ValueError(f"{q} qubits exceed the dense limit {MAX_QUBITS}")
    w_n, w_m = make_w_state(n), make_w_state(m)
    inputs = (w_m.support[:, None] << n) | w_n.support
    # the half-wave plates flip bit n - 1 or q - 1 and no other element moves
    # an index, so every slice lives on the closure of the input under both
    photon1, photon2 = 1 << (n - 1), 1 << (q - 1)
    idx = np.unique([inputs ^ f for f in (0, photon1, photon2, photon1 | photon2)])
    # each gate shifts the probe by 1 - 2 * (photons of one polarization),
    # so the count of vertical photons picks one of three fixed sectors
    vertical = ((idx >> (n - 1)) & 1) + ((idx >> (q - 1)) & 1)
    masks = [vertical == c for c in range(3)]
    unsplit = (0, 0, 0)

    # ---- first polarization gate ----
    product = np.zeros(idx.size)
    product[np.searchsorted(idx, inputs)] = np.outer(w_m.amplitudes, w_n.amplitudes)
    sectors = [(1 - 2 * (2 - c), masks[c]) for c in range(3)]
    stage = _kerr({unsplit: product}, sectors)
    p_keep1, psi = _measure(stage, (-1, 1))
    p_pair, pair_branch = _measure(stage, (-3,))
    pair_state = DenseState(q, idx, pair_branch[unsplit])

    # ---- path gate: each photon splits evenly over its paths 1 and 2 ----
    half = psi[unsplit] / 2.0
    stage = {(1, 1, 0): half, (1, 2, 2): half, (2, 1, -2): half, (2, 2, 0): half}
    p_zero, zero_branch = _measure(stage, (0,))
    p_two, two_branch = _measure(stage, (-2, 2))
    # the swap exchanges photon 2's split paths
    swapped = {(p1, 3 - p2, k): vec for (p1, p2, k), vec in two_branch.items()}
    spatial_branches = [(p_zero, zero_branch), (p_two, swapped)]

    flip1 = _flip(idx, photon1)
    flip2 = _flip(idx, photon2)
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
        norm = float(sum((vec * vec).sum() for vec in merged.values()))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise RuntimeError("path couplers failed to conserve the norm")

        # ---- second polarization gate ----
        stage = _kerr(merged, sectors)
        p_succ, succ = _measure(stage, (-1, 1))
        p_merge, merge = _measure(stage, (-3,))
        success_probability += p_keep1 * p_branch * p_succ
        merged_probability += p_keep1 * p_branch * p_merge

        if success_state is None:  # leaf states come from the first branch
            success_state = DenseState(q, idx, succ[unsplit])
            merged_state = DenseState(q, idx, merge[unsplit])
            stray = np.where(masks[2], 0.0, merged_state.amplitudes)
            if float((stray * stray).sum()) > NORM_TOL:
                raise RuntimeError("merged branch has non-vertical photons")

    return {
        LeafKind.SUCCESS: DenseLeaf(success_probability, success_state),
        LeafKind.RECYCLABLE_PAIR: DenseLeaf(p_pair, pair_state),
        LeafKind.RECYCLABLE_MERGED: DenseLeaf(merged_probability, merged_state),
    }
