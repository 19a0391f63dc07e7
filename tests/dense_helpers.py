"""Dense-vector constructions that only the tests use.

The reference states that the leaves of the fusion are checked against, and
the single-photon mode matrices of the interferometer behind the path swap,
which check that a Mach-Zehnder routing realizes it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from wfuse.oracle import DenseState, make_w_state


def scatter(state: DenseState) -> np.ndarray:
    """The state as a full 2**q vector."""
    vec = np.zeros(2**state.qubit_count, dtype=state.amplitudes.dtype)
    vec[state.support] = state.amplitudes
    return vec


def gather(vec: np.ndarray) -> DenseState:
    """The DenseState on the nonzero entries of a full 2**q vector."""
    support = np.flatnonzero(vec).astype(np.int64)
    return DenseState(int(vec.size).bit_length() - 1, support, vec[support])


def kept_w_product(n: int, m: int) -> DenseState:
    """W_(n-1) on party A's kept modes and W_(m-1) on party B's."""
    kept = np.kron(scatter(make_w_state(m - 1)), scatter(make_w_state(n - 1)))
    return gather(kept)


def embed_register_state(
    kept: DenseState, n: int, m: int, pol1_v: bool, pol2_v: bool
) -> DenseState:
    """Insert definite photon polarizations into a kept-register state.

    The kept register holds party A's n-1 modes in its low bits and party
    B's m-1 modes above them.  Inserting the photon bits keeps the order of
    the support.
    """
    if kept.qubit_count != n + m - 2:
        raise ValueError(f"kept register must have {n + m - 2} qubits")
    k = kept.support
    base = (int(pol1_v) << (n - 1)) | (int(pol2_v) << (n + m - 1))
    support = (k & ((1 << (n - 1)) - 1)) | ((k >> (n - 1)) << n) | base
    return DenseState(n + m, support, kept.amplitudes)


# ---------------------------------------------------------------------------
# mode matrices for the path-swap element
# ---------------------------------------------------------------------------

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def beam_splitter_matrix() -> np.ndarray:
    """Single-photon mode matrix of a balanced splitter."""
    return np.array([[1.0, 1.0], [1.0, -1.0]]) * _INV_SQRT2


def phase_shift_matrix(phase: float) -> np.ndarray:
    """Phase plate acting on the second of two modes."""
    return np.array([[1.0, 0.0], [0.0, cmath.exp(1j * phase)]])


def mach_zehnder_mode_matrix() -> np.ndarray:
    """Splitter, pi phase on the lower internal arm, splitter."""
    bs = beam_splitter_matrix()
    return bs @ phase_shift_matrix(math.pi) @ bs


SWAP_MATRIX = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


def two_photon_routing_matrix(mode_matrix: np.ndarray) -> np.ndarray:
    """Two-qubit action induced by routing two single-photon qubits.

    Each qubit rides its own input line; the returned 4x4 block is the
    amplitude for finding one photon per output line.  For routings that
    are mode permutations the block is unitary.
    """
    m = np.asarray(mode_matrix, dtype=complex)
    out = np.zeros((4, 4), dtype=complex)
    for q1 in (0, 1):
        for q2 in (0, 1):
            col = 2 * q1 + q2
            # both photons keep their lines
            out[2 * q1 + q2, col] += m[0, 0] * m[1, 1]
            # the photons exchange lines
            out[2 * q2 + q1, col] += m[0, 1] * m[1, 0]
    return out
