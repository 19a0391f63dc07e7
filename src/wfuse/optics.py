"""Term algebra for the optical fusion pipeline.

A state is a finite superposition over a small structured basis: the kept
register of each party, the polarization and path of the two traveling
photons, and an integer probe phase recorded in half-angle units.  The
optical elements (polarization- and path-conditioned Kerr media, beam
splitters, half-wave plates, path couplers, the path swap) act term by term
and are all pure functions returning a new canonicalized state.

Every amplitude in the pipeline has the form sign*sqrt(q) with q rational,
so each term carries it twice: as a real float and as that exact signed
square root.  The exact track is what lets the pipeline report branch
probabilities as exact fractions; a sum of amplitudes that leaves the form
raises rather than degrading to the float alone.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable

import numpy as np

# tolerance for norm bookkeeping
NORM_EPS = 1e-12
# the pipeline never drives the probe phase outside this range
MAX_ABS_PROBE_PHASE = 4

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class Polarization(Enum):
    H = "H"
    V = "V"

    def flipped(self) -> "Polarization":
        return Polarization.V if self is Polarization.H else Polarization.H


class PathLabel(Enum):
    UNSPLIT = "unsplit"
    S11 = "s11"
    S12 = "s12"
    S21 = "s21"
    S22 = "s22"


# each photon may only occupy its own pair of split paths
PHOTON1_PATHS = (PathLabel.UNSPLIT, PathLabel.S11, PathLabel.S12)
PHOTON2_PATHS = (PathLabel.UNSPLIT, PathLabel.S21, PathLabel.S22)


class RegisterKind(Enum):
    ALL_HORIZONTAL = "all-horizontal"
    W_STATE = "w-state"


@dataclass(frozen=True)
class RegisterContent:
    """Kept modes of one party: either uniformly horizontal or a W state."""

    kind: RegisterKind
    photon_count: int

    def __post_init__(self) -> None:
        if self.photon_count < 0:
            raise ValueError("register photon count must be non-negative")
        if self.kind is RegisterKind.W_STATE and self.photon_count < 1:
            raise ValueError("a W register holds at least one photon")

    @staticmethod
    def all_horizontal(count: int) -> "RegisterContent":
        return RegisterContent(RegisterKind.ALL_HORIZONTAL, count)

    @staticmethod
    def w_state(count: int) -> "RegisterContent":
        return RegisterContent(RegisterKind.W_STATE, count)


@dataclass(frozen=True)
class PhotonState:
    pol: Polarization
    path: PathLabel


@dataclass(frozen=True)
class ExactAmp:
    """Real amplitude sign*sqrt(mag2) with mag2 an exact rational."""

    sign: int
    mag2: Fraction

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        if self.mag2 < 0:
            raise ValueError("squared magnitude must be non-negative")

    def scaled_mag2(self, factor: Fraction) -> "ExactAmp":
        return ExactAmp(self.sign, self.mag2 * factor)

    def negated(self) -> "ExactAmp":
        return ExactAmp(-self.sign, self.mag2)

    def to_float(self) -> float:
        return self.sign * math.sqrt(self.mag2)


def add_exact(a: ExactAmp, b: ExactAmp) -> ExactAmp:
    """Sum of two exact amplitudes; raises ValueError if it leaves the form."""
    if a.mag2 == 0:
        return b
    if b.mag2 == 0:
        return a
    prod = a.mag2 * b.mag2
    num, den = math.isqrt(prod.numerator), math.isqrt(prod.denominator)
    if num * num != prod.numerator or den * den != prod.denominator:
        raise ValueError(
            f"sqrt({a.mag2}) and sqrt({b.mag2}) sum outside the form sign*sqrt(q)"
        )
    cross = Fraction(num, den)
    if a.sign == b.sign:
        return ExactAmp(a.sign, a.mag2 + b.mag2 + 2 * cross)
    if a.mag2 == b.mag2:
        return ExactAmp(1, Fraction(0))
    bigger = a if a.mag2 > b.mag2 else b
    return ExactAmp(bigger.sign, a.mag2 + b.mag2 - 2 * cross)


@dataclass(frozen=True)
class FusionTerm:
    """One basis component of a pipeline state.

    ``probe_phase`` counts the probe's accumulated phase in half-angle
    units, so a physical shift of one full Kerr angle is recorded as 2.
    """

    amplitude: float
    reg_a: RegisterContent
    reg_b: RegisterContent
    photon1: PhotonState
    photon2: PhotonState
    probe_phase: int
    exact: ExactAmp

    def __post_init__(self) -> None:
        if self.photon1.path not in PHOTON1_PATHS:
            raise ValueError(f"photon 1 cannot occupy path {self.photon1.path.value}")
        if self.photon2.path not in PHOTON2_PATHS:
            raise ValueError(f"photon 2 cannot occupy path {self.photon2.path.value}")
        if abs(self.probe_phase) > MAX_ABS_PROBE_PHASE:
            raise ValueError("probe phase outside the protocol range")

    def merge_key(self):
        return (self.reg_a, self.reg_b, self.photon1, self.photon2, self.probe_phase)

    def sort_key(self):
        return (
            self.reg_a.kind.value,
            self.reg_b.kind.value,
            self.photon1.pol.value,
            self.photon1.path.value,
            self.photon2.pol.value,
            self.photon2.path.value,
            self.probe_phase,
            self.reg_a.photon_count,
            self.reg_b.photon_count,
        )


@dataclass(frozen=True)
class BranchState:
    """Canonicalized superposition of fusion terms for fixed party sizes."""

    terms: tuple[FusionTerm, ...]
    n_party_a: int
    m_party_b: int

    def norm_squared(self) -> float:
        return sum(t.amplitude**2 for t in self.terms)

    def norm_squared_exact(self) -> Fraction:
        return sum((t.exact.mag2 for t in self.terms), Fraction(0))


def make_branch_state(
    terms: Iterable[FusionTerm], n_party_a: int, m_party_b: int
) -> BranchState:
    """Merge duplicate keys, drop exactly vanished terms, sort, check norm."""
    # a dict keeps first-insertion order, which the stable sort below relies on
    merged: dict = {}
    for term in terms:
        key = term.merge_key()
        prev = merged.get(key)
        if prev is not None:
            term = replace(
                prev,
                amplitude=prev.amplitude + term.amplitude,
                exact=add_exact(prev.exact, term.exact),
            )
        merged[key] = term
    kept = [t for t in merged.values() if t.exact.mag2 != 0]
    kept.sort(key=FusionTerm.sort_key)
    state = BranchState(tuple(kept), n_party_a, m_party_b)
    if state.norm_squared() > 1.0 + NORM_EPS:
        raise ValueError("state norm exceeds 1")
    return state


def _check_photon_idx(photon_idx: int) -> None:
    if photon_idx not in (1, 2):
        raise ValueError(f"photon index must be 1 or 2, got {photon_idx!r}")


def _get_photon(term: FusionTerm, photon_idx: int) -> PhotonState:
    return term.photon1 if photon_idx == 1 else term.photon2


def _set_photon(term: FusionTerm, photon_idx: int, photon: PhotonState) -> FusionTerm:
    if photon_idx == 1:
        return replace(term, photon1=photon)
    return replace(term, photon2=photon)


def _rebuild(state: BranchState, terms: Iterable[FusionTerm]) -> BranchState:
    return make_branch_state(terms, state.n_party_a, state.m_party_b)


def cross_kerr_on_polarization(
    state: BranchState, photon_idx: int, pol: Polarization, shift_half_theta: int
) -> BranchState:
    """Advance the probe phase on every term whose photon has polarization pol."""
    _check_photon_idx(photon_idx)
    out = []
    for term in state.terms:
        if _get_photon(term, photon_idx).pol is pol:
            term = replace(term, probe_phase=term.probe_phase + shift_half_theta)
        out.append(term)
    return _rebuild(state, out)


def cross_kerr_on_path(
    state: BranchState, photon_idx: int, path: PathLabel, shift_half_theta: int
) -> BranchState:
    """Advance the probe phase on every term whose photon travels on path."""
    _check_photon_idx(photon_idx)
    out = []
    for term in state.terms:
        if _get_photon(term, photon_idx).path is path:
            term = replace(term, probe_phase=term.probe_phase + shift_half_theta)
        out.append(term)
    return _rebuild(state, out)


def probe_linear_shift(state: BranchState, shift_half_theta: int) -> BranchState:
    """Displace the probe phase uniformly on all terms."""
    out = [
        replace(t, probe_phase=t.probe_phase + shift_half_theta) for t in state.terms
    ]
    return _rebuild(state, out)


def apply_bs(state: BranchState, photon_idx: int) -> BranchState:
    """Split an unsplit photon over its two paths with weight 1/sqrt(2) each."""
    _check_photon_idx(photon_idx)
    first, second = (
        (PathLabel.S11, PathLabel.S12) if photon_idx == 1 else (PathLabel.S21, PathLabel.S22)
    )
    out = []
    for term in state.terms:
        photon = _get_photon(term, photon_idx)
        if photon.path is not PathLabel.UNSPLIT:
            raise ValueError("photon is already split")
        amp = term.amplitude * _INV_SQRT2
        exact = term.exact.scaled_mag2(Fraction(1, 2))
        for path in (first, second):
            out.append(
                _set_photon(
                    replace(term, amplitude=amp, exact=exact),
                    photon_idx,
                    PhotonState(photon.pol, path),
                )
            )
    return _rebuild(state, out)


def apply_hwp45(state: BranchState, photon_idx: int, path: PathLabel) -> BranchState:
    """Flip the photon's polarization on the given path (sigma-x there)."""
    _check_photon_idx(photon_idx)
    out = []
    for term in state.terms:
        photon = _get_photon(term, photon_idx)
        if photon.path is path:
            term = _set_photon(term, photon_idx, PhotonState(photon.pol.flipped(), path))
        out.append(term)
    return _rebuild(state, out)


def apply_path_coupler(state: BranchState, photon_idx: int) -> BranchState:
    """Erase the photon's path label; coinciding terms sum without rescaling."""
    _check_photon_idx(photon_idx)
    out = []
    for term in state.terms:
        photon = _get_photon(term, photon_idx)
        if photon.path is not PathLabel.UNSPLIT:
            term = _set_photon(
                term, photon_idx, PhotonState(photon.pol, PathLabel.UNSPLIT)
            )
        out.append(term)
    return _rebuild(state, out)


def apply_swap(state: BranchState) -> BranchState:
    """Exchange photon 2's path labels."""
    exchange = {PathLabel.S21: PathLabel.S22, PathLabel.S22: PathLabel.S21}
    out = []
    for term in state.terms:
        path = term.photon2.path
        if path in exchange:
            term = replace(
                term, photon2=PhotonState(term.photon2.pol, exchange[path])
            )
        out.append(term)
    return _rebuild(state, out)


def normalize_global_phase(state: BranchState) -> BranchState:
    """Make the leading canonical amplitude positive."""
    if not state.terms or state.terms[0].amplitude > 0:
        return state
    out = [
        replace(t, amplitude=-t.amplitude, exact=t.exact.negated())
        for t in state.terms
    ]
    return _rebuild(state, out)


@dataclass(frozen=True)
class ProbeConfig:
    """Coherent probe amplitude and Kerr phase angle."""

    alpha: float
    theta: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0 < self.theta < math.pi / 4:
            raise ValueError("theta must lie in (0, pi/4)")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def round_sig12(x: float) -> float:
    """Round to 12 significant digits, the serialization contract."""
    return float(f"{x:.12g}")


def term_to_json_obj(term: FusionTerm) -> dict:
    return {
        "re": round_sig12(term.amplitude),
        "im": 0.0,
        "regA": {"kind": term.reg_a.kind.value, "count": term.reg_a.photon_count},
        "regB": {"kind": term.reg_b.kind.value, "count": term.reg_b.photon_count},
        "p1": {"pol": term.photon1.pol.value, "path": term.photon1.path.value},
        "p2": {"pol": term.photon2.pol.value, "path": term.photon2.path.value},
        "k": term.probe_phase,
    }


def state_to_json_obj(state: BranchState) -> list:
    return [term_to_json_obj(t) for t in state.terms]


def state_to_json(state: BranchState) -> str:
    return json.dumps(state_to_json_obj(state), indent=2)


# ---------------------------------------------------------------------------
# mode matrices for the path-swap element
# ---------------------------------------------------------------------------


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
