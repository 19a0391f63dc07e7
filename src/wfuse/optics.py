"""Term algebra for the optical fusion pipeline.

A state is a finite superposition over a small structured basis: the kind of
each party's kept register, the polarization and path of the two traveling
photons, and an integer probe phase recorded in half-angle units.  The kept
registers pass through every element unchanged, so the algebra stores no
photon count: party A's register holds n-1 photons and party B's m-1, and
the serializer takes n and m from its caller.  The optical elements
(polarization- and path-conditioned Kerr media, beam splitters, half-wave
plates, path couplers, the path swap) act term by term as pure functions
returning a new canonicalized state.  This module holds only that algebra
and its serialization; the mode matrices that justify the path swap live
with the tests, in ``tests/dense_helpers.py``.

A term is one flat record whose first seven fields are its basis key.  That
key both merges coinciding terms and orders them: the enums are string
mixins, so the key hashes and sorts as plain strings and an integer.

Every amplitude in the pipeline has the form sign*sqrt(q) with q rational,
so each term stores only the amplitude's signed square, one ``Fraction`` e
standing for sign(e)*sqrt(|e|); its real float is derived from it on
demand.  The exact form is what lets the pipeline report
branch probabilities as exact fractions; a sum of amplitudes that leaves the
form raises rather than degrading to a rounded float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple

# tolerance for norm bookkeeping
NORM_EPS = 1e-12
# the pipeline never drives the probe phase outside this range
MAX_ABS_PROBE_PHASE = 4


class Polarization(str, Enum):
    H = "H"
    V = "V"

    def flipped(self) -> "Polarization":
        return Polarization.V if self is Polarization.H else Polarization.H


class PathLabel(str, Enum):
    UNSPLIT = "unsplit"
    S11 = "s11"
    S12 = "s12"
    S21 = "s21"
    S22 = "s22"


# each photon may only occupy its own pair of split paths
PHOTON1_PATHS = (PathLabel.UNSPLIT, PathLabel.S11, PathLabel.S12)
PHOTON2_PATHS = (PathLabel.UNSPLIT, PathLabel.S21, PathLabel.S22)


class RegisterKind(str, Enum):
    """Kept modes of one party: either uniformly horizontal or a W state."""

    ALL_HORIZONTAL = "all-horizontal"
    W_STATE = "w-state"


def add_exact(a: Fraction, b: Fraction) -> Fraction:
    """Sum of two amplitudes given as signed squares, as a signed square.

    sign(a)*sqrt(|a|) + sign(b)*sqrt(|b|) squares to |a| + |b| +- 2*sqrt(ab);
    raises ValueError if sqrt(ab) is irrational, so the sum leaves the form.
    """
    if a == 0:
        return b
    if b == 0:
        return a
    prod = abs(a * b)
    num, den = math.isqrt(prod.numerator), math.isqrt(prod.denominator)
    if num * num != prod.numerator or den * den != prod.denominator:
        raise ValueError(
            f"sqrt({abs(a)}) and sqrt({abs(b)}) sum outside the form sign*sqrt(q)"
        )
    cross = Fraction(2 * num, den)
    if (a > 0) != (b > 0):
        cross = -cross
    mag2 = abs(a) + abs(b) + cross
    # the sum takes the sign of the larger amplitude
    return mag2 if (a if abs(a) >= abs(b) else b) > 0 else -mag2


class FusionTerm(NamedTuple):
    """One basis component of a pipeline state.

    The first seven fields are the basis key (see ``key``); the register
    fields hold only the kind, since no element reads or changes a size.
    ``probe_phase`` counts the probe's accumulated phase in half-angle
    units, so a physical shift of one full Kerr angle is recorded as 2.
    ``exact`` is the amplitude's signed square e: the amplitude is
    sign(e)*sqrt(|e|).
    """

    reg_a: RegisterKind
    reg_b: RegisterKind
    pol1: Polarization
    path1: PathLabel
    pol2: Polarization
    path2: PathLabel
    probe_phase: int
    exact: Fraction

    @property
    def key(self) -> tuple:
        """Basis key: merges coinciding terms and gives the canonical order."""
        return self[:7]

    @property
    def amplitude(self) -> float:
        """Real float amplitude, derived from the exact one."""
        # int / int is the same correctly rounded value as float(|e|), cheaper
        num, den = self.exact.numerator, self.exact.denominator
        return math.sqrt(num / den) if num >= 0 else -math.sqrt(-num / den)


@dataclass(frozen=True)
class BranchState:
    """Canonicalized superposition of fusion terms."""

    terms: tuple[FusionTerm, ...]

    def norm_squared(self) -> float:
        return sum(abs(t.exact.numerator) / t.exact.denominator for t in self.terms)


def make_branch_state(terms: Iterable[FusionTerm]) -> BranchState:
    """Merge duplicate keys, check every key, drop exactly vanished terms,
    sort by key, check the norm."""
    merged: dict[tuple, FusionTerm] = {}
    for term in terms:
        key = term.key
        prev = merged.get(key)
        if prev is not None:
            term = prev._replace(exact=add_exact(prev.exact, term.exact))
        merged[key] = term
    for term in merged.values():
        if term.path1 not in PHOTON1_PATHS:
            raise ValueError(f"photon 1 cannot occupy path {term.path1.value}")
        if term.path2 not in PHOTON2_PATHS:
            raise ValueError(f"photon 2 cannot occupy path {term.path2.value}")
        if abs(term.probe_phase) > MAX_ABS_PROBE_PHASE:
            raise ValueError("probe phase outside the protocol range")
    # keys are unique now, so comparing whole terms never reaches an amplitude
    kept = sorted(t for t in merged.values() if t.exact != 0)
    state = BranchState(tuple(kept))
    if state.norm_squared() > 1.0 + NORM_EPS:
        raise ValueError("state norm exceeds 1")
    return state


def _photon_fields(photon_idx: int) -> tuple[str, str]:
    """Names of the polarization and path fields of photon 1 or 2."""
    if photon_idx == 1:
        return "pol1", "path1"
    if photon_idx == 2:
        return "pol2", "path2"
    raise ValueError(f"photon index must be 1 or 2, got {photon_idx!r}")


def _shift_probe_where(
    state: BranchState, field: str, value: Enum, shift_half_theta: int
) -> BranchState:
    """Advance the probe phase on every term whose field holds value."""
    out = [
        t._replace(probe_phase=t.probe_phase + shift_half_theta)
        if getattr(t, field) is value
        else t
        for t in state.terms
    ]
    return make_branch_state(out)


def cross_kerr_on_polarization(
    state: BranchState, photon_idx: int, pol: Polarization, shift_half_theta: int
) -> BranchState:
    """Advance the probe phase on every term whose photon has polarization pol."""
    pol_field, _ = _photon_fields(photon_idx)
    return _shift_probe_where(state, pol_field, pol, shift_half_theta)


def cross_kerr_on_path(
    state: BranchState, photon_idx: int, path: PathLabel, shift_half_theta: int
) -> BranchState:
    """Advance the probe phase on every term whose photon travels on path."""
    _, path_field = _photon_fields(photon_idx)
    return _shift_probe_where(state, path_field, path, shift_half_theta)


def probe_linear_shift(state: BranchState, shift_half_theta: int) -> BranchState:
    """Displace the probe phase uniformly on all terms."""
    out = [
        t._replace(probe_phase=t.probe_phase + shift_half_theta) for t in state.terms
    ]
    return make_branch_state(out)


def apply_bs(state: BranchState, photon_idx: int) -> BranchState:
    """Split an unsplit photon over its two paths with weight 1/sqrt(2) each."""
    _, path_field = _photon_fields(photon_idx)
    first, second = (
        (PathLabel.S11, PathLabel.S12) if photon_idx == 1 else (PathLabel.S21, PathLabel.S22)
    )
    out = []
    for term in state.terms:
        if getattr(term, path_field) is not PathLabel.UNSPLIT:
            raise ValueError("photon is already split")
        half = term._replace(exact=term.exact / 2)
        out.append(half._replace(**{path_field: first}))
        out.append(half._replace(**{path_field: second}))
    return make_branch_state(out)


def apply_hwp45(state: BranchState, photon_idx: int, path: PathLabel) -> BranchState:
    """Flip the photon's polarization on the given path (sigma-x there)."""
    pol_field, path_field = _photon_fields(photon_idx)
    out = []
    for term in state.terms:
        if getattr(term, path_field) is path:
            term = term._replace(**{pol_field: getattr(term, pol_field).flipped()})
        out.append(term)
    return make_branch_state(out)


def apply_path_coupler(state: BranchState, photon_idx: int) -> BranchState:
    """Erase the photon's path label; coinciding terms sum without rescaling."""
    _, path_field = _photon_fields(photon_idx)
    out = []
    for term in state.terms:
        if getattr(term, path_field) is not PathLabel.UNSPLIT:
            term = term._replace(**{path_field: PathLabel.UNSPLIT})
        out.append(term)
    return make_branch_state(out)


def apply_swap(state: BranchState) -> BranchState:
    """Exchange photon 2's path labels."""
    exchange = {PathLabel.S21: PathLabel.S22, PathLabel.S22: PathLabel.S21}
    out = []
    for term in state.terms:
        if term.path2 in exchange:
            term = term._replace(path2=exchange[term.path2])
        out.append(term)
    return make_branch_state(out)


def normalize_global_phase(state: BranchState) -> BranchState:
    """Make the leading canonical amplitude positive."""
    if not state.terms or state.terms[0].exact > 0:
        return state
    out = [t._replace(exact=-t.exact) for t in state.terms]
    return make_branch_state(out)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def round_sig12(x: float) -> float:
    """Round to 12 significant digits, the serialization contract."""
    return float(f"{x:.12g}")


def state_to_json_obj(state: BranchState, n: int, m: int) -> list:
    """Terms of a state of the fusion of W_n and W_m, as JSON objects."""
    count_a, count_b = n - 1, m - 1
    return [
        {
            "re": round_sig12(t.amplitude),
            "im": 0.0,
            "regA": {"kind": t.reg_a.value, "count": count_a},
            "regB": {"kind": t.reg_b.value, "count": count_b},
            "p1": {"pol": t.pol1.value, "path": t.path1.value},
            "p2": {"pol": t.pol2.value, "path": t.path2.value},
            "k": t.probe_phase,
        }
        for t in state.terms
    ]
