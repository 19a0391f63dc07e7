"""Term-algebra constructions that only the tests use.

The input of the fusion is written here term by term, so a reference that
runs the gates on it shares no weighing code with ``run_fusion``.
"""

from __future__ import annotations

from fractions import Fraction

from wfuse.optics import (
    BranchState,
    FusionTerm,
    PathLabel,
    Polarization,
    RegisterKind,
    make_branch_state,
)


def build_input_state(n: int, m: int) -> BranchState:
    """Tensor product of W_n and W_m, written in kept-register form.

    Peeling the last photon off each W state gives four components.  A
    party's traveling photon is horizontal when its kept register is a W
    state of n-1 (or m-1) photons, else vertical, the register then being
    all horizontal.  The state records no size: each component's signed
    square is the number of basis states it stands for over nm.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if m < 2:
        raise ValueError("m must be >= 2")
    w, h = RegisterKind.W_STATE, RegisterKind.ALL_HORIZONTAL
    pol = {w: Polarization.H, h: Polarization.V}
    count_a, count_b = {w: n - 1, h: 1}, {w: m - 1, h: 1}
    unsplit = PathLabel.UNSPLIT
    return make_branch_state(
        FusionTerm(
            a, b, pol[a], unsplit, pol[b], unsplit, 0,
            Fraction(count_a[a] * count_b[b], n * m),
        )
        for a in (h, w)
        for b in (h, w)
    )
