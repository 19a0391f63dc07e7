"""Tests for the quadrature readout model.

The error-probability formula is cross-checked against direct numerical
integration of the two Gaussian densities.
"""

from __future__ import annotations

import math

import pytest
from scipy import integrate

from wfuse.homodyne import ProbeConfig, class_mean, discrimination_report, p_error

OPERATING_POINT = ProbeConfig(90000.0, 0.01)
C0, C1, C2, C3 = 0, 1, 2, 3


def overlap_error(probe, class_a, class_b) -> float:
    """Independent oracle: integrate the two unit-variance densities."""
    mu_lo, mu_hi = sorted([class_mean(probe, class_a), class_mean(probe, class_b)])
    threshold = 0.5 * (mu_lo + mu_hi)

    def density(x, mu):
        return math.exp(-0.5 * (x - mu) ** 2) / math.sqrt(2.0 * math.pi)

    upper, _ = integrate.quad(
        density, threshold, mu_lo + 60.0, args=(mu_lo,), epsabs=1e-18, epsrel=1e-12
    )
    lower, _ = integrate.quad(
        density, mu_hi - 60.0, threshold, args=(mu_hi,), epsabs=1e-18, epsrel=1e-12
    )
    return 0.5 * (upper + lower)


# ---------------------------------------------------------------------------
# means and the operating point
# ---------------------------------------------------------------------------


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(-1.0, 0.01)
    with pytest.raises(ValueError):
        ProbeConfig(float("inf"), 0.01)
    with pytest.raises(ValueError):
        ProbeConfig(100.0, 1.0)
    ProbeConfig(90000.0, 0.01)


def test_class_means_decrease_with_phase():
    means = [class_mean(OPERATING_POINT, c) for c in (C0, C1, C2, C3)]
    assert means[0] == pytest.approx(2 * 90000.0)
    assert all(a > b for a, b in zip(means, means[1:]))


def test_operating_point_error_matches_quoted_value():
    pe = p_error(OPERATING_POINT, C0, C2)
    assert abs(pe - 3.4e-6) / 3.4e-6 < 0.15


def test_error_formula_agrees_with_overlap_integral():
    # moderate separations where quadrature is easy, then the operating point
    for alpha, theta, a, b in [
        (300.0, 0.05, C0, C2),
        (500.0, 0.04, C1, C3),
        (2000.0, 0.02, C0, C2),
        (90000.0, 0.01, C0, C2),
    ]:
        probe = ProbeConfig(alpha, theta)
        closed = p_error(probe, a, b)
        numeric = overlap_error(probe, a, b)
        assert closed == pytest.approx(numeric, rel=1e-6)


def test_error_decreases_when_alpha_grows():
    values = [
        p_error(ProbeConfig(alpha, 0.01), C0, C2)
        for alpha in (30000.0, 60000.0, 90000.0, 120000.0, 240000.0)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_error_approaches_half_as_separation_vanishes():
    values = [
        p_error(ProbeConfig(1.0, theta), C0, C2)
        for theta in (0.3, 0.1, 0.01, 1e-4)
    ]
    assert all(v < 0.5 for v in values)
    assert values[-1] == pytest.approx(0.5, abs=1e-6)


def test_identical_classes_rejected():
    with pytest.raises(ValueError):
        p_error(OPERATING_POINT, C1, C1)


def test_pair_separations_rank_the_protocol_tasks():
    # the path-gate pair (0 vs 2) is closer than the polarization-gate pair
    sep = lambda a, b: abs(
        class_mean(OPERATING_POINT, a) - class_mean(OPERATING_POINT, b)
    )
    assert sep(C0, C2) < sep(C1, C3)
    assert p_error(OPERATING_POINT, C0, C2) > p_error(OPERATING_POINT, C1, C3)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_shape_and_threshold():
    doc = discrimination_report(OPERATING_POINT)
    assert set(doc) == {"alpha", "theta", "means", "threshold", "pError"}
    assert set(doc["means"]) == {"0", "1", "2", "3"}
    mu0, mu2 = doc["means"]["0"], doc["means"]["2"]
    assert mu2 < doc["threshold"] < mu0
    assert doc["pError"] == pytest.approx(3.3982725636489228e-06, rel=1e-9)
