"""Gaussian model of the probe's X-quadrature readout.

Convention: a coherent probe of amplitude alpha carrying phase phi shows a
quadrature mean of 2*alpha*cos(phi) with unit-variance Gaussian noise.
Phase classes map to means through phi = |k|*theta/2; discrimination uses a
midpoint threshold between the two class means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .optics import round_sig12

_SQRT2 = math.sqrt(2.0)

# phase classes |k| the protocol can ask the readout to separate
PROTOCOL_CLASSES = (0, 1, 2, 3)
# the most closely spaced pair that one readout must actually separate,
# which sets the operating-point error
BINDING_CLASSES = (0, 2)


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


def class_mean(probe: ProbeConfig, phase_class: int) -> float:
    """Quadrature mean of the probe in phase class |k|."""
    return 2.0 * probe.alpha * math.cos(phase_class * probe.theta / 2.0)


def p_error(probe: ProbeConfig, class_a: int, class_b: int) -> float:
    """Misclassification probability of the midpoint-threshold discriminator."""
    if class_a == class_b:
        raise ValueError("phase classes must be distinct")
    separation = abs(class_mean(probe, class_a) - class_mean(probe, class_b))
    return 0.5 * math.erfc(separation / (2.0 * _SQRT2))


def discrimination_report(probe: ProbeConfig) -> dict:
    """Report the binding discrimination task of the pipeline as a JSON
    object, every float rounded to 12 significant digits."""
    class_a, class_b = BINDING_CLASSES
    mu_a = class_mean(probe, class_a)
    mu_b = class_mean(probe, class_b)
    threshold = 0.5 * (mu_a + mu_b)
    if not min(mu_a, mu_b) < threshold < max(mu_a, mu_b):
        raise ValueError("threshold must separate the class means")
    return {
        "alpha": round_sig12(probe.alpha),
        "theta": round_sig12(probe.theta),
        "means": {
            str(pc): round_sig12(class_mean(probe, pc)) for pc in PROTOCOL_CLASSES
        },
        "threshold": round_sig12(threshold),
        "pError": round_sig12(p_error(probe, class_a, class_b)),
    }
