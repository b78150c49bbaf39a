"""Closed-form reference for the coincidence rate of the Gaussian model.

Because the double-Gaussian joint amplitude is analytically integrable, the
full rate integral evaluates in closed form; the grid engine must agree
with it to better than one part in a thousand everywhere (that gate lives
in ``verify``). The derivation, with the intermediate Gaussian integrals,
is written out in docs/closed_form.md. All formulas here were fixed before
the engine was tuned and act as the regression ground truth; recomputing
the path coefficients and delays from the configuration keeps this module
an independent route to the same numbers.

With per-port delay differences D_a, D_b between the two paths, the
normalized cross integral is

    G = P * exp(-(D_a + D_b)^2 / (8 (2 tau_p^2 + s)))
          * exp(-(D_a - D_b)^2 / (8 s)),          s = 1/(4 s1^2) + 1/(4 s2^2)

where P <= 1 is the exchange overlap of the amplitude (1 iff symmetric).
The sum coordinate is suppressed by the pump envelope (the short pulse
timestamps the pair), the difference coordinate by the photons' own
spectra; which one carries the displacement depends on the rod geometry.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .elements import cos_sin_deg, rod_delays
from .errors import ContractViolation
from .spectral import SpectralParams

if TYPE_CHECKING:
    from .presets import ExperimentConfig


def _coefficients(config: "ExperimentConfig") -> tuple[complex, complex]:
    """Path coefficients evaluated analytically from the configuration.

    rr carries two reflection factors i and two analyzer sine projections,
    tt two cosine projections and the source term's relative phase. The
    analyzer trig is degree-exact, so |c_rr| == |c_tt| bit for bit at
    45/45 deg and the ideal dip cancels to exactly 0.
    """
    cos_a, sin_a = cos_sin_deg(config.analyzer_port_a)
    cos_b, sin_b = cos_sin_deg(config.analyzer_port_b)
    w = 1.0 / math.sqrt(2.0)
    c_rr = complex(-w * sin_a * sin_b)
    c_tt = (
        w
        * cos_a
        * cos_b
        * complex(math.cos(config.pair_phase), math.sin(config.pair_phase))
    )
    return c_rr, c_tt


def _weight(c: complex) -> float:
    """|c|^2 as c conj(c), the product form the cross term uses too."""
    return (c * c.conjugate()).real


def _exchange_overlap(params: SpectralParams) -> float:
    """P = |<f | f_swapped>| for the normalized Gaussian amplitude."""
    a1 = 1.0 / (2.0 * params.sigma1**2)
    a2 = 1.0 / (2.0 * params.sigma2**2)
    tau2 = params.pump_coherence_time**2
    total = a1 + a2
    numerator = tau2 * total + a1 * a2
    denominator = tau2 * total + (total * total) / 4.0
    return math.sqrt(numerator / denominator)


def _cross_factors(config: "ExperimentConfig", delays) -> list[float]:
    """G of the module docstring, in [0, 1], at each trombone delay in
    ``delays``; the rod delays and the spectral constants are computed
    once for all of them."""
    rod1_h, rod1_v = rod_delays(config.qr1_axis, config.rod_length)
    rod2_h, rod2_v = rod_delays(config.qr2_axis, config.rod_length)
    params = config.spectral
    s = 1.0 / (4.0 * params.sigma1**2) + 1.0 / (4.0 * params.sigma2**2)
    tau2 = params.pump_coherence_time**2
    sum_scale = 8.0 * (2.0 * tau2 + s)
    diff_scale = 8.0 * s
    overlap = _exchange_overlap(params)
    factors = []
    for d in map(float, delays):
        # Per-port delay differences, rr minus tt. x * x saturates to inf
        # for huge delays, where ** 2 raises OverflowError; exp(-inf) is
        # then exactly 0.
        delta_a = (rod1_h + d) - rod2_h
        delta_b = rod2_v - (rod1_v + d)
        total, diff = delta_a + delta_b, delta_a - delta_b
        sum_term = total * total / sum_scale
        diff_term = diff * diff / diff_scale
        factors.append(overlap * math.exp(-sum_term) * math.exp(-diff_term))
    return factors


def _cross_weight(c_rr: complex, c_tt: complex) -> float:
    """2 Re(c_rr conj(c_tt)), the weight of G in the rate."""
    return 2.0 * (c_rr * c_tt.conjugate()).real


def oracle_rate(config: "ExperimentConfig", d):
    """Closed-form coincidence rate at trombone delay ``d``, a float; for a
    1-D sequence or array of delays, a float64 array of the rate at each.

    The path coefficients, rod delays and spectral constants are computed
    once per call; each delay then costs a few scalar operations and two
    calls to ``math.exp``, always in the same order, so each rate has the
    same bits whether the delay came alone or in an array.
    """
    scalar = np.ndim(d) == 0
    c_rr, c_tt = _coefficients(config)
    baseline = _weight(c_rr) + _weight(c_tt)
    weight = _cross_weight(c_rr, c_tt)
    factors = _cross_factors(config, (d,) if scalar else d)
    rates = [baseline + weight * overlap for overlap in factors]
    return rates[0] if scalar else np.array(rates, dtype=np.float64)


def extremal_delay(config: "ExperimentConfig") -> float:
    """Trombone delay maximizing the cross factor; zero for equal rods."""
    rod1_h, rod1_v = rod_delays(config.qr1_axis, config.rod_length)
    rod2_h, rod2_v = rod_delays(config.qr2_axis, config.rod_length)
    return ((rod2_h + rod2_v) - (rod1_h + rod1_v)) / 2.0


def oracle_visibility(config: "ExperimentConfig") -> float:
    """Closed-form visibility of the delay scan.

    2 |c_rr c_tt| G(d*) / (|c_rr|^2 + |c_tt|^2) at the extremal delay d*;
    for balanced coefficients this is G(d*) itself.
    """
    c_rr, c_tt = _coefficients(config)
    baseline = _weight(c_rr) + _weight(c_tt)
    if baseline == 0.0:
        raise ContractViolation("visibility undefined: both path coefficients vanish")
    (overlap,) = _cross_factors(config, (extremal_delay(config),))
    return 2.0 * abs(c_rr) * abs(c_tt) * overlap / baseline
