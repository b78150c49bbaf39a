"""Two-photon path enumeration and the coincidence amplitude on the grid.

A coincidence needs one photon at each beamsplitter output. With the
half-wave plate at 45 deg flipping every photon in arm 1 (H <-> V with
coefficient 1), each source term routes to
exactly one coincidence path: either both photons reflect (label ``rr``) or
both transmit (``tt``). The coincidence amplitude is indexed by output port,

    A(nu_a, nu_b) = sum_paths c_p * f_p(nu_a, nu_b)
                    * exp(i [nu_a * delay_a + nu_b * delay_b]),

where f_p is the joint spectral amplitude, transposed when the source
photon of arm 1 exits port B (``swapped``), and the delays are linear
phase coefficients on the detunings. Whether the two paths interfere is
entirely a question of how well their summands overlap on the grid.

This module enumerates the paths. Nothing in the package forms A as an
n x n array: the rates and the path overlaps come from the pair sums of
``scan``, and the arrival-time marginals from blocks of A that ``scan``
builds from the amplitude's 1-D factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .elements import cos_sin_deg, rod_delays
from .errors import ConfigurationError
from .spectral import _is_real

if TYPE_CHECKING:
    from .presets import ExperimentConfig


@dataclass(frozen=True)
class PathAmplitude:
    """One coincidence path: complex coefficient plus per-port delays (fs).

    ``swapped`` records that the photon from arm 1 exits port B, so the
    joint amplitude must be evaluated with transposed arguments.
    """

    label: str
    coefficient: complex
    delay_a: float
    delay_b: float
    swapped: bool


def _checked_delays(d) -> np.ndarray:
    """``d``, one trombone delay (fs) or a 1-D sequence of at least one, as
    a float64 array of its shape, once each delay is checked as config
    values are: a real number, numpy scalars included but not a bool, and
    finite."""
    if isinstance(d, np.ndarray) and d.dtype.kind in "iuf":
        delays = d.astype(float, copy=False)
    else:
        delays = np.asarray(d, dtype=object)
    if delays.ndim > 1:
        raise ConfigurationError(f"need one delay or a 1-D sequence, got shape {delays.shape}")
    if delays.size == 0:
        raise ConfigurationError("need at least one delay, got an empty sequence")
    if delays.dtype == object:
        for index, value in enumerate(delays.flat):
            if not _is_real(value):
                at = f" at index {index}" if delays.ndim else ""
                raise ConfigurationError(f"trombone delays must be real numbers, got {value!r}{at}")
        delays = delays.astype(float)
    if delays.ndim == 0:
        if not math.isfinite(delays):
            raise ConfigurationError(f"trombone delay must be finite, got {float(delays)}")
        return delays
    bad = ~np.isfinite(delays)
    if bad.any():
        index = int(np.argmax(bad))
        raise ConfigurationError(
            f"trombone delays must be finite, got {delays[index]:g} at index {index}; "
            f"{bad.sum()} of {bad.size} delays are not finite"
        )
    return delays


def _checked_delay(d) -> float:
    """``d`` as a float, once ``_checked_delays`` has checked it as one delay."""
    delay = _checked_delays(d)
    if delay.ndim:
        raise ConfigurationError(f"need one trombone delay, got shape {delay.shape}")
    return float(delay)


def enumerate_paths(config: "ExperimentConfig", d: float = 0.0) -> tuple[PathAmplitude, ...]:
    """The coincidence paths of a configuration at finite trombone delay d
    (fs): rr, then tt, each left out where an analyzer projection kills its
    coefficient outright. An empty result is a valid outcome, not an error.

    The source state is (|H>|V> + e^{i pair_phase} |V>|H>) / sqrt(2), the
    arm-1 photon first. Each photon takes the rod delay of its source
    polarization, and the arm-1 photon the trombone delay too; the
    half-wave plate then swaps its polarization. At the beamsplitter H
    transmits with a factor 1 and V reflects with a factor i. So the
    photons of the first term are both V and reflect, arm 1's to port A
    (rr); those of the second are both H and transmit, arm 1's to port B
    (tt, swapped). An analyzer at angle t passes cos t of H and sin t of V.
    """
    d = _checked_delay(d)
    rod1_h, rod1_v = rod_delays(config.qr1_axis, config.rod_length)
    rod2_h, rod2_v = rod_delays(config.qr2_axis, config.rod_length)
    cos_a, sin_a = cos_sin_deg(config.analyzer_port_a)
    cos_b, sin_b = cos_sin_deg(config.analyzer_port_b)
    w = 1.0 / math.sqrt(2.0)
    rr = complex(w) * 1j * 1j * sin_a * sin_b
    tt = w * complex(np.exp(1j * config.pair_phase)) * cos_a * cos_b
    paths = (
        PathAmplitude("rr", rr, rod1_h + d, rod2_v, swapped=False),
        PathAmplitude("tt", tt, rod2_h, rod1_v + d, swapped=True),
    )
    return tuple(p for p in paths if p.coefficient != 0)
