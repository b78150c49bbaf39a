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

from .elements import (
    Polarization,
    Port,
    QuartzRod,
    analyzer_projection,
    pbs_action,
    rod_delays,
)
from .errors import ConfigurationError

if TYPE_CHECKING:
    from .presets import ExperimentConfig


@dataclass(frozen=True)
class PairTerm:
    """One term of the source superposition: the polarization of the
    photon in each arm and the term's amplitude."""

    pol1: Polarization
    pol2: Polarization
    amplitude: complex


@dataclass(frozen=True)
class PairState:
    """Polarization-entangled source state with a relative phase.

    The two equally weighted terms are |H>|V> and |V>|H>: the ordinary
    photon is horizontally and the extraordinary one vertically polarized,
    and the second term carries the relative phase.
    """

    relative_phase: float = 0.0

    @property
    def terms(self) -> tuple[PairTerm, PairTerm]:
        w = 1.0 / math.sqrt(2.0)
        return (
            PairTerm(Polarization.H, Polarization.V, complex(w)),
            PairTerm(Polarization.V, Polarization.H, w * complex(np.exp(1j * self.relative_phase))),
        )


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


def enumerate_paths(config: "ExperimentConfig", d: float = 0.0) -> tuple[PathAmplitude, ...]:
    """The coincidence paths of a configuration at finite trombone delay d
    (fs), in fixed source-term order.

    Terms whose photons leave through the same port produce no coincidence
    and are skipped; so are paths whose analyzer projections kill the
    coefficient outright. An empty result is a valid outcome, not an error.
    """
    if not math.isfinite(d):
        raise ConfigurationError(f"trombone delay must be finite, got {d}")
    rod1_h, rod1_v = rod_delays(QuartzRod(config.qr1_axis, config.rod_length))
    rod2_h, rod2_v = rod_delays(QuartzRod(config.qr2_axis, config.rod_length))

    paths = []
    for term in PairState(config.pair_phase).terms:
        # Arm 1: rod delay by the source polarization, trombone, then the
        # half-wave plate, which swaps H and V with coefficient 1.
        delay1 = (rod1_h if term.pol1 is Polarization.H else rod1_v) + d
        pol1_out = Polarization.V if term.pol1 is Polarization.H else Polarization.H
        port1, pbs1 = pbs_action(1, pol1_out)

        # Arm 2: rod only.
        delay2 = rod2_h if term.pol2 is Polarization.H else rod2_v
        port2, pbs2 = pbs_action(2, term.pol2)

        if port1 == port2:
            continue

        reflections = (pol1_out is Polarization.V) + (term.pol2 is Polarization.V)
        label = {2: "rr", 0: "tt"}.get(reflections, "rt")

        if port1 is Port.A:
            pol_a, pol_b = pol1_out, term.pol2
            delay_a, delay_b = delay1, delay2
            swapped = False
        else:
            pol_a, pol_b = term.pol2, pol1_out
            delay_a, delay_b = delay2, delay1
            swapped = True

        coefficient = (
            term.amplitude
            * pbs1
            * pbs2
            * analyzer_projection(pol_a, config.analyzer_port_a)
            * analyzer_projection(pol_b, config.analyzer_port_b)
        )
        if coefficient == 0:
            continue
        paths.append(
            PathAmplitude(
                label=label,
                coefficient=coefficient,
                delay_a=delay_a,
                delay_b=delay_b,
                swapped=swapped,
            )
        )
    return tuple(paths)

