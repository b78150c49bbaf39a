"""Optical elements as actions on one photon's polarization and timing.

Polarization is the {H, V} basis; each element either adds a
polarization-dependent group delay (quartz rod, trombone) or routes or
projects the basis states (polarizing beamsplitter, analyzer). The
half-wave plate of arm 1 sits at 45 deg, where it swaps H and V with
coefficient 1; ``pathsum`` applies that swap directly. Common-mode delays
are gauged to zero throughout, only delay differences are observable in
coincidence rates.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import ConfigurationError


class Polarization(Enum):
    H = "H"
    V = "V"


class RodAxis(Enum):
    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"


class Port(Enum):
    """Output ports of the polarizing beamsplitter."""

    A = "A"
    B = "B"


# Calibration of the birefringent group delay: a 20 mm rod delays the slow
# polarization by 630 fs, i.e. 31.5 fs per mm (both constants exact floats,
# so the reference length reproduces the reference delay bit for bit).
QUARTZ_REFERENCE_LENGTH_MM = 20.0
QUARTZ_REFERENCE_DELAY_FS = 630.0
_DELAY_PER_MM = QUARTZ_REFERENCE_DELAY_FS / QUARTZ_REFERENCE_LENGTH_MM


def quartz_group_delay(length: float) -> float:
    """Relative group delay (fs) between slow and fast polarization of a
    rod ``length`` mm long."""
    if length <= 0:
        raise ConfigurationError(f"group delay needs a positive rod length, got {length} mm")
    delay = length * _DELAY_PER_MM
    # Past about 5.7e306 mm the product overflows, and an infinite delay
    # would turn every delay difference into nan.
    if not math.isfinite(delay):
        raise ConfigurationError(f"the group delay of a {length:g} mm rod is not finite")
    return delay


def rod_delays(axis: RodAxis, length: float) -> tuple[float, float]:
    """(delay_H, delay_V) in fs of a birefringent rod ``length`` mm long,
    with the fast polarization gauged to zero.

    axis VERTICAL means H is the fast polarization (V is delayed), axis
    HORIZONTAL the reverse. length 0 stands for a removed rod.
    """
    delay = quartz_group_delay(length) if length != 0 else 0.0
    if axis is RodAxis.VERTICAL:
        return (0.0, delay)
    if axis is RodAxis.HORIZONTAL:
        return (delay, 0.0)
    raise ConfigurationError(f"rod axis must be a RodAxis, got {axis!r}")


def pbs_action(input_arm: int, pol: Polarization) -> tuple[Port, complex]:
    """Polarizing beamsplitter: H transmits (coefficient 1), V reflects with
    an i phase shift. Arm 1 transmits to port B, arm 2 to port A."""
    if input_arm not in (1, 2):
        raise ConfigurationError(f"input_arm must be 1 or 2, got {input_arm}")
    if pol is Polarization.H:
        port = Port.B if input_arm == 1 else Port.A
        return (port, 1.0 + 0.0j)
    port = Port.A if input_arm == 1 else Port.B
    return (port, 1j)


# cos(k * 45 deg) for k = 0..7, each the float nearest the true value.
_SQRT_HALF = math.sqrt(0.5)
_COS_OCTANT = (1.0, _SQRT_HALF, 0.0, -_SQRT_HALF, -1.0, -_SQRT_HALF, 0.0, _SQRT_HALF)


def cos_sin_deg(theta_deg: float) -> tuple[float, float]:
    """(cos, sin) of an angle in degrees, exact at multiples of 45 deg.

    There the values come from a table (0, +-1, +-sqrt(1/2)), so that
    cos 45 == sin 45 and cos 90 == 0 hold bit for bit; elsewhere they are
    math.cos/math.sin of the angle reduced modulo 360 deg, in radians.
    """
    reduced = math.fmod(theta_deg, 360.0)
    octant, rest = divmod(reduced, 45.0)
    if rest == 0.0:
        k = int(octant) % 8
        return _COS_OCTANT[k], _COS_OCTANT[(k - 2) % 8]
    t = math.radians(reduced)
    return math.cos(t), math.sin(t)


def analyzer_projection(pol: Polarization, theta_deg: float) -> float:
    """Projection of H or V onto the analyzer axis cos(t) H + sin(t) V.

    Any finite angle is accepted; a polarizer is periodic in 180 deg. The
    projection is exact at multiples of 45 deg (see ``cos_sin_deg``): H and
    V project equally at 45 deg, and a crossed analyzer gives exactly 0.
    """
    cos_t, sin_t = cos_sin_deg(theta_deg)
    return cos_t if pol is Polarization.H else sin_t
