"""The quartz rods' group delays and the analyzers' degree-exact trig.

A rod delays its slow polarization against its fast one, which is gauged
to zero: common-mode delays are not observable in coincidence rates, only
delay differences are. An analyzer at angle t passes cos(t) of H and
sin(t) of V; ``cos_sin_deg`` gives that pair exactly at multiples of
45 deg. ``pathsum`` applies the half-wave plate and the beamsplitter
itself, and ``oracle`` reads the same rods and trig.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import ConfigurationError


class RodAxis(Enum):
    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"


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
