"""Element actions: rod delays, beamsplitter, analyzers."""

import math
from dataclasses import replace
from enum import Enum

import numpy as np
import pytest

from biphoton import (
    ConfigurationError,
    RodAxis,
    enumerate_paths,
    preset,
    quartz_group_delay,
    rod_delays,
)
from biphoton.elements import cos_sin_deg


class Polarization(Enum):
    """The index of a polarization's analyzer projection in ``cos_sin_deg``:
    an analyzer at angle t passes cos t of H and sin t of V."""

    H = 0
    V = 1


class TestQuartzDelay:
    def test_reference_length_is_exact(self):
        assert quartz_group_delay(20.0) == 630.0

    def test_linearity(self):
        assert quartz_group_delay(10.0) == 315.0

    def test_zero_length_errors(self):
        with pytest.raises(ConfigurationError):
            quartz_group_delay(0.0)

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError, match="positive rod length"):
            quartz_group_delay(-5.0)
        for axis in RodAxis:
            with pytest.raises(ConfigurationError, match="positive rod length"):
                rod_delays(axis, -5.0)

    @pytest.mark.parametrize("axis", list(RodAxis))
    def test_overflowing_delay_is_refused(self, axis):
        # 1e308 mm times 31.5 fs/mm is inf; inf - inf would make the delay
        # differences nan and every rate of a scan nan.
        with pytest.raises(ConfigurationError, match="not finite"):
            rod_delays(axis, 1e308)


class TestRodDelays:
    def test_vertical_axis_delays_v(self):
        assert rod_delays(RodAxis.VERTICAL, 20.0) == (0.0, 630.0)

    def test_horizontal_axis_delays_h(self):
        assert rod_delays(RodAxis.HORIZONTAL, 20.0) == (630.0, 0.0)

    def test_axis_flip_swaps_tuple(self):
        dv = rod_delays(RodAxis.VERTICAL, 12.0)
        dh = rod_delays(RodAxis.HORIZONTAL, 12.0)
        assert dv == dh[::-1]

    def test_removed_rod(self):
        assert rod_delays(RodAxis.VERTICAL, 0.0) == (0.0, 0.0)

    @pytest.mark.parametrize("axis", ["vertical", "horizontal", None])
    @pytest.mark.parametrize("length", [0.0, 20.0])
    def test_axis_outside_the_enum_rejected(self, axis, length):
        # "vertical" used to read as horizontal: only RodAxis.VERTICAL was named.
        with pytest.raises(ConfigurationError, match="RodAxis"):
            rod_delays(axis, length)


class TestPolarizingBeamsplitter:
    # The beamsplitter acts inside enumerate_paths: analyzers along V pass
    # only the term whose photons both reflect, along H only the one whose
    # photons both transmit, so each coefficient shows the two factors bare.
    def test_reflection_phase(self):
        # V reflects with i: rr carries i * i, and arm 1's photon goes to A.
        config = replace(preset("fig3a_dip"), analyzer1=90.0, analyzer2=90.0)
        (rr,) = enumerate_paths(config)
        assert (rr.label, rr.swapped) == ("rr", False)
        assert rr.coefficient == complex(-1.0 / math.sqrt(2.0))

    def test_transmission(self):
        # H transmits with 1: tt carries 1 * 1, and arm 1's photon goes to B.
        config = replace(preset("fig3a_dip"), analyzer1=0.0, analyzer2=0.0, pair_phase=0.0)
        (tt,) = enumerate_paths(config)
        assert (tt.label, tt.swapped) == ("tt", True)
        assert tt.coefficient == complex(1.0 / math.sqrt(2.0))


class TestAnalyzer:
    def test_diagonal_projections(self):
        assert cos_sin_deg(45.0)[1] == pytest.approx(1.0 / math.sqrt(2.0))
        assert cos_sin_deg(-45.0)[1] == pytest.approx(-1.0 / math.sqrt(2.0))
        assert cos_sin_deg(0.0)[0] == 1.0

    def test_exact_at_multiples_of_45(self):
        assert cos_sin_deg(90.0)[0] == 0.0
        assert cos_sin_deg(180.0)[1] == 0.0
        cos_45, sin_45 = cos_sin_deg(45.0)
        assert cos_45 == sin_45
        cos_m45, sin_m45 = cos_sin_deg(-45.0)
        assert cos_m45 == -sin_m45
        assert cos_sin_deg(270.0)[1] == -1.0
        assert cos_sin_deg(405.0)[1] == cos_sin_deg(-315.0)[1]

    @pytest.mark.parametrize("theta", np.linspace(-90.0, 90.0, 13))
    @pytest.mark.parametrize("pol", list(Polarization))
    def test_completeness(self, pol, theta):
        p0 = cos_sin_deg(theta)[pol.value]
        p90 = cos_sin_deg(theta + 90.0)[pol.value]
        assert p0**2 + p90**2 == pytest.approx(1.0, abs=1e-12)
