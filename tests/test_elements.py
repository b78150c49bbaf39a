"""Element actions: rod delays, beamsplitter, analyzers."""

import math

import numpy as np
import pytest

from biphoton import (
    ConfigurationError,
    Polarization,
    Port,
    RodAxis,
    analyzer_projection,
    pbs_action,
    quartz_group_delay,
    rod_delays,
)

H = Polarization.H
V = Polarization.V


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
    def test_reflection_phase(self):
        assert pbs_action(1, V) == (Port.A, 1j)
        assert pbs_action(2, V) == (Port.B, 1j)

    def test_transmission(self):
        assert pbs_action(1, H) == (Port.B, 1.0 + 0.0j)
        assert pbs_action(2, H) == (Port.A, 1.0 + 0.0j)

    @pytest.mark.parametrize("arm", [1, 2])
    @pytest.mark.parametrize("pol", [H, V])
    def test_unitary_per_input(self, arm, pol):
        _, coeff = pbs_action(arm, pol)
        assert abs(coeff) ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_invalid_arm(self):
        with pytest.raises(ConfigurationError):
            pbs_action(3, H)


class TestAnalyzer:
    def test_diagonal_projections(self):
        assert analyzer_projection(V, 45.0) == pytest.approx(1.0 / math.sqrt(2.0))
        assert analyzer_projection(V, -45.0) == pytest.approx(-1.0 / math.sqrt(2.0))
        assert analyzer_projection(H, 0.0) == 1.0

    def test_exact_at_multiples_of_45(self):
        assert analyzer_projection(H, 90.0) == 0.0
        assert analyzer_projection(V, 180.0) == 0.0
        assert analyzer_projection(H, 45.0) == analyzer_projection(V, 45.0)
        assert analyzer_projection(H, -45.0) == -analyzer_projection(V, -45.0)
        assert analyzer_projection(V, 270.0) == -1.0
        assert analyzer_projection(V, 405.0) == analyzer_projection(V, -315.0)

    @pytest.mark.parametrize("theta", np.linspace(-90.0, 90.0, 13))
    @pytest.mark.parametrize("pol", [H, V])
    def test_completeness(self, pol, theta):
        p0 = analyzer_projection(pol, theta)
        p90 = analyzer_projection(pol, theta + 90.0)
        assert p0**2 + p90**2 == pytest.approx(1.0, abs=1e-12)
