"""Path enumeration, the dense reference's amplitude assembly and path overlap."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from biphoton import (
    ConfigurationError,
    ContractViolation,
    PathAmplitude,
    RodAxis,
    build_jsa,
    coincidence_rate,
    enumerate_paths,
    path_overlap,
    preset,
    rod_delays,
)
from biphoton.scan import RateKernel
from dense_reference import amplitude_rate, assemble_amplitude, dense_overlap

HALF_OVER_ROOT2 = 1.0 / (2.0 * math.sqrt(2.0))


class TestEnumeratePaths:
    def test_two_equal_weight_terms(self, fig3a_dip):
        # Analyzers along V pass only the rr term, along H only the tt term,
        # each with the full weight of its source term.
        (rr,) = enumerate_paths(replace(fig3a_dip, analyzer1=90.0, analyzer2=90.0))
        (tt,) = enumerate_paths(replace(fig3a_dip, analyzer1=0.0, analyzer2=0.0))
        assert (rr.label, tt.label) == ("rr", "tt")
        assert abs(rr.coefficient) ** 2 == pytest.approx(0.5, rel=1e-15)
        assert abs(tt.coefficient) ** 2 + abs(rr.coefficient) ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_each_term_pairs_orthogonal_polarizations(self):
        # rr comes from |H>|V>: the rod delays of H in arm 1 and V in arm 2;
        # tt from |V>|H>: those of V in arm 1 and H in arm 2.
        config = replace(preset("fig4c"), rod_length=10.0)
        rr, tt = enumerate_paths(config, 1.0)
        assert (rr.delay_a, rr.delay_b) == (1.0, 0.0)
        assert (tt.delay_a, tt.delay_b) == (315.0, 315.0 + 1.0)

    def test_relative_phase_enters_second_term(self, fig3a_dip):
        rr, tt = enumerate_paths(replace(fig3a_dip, pair_phase=math.pi / 2))
        assert rr.coefficient.imag == 0.0
        assert tt.coefficient.imag == pytest.approx(HALF_OVER_ROOT2, rel=1e-12)
        assert tt.coefficient.real == pytest.approx(0.0, abs=1e-15)

    def test_rr_is_unswapped_and_tt_swapped_for_every_rod_and_analyzer(self, fig3a_dip):
        # The half-wave plate sends both photons of a source term to the
        # same polarization, so they always leave by different ports: no
        # term is lost at the beamsplitter and none takes a mixed path.
        angles = (0.0, 45.0, 90.0, -45.0)
        for axis1, axis2, angle1, angle2 in itertools.product(RodAxis, RodAxis, angles, angles):
            config = replace(fig3a_dip, qr1_axis=axis1, qr2_axis=axis2,
                             analyzer1=angle1, analyzer2=angle2)
            rod1_h, rod1_v = rod_delays(axis1, config.rod_length)
            rod2_h, rod2_v = rod_delays(axis2, config.rod_length)
            expected = []
            if angle1 != 0.0 and angle2 != 0.0:
                expected.append(("rr", rod1_h + 50.0, rod2_v, False))
            if angle1 != 90.0 and angle2 != 90.0:
                expected.append(("tt", rod2_h, rod1_v + 50.0, True))
            paths = enumerate_paths(config, 50.0)
            assert [(p.label, p.delay_a, p.delay_b, p.swapped) for p in paths] == expected

    def test_fig3a_dip_structure(self, fig3a_dip):
        rr, tt = enumerate_paths(fig3a_dip)
        assert (rr.label, tt.label) == ("rr", "tt")
        assert rr.coefficient.real == pytest.approx(-HALF_OVER_ROOT2, rel=1e-12)
        assert tt.coefficient.real == pytest.approx(+HALF_OVER_ROOT2, rel=1e-12)
        assert rr.coefficient.imag == pytest.approx(0.0, abs=1e-15)
        assert (rr.delay_a, rr.delay_b, rr.swapped) == (0.0, 630.0, False)
        assert (tt.delay_a, tt.delay_b, tt.swapped) == (0.0, 630.0, True)

    def test_trombone_delay_enters_arm_one(self, fig3a_dip):
        rr, tt = enumerate_paths(fig3a_dip, 100.0)
        assert (rr.delay_a, rr.delay_b) == (100.0, 630.0)
        assert (tt.delay_a, tt.delay_b) == (0.0, 730.0)

    def test_peak_setting_flips_rr_sign(self):
        rr, tt = enumerate_paths(preset("fig3a_peak"))
        assert rr.coefficient.real == pytest.approx(+HALF_OVER_ROOT2, rel=1e-12)
        assert tt.coefficient.real == pytest.approx(+HALF_OVER_ROOT2, rel=1e-12)

    def test_pair_phase_rotates_tt(self, fig3a_dip):
        _, tt = enumerate_paths(replace(fig3a_dip, pair_phase=math.pi))
        assert tt.coefficient.real == pytest.approx(-HALF_OVER_ROOT2, rel=1e-12)

    def test_zero_projection_drops_path(self, fig3a_dip):
        paths = enumerate_paths(replace(fig3a_dip, analyzer1=0.0, analyzer2=0.0))
        assert len(paths) == 1
        assert paths[0].label == "tt"
        assert abs(paths[0].coefficient) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("angle", [90.0, 270.0, -90.0])
    def test_crossed_analyzers_drop_path_outright(self, fig3a_dip, angle):
        paths = enumerate_paths(replace(fig3a_dip, analyzer1=angle, analyzer2=angle))
        assert [p.label for p in paths] == ["rr"]

    def test_dip_coefficients_cancel_bitwise(self, fig3a_dip):
        rr, tt = enumerate_paths(fig3a_dip)
        assert rr.coefficient == -tt.coefficient

    def test_firing_order_encoding(self):
        # Vertical rods: the port-B photon lags by the rod delay on both
        # paths; horizontal rods reverse the lag.
        for rr, tt in [enumerate_paths(preset("fig3a_dip"))]:
            assert rr.delay_b - rr.delay_a == 630.0
            assert tt.delay_b - tt.delay_a == 630.0
        for rr, tt in [enumerate_paths(preset("fig3b_dip"))]:
            assert rr.delay_a - rr.delay_b == 630.0
            assert tt.delay_a - tt.delay_b == 630.0

    def test_fig4c_delay_structure(self):
        # Matched arm delays per path, but the tt pair is emitted one rod
        # delay later than the rr pair.
        rr, tt = enumerate_paths(preset("fig4c"))
        assert (rr.delay_a, rr.delay_b) == (0.0, 0.0)
        assert (tt.delay_a, tt.delay_b) == (630.0, 630.0)


class TestAssemble:
    def test_single_path_rate(self, fig3a_dip, default_jsa):
        paths = enumerate_paths(replace(fig3a_dip, analyzer1=0.0, analyzer2=0.0))
        amp = assemble_amplitude(paths, default_jsa)
        assert amplitude_rate(amp) == pytest.approx(abs(paths[0].coefficient) ** 2, rel=1e-9)

    def test_two_identical_paths_quadruple_the_rate(self, default_jsa):
        path = PathAmplitude("tt", 0.3 + 0.0j, 12.0, 340.0, False)
        single = amplitude_rate(assemble_amplitude([path], default_jsa))
        double = amplitude_rate(assemble_amplitude([path, path], default_jsa))
        assert double == pytest.approx(4.0 * single, rel=1e-12)

    def test_ideal_dip_cancels(self, fig3a_dip, default_jsa):
        amp = assemble_amplitude(enumerate_paths(fig3a_dip), default_jsa)
        baseline = 0.25
        assert amplitude_rate(amp) < 1e-6 * baseline


class TestPathOverlap:
    def test_symmetric_pair_fully_overlaps(self, fig3a_dip, default_jsa):
        overlap = path_overlap(enumerate_paths(fig3a_dip), default_jsa)
        assert abs(overlap) == pytest.approx(1.0, abs=1e-9)

    # fig4c's pair has rod delay differences and one swapped path, here with
    # a complex coefficient; the skewed pair's delays make the overlap complex.
    PAIRS = {
        "fig3a_dip": enumerate_paths(preset("fig3a_dip")),
        "fig4c": enumerate_paths(replace(preset("fig4c"), pair_phase=1.0)),
        "skewed": (
            PathAmplitude("rr", 0.5 + 0.0j, 0.0, 630.0, False),
            PathAmplitude("tt", 0.5j, 100.0, 250.0, True),
        ),
    }

    @pytest.mark.parametrize("paths", PAIRS.values(), ids=PAIRS)
    def test_agrees_with_the_dense_reference(self, paths, reference_jsa):
        expected = dense_overlap(paths, reference_jsa)
        assert abs(path_overlap(paths, reference_jsa) - expected) <= 1e-12

    def test_pump_clock_suppresses_overlap(self):
        config = preset("fig4c")
        overlap = path_overlap(enumerate_paths(config), build_jsa(config.spectral))
        assert abs(overlap) < 0.02

    @pytest.mark.parametrize("rod_length, reach", [(430.0, "13545"), (860.0, "27090")])
    def test_paths_that_alias_on_the_amplitude_grid_are_refused(self, rod_length, reach):
        # The closed form reads no overlap; on the default grid, whose alias
        # period is 13548.1 fs, the images of the pair sums would read
        # |overlap| = 0.99986 and 0.99945, as a rate on that kernel would.
        config = replace(preset("fig4c"), rod_length=rod_length)
        jsa = build_jsa(config.spectral)
        assert jsa.grid.n == 256
        message = f"differences of {reach} fs.*every 13548.1 fs"
        with pytest.raises(ConfigurationError, match=message):
            path_overlap(enumerate_paths(config), jsa)
        with pytest.raises(ConfigurationError, match="alias"):
            coincidence_rate(config, 0.0, RateKernel(jsa))

    def test_identical_paths_overlap_exactly_one(self, default_jsa):
        path = PathAmplitude("rr", -0.2 + 0.0j, 0.0, 630.0, False)
        assert path_overlap([path, path], default_jsa) == complex(1.0)

    def test_zero_norm_path_rejected(self, default_jsa):
        good = PathAmplitude("rr", 0.5 + 0.0j, 0.0, 0.0, False)
        null = PathAmplitude("tt", 0.0 + 0.0j, 0.0, 0.0, True)
        with pytest.raises(ContractViolation):
            path_overlap([good, null], default_jsa)

    def test_needs_exactly_two_paths(self, default_jsa):
        path = PathAmplitude("rr", 0.5 + 0.0j, 0.0, 0.0, False)
        with pytest.raises(ContractViolation):
            path_overlap([path], default_jsa)
