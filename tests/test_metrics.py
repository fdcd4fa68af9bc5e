import math

import numpy as np
import pytest

from fbarcirc.htm import HarmonicBasis, SParamGrid, sparams
from fbarcirc.metrics import (SIDEBAND_FLOOR_DBC, CirculatorMetrics, Direction,
                              FrequencyOffGrid, bandwidth_at, metrics_at, metrics_table,
                              operating_point, sideband_scan, summarize)
from fbarcirc.netlist import CirculatorDesign, PhaseSequence, Topology, build_circulator

from conftest import GHZ_SPECS


def make_grid(freqs, s31, s21=0.5, s11=0.1, n_harm=1, sidebands=None):
    """Synthetic 3-port grid with prescribed |S| entries in column 1."""
    freqs = np.asarray(freqs, dtype=float)
    data = np.zeros((freqs.size, 2 * n_harm + 1, 3, 3), dtype=complex)
    data[:, n_harm, 0, 0] = s11
    data[:, n_harm, 1, 0] = s21
    data[:, n_harm, 2, 0] = np.asarray(s31, dtype=complex)
    if sidebands:
        for (n, q), value in sidebands.items():
            data[:, n + n_harm, q - 1, 0] = value
    return SParamGrid(frequencies=freqs, n_harm=n_harm, z0=np.full(3, 50.0), data=data)


class TestMetricsAt:
    def test_definition(self):
        grid = make_grid([1e9, 2e9], s31=1e-3)
        ix, il, rl = metrics_at(grid, 1e9)
        assert ix == pytest.approx(60.0, abs=1e-12)
        assert il == pytest.approx(-20.0 * math.log10(0.5), rel=1e-12)
        assert rl == pytest.approx(20.0, rel=1e-12)

    def test_zero_maps_to_cap(self):
        grid = make_grid([1e9, 2e9], s31=0.0)
        ix, _, _ = metrics_at(grid, 2e9)
        assert ix == 200.0

    def test_off_grid_rejected(self):
        grid = make_grid([1e9, 2e9], s31=0.1)
        with pytest.raises(FrequencyOffGrid):
            metrics_at(grid, 2.9e9)  # beyond half a grid step past the edge
        # within half a step is fine (nearest-point lookup)
        assert metrics_at(grid, 1.2e9) == metrics_at(grid, 1e9)

    def test_non_uniform_grid_uses_step_on_the_side_of_f(self):
        # sweep.include leaves a 0.1 MHz step right of 2.70 GHz and 0.1 GHz left of it
        grid = make_grid([2.60e9, 2.70e9, 2.7001e9, 2.80e9], s31=[0.1, 0.2, 0.3, 0.4])
        assert metrics_at(grid, 2.68e9) == metrics_at(grid, 2.70e9)
        assert metrics_at(grid, 2.76e9) == metrics_at(grid, 2.80e9)
        for f in (2.54e9, 2.86e9):
            with pytest.raises(FrequencyOffGrid):
                metrics_at(grid, f)  # beyond half an edge step past either end

    def test_reciprocal_splitter_ix_equals_il(self):
        grid = make_grid([1e9], s31=0.43, s21=0.43)
        ix, il, _ = metrics_at(grid, 1e9)
        assert ix == il

    def test_phase_rotation_invariant(self):
        grid = make_grid([1e9, 2e9], s31=1e-3 * np.exp(0.3j))
        rotated = SParamGrid(frequencies=grid.frequencies, n_harm=grid.n_harm,
                             z0=grid.z0, data=grid.data * np.exp(1.1j))
        for a, b in zip(metrics_at(grid, 1e9), metrics_at(rotated, 1e9)):
            assert a == pytest.approx(b, rel=1e-12)


def notch_s31(freqs, f0, gamma, amplitude=1.0):
    d = np.asarray(freqs) - f0
    return amplitude * np.abs(d) / np.sqrt(d * d + gamma * gamma)


def notch_width_db(gamma, level_db, amplitude=1.0):
    s = 10.0 ** (-level_db / 20.0) / amplitude
    return 2.0 * gamma * s / math.sqrt(1.0 - s * s)


class TestBandwidth:
    F0 = 2.68e9
    GAMMA = 2e6

    def grid(self):
        freqs = np.linspace(self.F0 - 20e6, self.F0 + 20e6, 4001)
        return make_grid(freqs, notch_s31(freqs, self.F0, self.GAMMA))

    def test_analytic_notch_width(self):
        grid = self.grid()
        step = float(grid.frequencies[1] - grid.frequencies[0])
        for level in (25.0, 30.0, 40.0):
            expect = notch_width_db(self.GAMMA, level)
            got = bandwidth_at(grid, level)
            assert got == pytest.approx(expect, abs=step)

    def test_never_crossed_returns_none(self):
        freqs = np.linspace(1e9, 2e9, 11)
        grid = make_grid(freqs, 0.5)  # ix ~ 6 dB everywhere
        assert bandwidth_at(grid, 25.0) is None

    def test_threshold_monotonicity(self):
        grid = self.grid()
        widths = [bandwidth_at(grid, t) for t in (25.0, 28.0, 31.0, 34.0, 37.0)]
        assert all(w is not None for w in widths)
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_interval_containing_f_op_wins(self):
        freqs = np.linspace(1e9, 2e9, 2001)
        deep = notch_s31(freqs, 1.7e9, 1e6)           # deep narrow notch
        shallow = notch_s31(freqs, 1.3e9, 40e6) + 0.02  # wide but shallower
        grid = make_grid(freqs, np.minimum(deep, shallow))
        assert operating_point(grid) == pytest.approx(1.7e9, abs=1e6)
        w = bandwidth_at(grid, 25.0)
        assert w is not None and w < 10e6  # the narrow interval, not the wide one

    def test_boundary_clamped(self):
        # -25 dB points of this notch sit +-112.7 kHz out; a +-50 kHz grid
        # never leaves the band, so the interval clamps to the full grid
        freqs = np.linspace(self.F0 - 5e4, self.F0 + 5e4, 201)
        grid = make_grid(freqs, notch_s31(freqs, self.F0, self.GAMMA))
        w = bandwidth_at(grid, 25.0)
        assert w == pytest.approx(1e5, rel=1e-9)

    def test_small_grid_rejected(self):
        grid = make_grid([1e9, 2e9], s31=0.0)
        with pytest.raises(ValueError):
            bandwidth_at(grid, 25.0)
        with pytest.raises(ValueError):
            bandwidth_at(self.grid(), -3.0)


class TestSidebandScan:
    def test_known_levels(self):
        grid = make_grid([1e9], s31=1e-3, s21=0.5, n_harm=2,
                         sidebands={(1, 2): 0.05, (-2, 3): 0.002})
        assert sideband_scan(grid) == pytest.approx(20.0 * math.log10(0.05 / 0.5), rel=1e-12)
        # a lower-order, other-port product alone is the worst one
        grid = make_grid([1e9], s31=1e-3, s21=0.5, n_harm=2, sidebands={(-2, 3): 0.002})
        assert sideband_scan(grid) == pytest.approx(20.0 * math.log10(0.002 / 0.5), rel=1e-12)

    def test_static_capped_at_floor(self):
        grid = make_grid([1e9, 2e9], s31=1e-3, n_harm=2)
        assert sideband_scan(grid) == SIDEBAND_FLOOR_DBC


class TestDirectionConsistency:
    def test_forward_cycle_low_loss_reverse_swaps(self):
        design = CirculatorDesign(Topology.DIFFERENTIAL, GHZ_SPECS, delta=0.03,
                                  f_mod=23.2e6)
        basis = HarmonicBasis(23.2e6, 5)
        f = 2.6694e9
        s_f = sparams(build_circulator(design), basis, [f])
        cycle = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
        for d in cycle:
            ix, il, _ = metrics_at(s_f, f, Direction(*d))
            assert il < ix
        from dataclasses import replace
        rev = replace(design, phase_sequence=PhaseSequence.REVERSE)
        s_r = sparams(build_circulator(rev), basis, [f])
        for d in cycle:
            ix_f, il_f, _ = metrics_at(s_f, f, Direction(*d))
            swapped = Direction(d[0], d[2], d[1])
            ix_r, il_r, _ = metrics_at(s_r, f, swapped)
            assert ix_r == pytest.approx(ix_f, abs=1e-6)
            assert il_r == pytest.approx(il_f, abs=1e-6)


class TestSummarize:
    def test_record_round_trip(self):
        freqs = np.linspace(2.6e9, 2.7e9, 101)
        grid = make_grid(freqs, notch_s31(freqs, 2.65e9, 1e6))
        m = summarize(grid)
        back = CirculatorMetrics.from_record(m.record())
        assert back == m
        assert "f_op_hz" in m.record()

    def test_table_mentions_fields(self):
        freqs = np.linspace(2.6e9, 2.7e9, 101)
        m = summarize(make_grid(freqs, notch_s31(freqs, 2.65e9, 1e6)))
        txt = metrics_table(m)
        assert "isolation" in txt and "insertion loss" in txt and "MHz" in txt
