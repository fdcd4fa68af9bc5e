import gzip
import math

import numpy as np
import pytest

from fbarcirc.bvd import ResonatorSpecs, admittance, bvd_from_specs
from fbarcirc.htm import HarmonicBasis
from fbarcirc.netlist import (Capacitor, Inductor, ModulatedSeriesRlc, ModulationSpec, Netlist,
                              Port, Resistor)
from fbarcirc.transient import (Diverged, IllConditionedBasis, StepTooLarge,
                                TransientResult, cross_validate, extract_phasors,
                                read_waveforms, simulate, time_grid, write_waveforms)

from conftest import one_port_net, toy_wye_net

F_MOD = 23.2e3
FAST_SPECS = ResonatorSpecs(f_s=2.65e6, q=20.0, k_sq=0.09, c0=1.0e-9)


def _synthetic(dt, duration, wave):
    n = round(duration / dt)
    t = np.arange(n + 1) * dt
    return TransientResult(dt=dt, duration=duration, samples={"n1": wave(t)}), t


class TestSimulate:
    def test_rc_divider_amplitude(self):
        z0, r, c, f = 50.0, 200.0, 1e-9, 1e6
        net = Netlist((Resistor("r1", "p1", "n2", r), Capacitor("c1", "n2", "0", c),
                       Port(1, "p1", z0)))
        res = simulate(net, (1, f, 1.0), 60.0 / f, 1.0 / (200.0 * f))
        ph = extract_phasors(res, "n2", f, f / 7.0, 1)
        zc = 1.0 / (1j * 2 * math.pi * f * c)
        expect = 2.0 * math.sqrt(z0) * zc / (zc + r + z0)
        assert abs(ph.phasor(0) - expect) <= 1e-3 * abs(expect)

    def test_port_capacitor_matches_companion_recursion(self):
        # trapezoidal companion model written out: i_k = g*(v_k - v_{k-1}) - i_{k-1}
        # with g = 2C/dt, zero voltage and zero capacitor current at t = 0
        z0, c, f = 50.0, 1e-9, 1e6
        dt = 1.0 / (100.0 * f)
        net = Netlist((Capacitor("c1", "p1", "0", c), Port(1, "p1", z0)))
        res = simulate(net, (1, f, 1.0), 2000 * dt, dt)
        g = 2.0 * c / dt
        v, i = 0.0, 0.0
        expect = [0.0]
        for k in range(1, 2001):
            vs = 2.0 * math.sqrt(z0) * math.cos(2.0 * math.pi * f * k * dt)
            v_new = (vs / z0 + g * v + i) / (1.0 / z0 + g)
            i = g * (v_new - v) - i
            v = v_new
            expect.append(v)
        expect = np.array(expect)
        assert np.max(np.abs(res.samples["p1"] - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_series_inductor_matches_phasor(self):
        z0, ind, r, f = 50.0, 10e-6, 30.0, 1e6
        net = Netlist((Inductor("l1", "p1", "n2", ind), Resistor("r1", "n2", "0", r),
                       Port(1, "p1", z0)))
        res = simulate(net, (1, f, 1.0), 40.0 / f, 1.0 / (400.0 * f))
        zl = 2j * math.pi * f * ind
        vs = 2.0 * math.sqrt(z0)
        for node, expect in (("p1", vs * (zl + r) / (z0 + zl + r)),
                             ("n2", vs * r / (z0 + zl + r))):
            ph = extract_phasors(res, node, f, f / 7.0, 1)
            assert abs(ph.phasor(0) - expect) <= 1e-4 * abs(expect)

    def test_zero_conductance_node_diverges(self):
        net = Netlist((Resistor("r1", "p1", "n2", math.inf),
                       Capacitor("c1", "p1", "0", 1e-9), Port(1, "p1", 50.0)))
        with pytest.raises(Diverged):
            simulate(net, (1, 1e6, 1.0), 1e-5, 1e-8)

    def test_bvd_one_port_matches_admittance(self, desk_specs):
        net = one_port_net(desk_specs, 0.0, F_MOD)
        model = bvd_from_specs(desk_specs)
        f = desk_specs.f_s  # driven at series resonance
        res = simulate(net, (1, f, 1.0), 4.0e-4, 1.0 / (400.0 * f))
        ph = extract_phasors(res, "p1", f, F_MOD, 1)
        expect = 2.0 * math.sqrt(50.0) / (1.0 + 50.0 * admittance(model, f))
        assert abs(ph.phasor(0) - expect) <= 5e-3 * abs(expect)

    def test_modulation_creates_sidebands(self):
        f = 2.68e6
        kwargs = dict(duration=3.0e-4, dt=1.0 / (200.0 * f))
        on = simulate(one_port_net(FAST_SPECS, 0.05, F_MOD), (1, f, 1.0), **kwargs)
        off = simulate(one_port_net(FAST_SPECS, 0.0, F_MOD), (1, f, 1.0), **kwargs)
        ph_on = extract_phasors(on, "p1", f, F_MOD, 1)
        ph_off = extract_phasors(off, "p1", f, F_MOD, 1)
        assert abs(ph_on.phasor(1)) > 1e3 * abs(ph_off.phasor(1))
        assert abs(ph_off.phasor(1)) < 1e-6 * abs(ph_off.phasor(0))

    def test_step_too_large(self, desk_specs):
        net = one_port_net(desk_specs, 0.0, F_MOD)
        with pytest.raises(StepTooLarge):
            simulate(net, (1, 1e6, 1.0), 1e-4, 1.0 / (40.0 * 1e6))

    def test_divergence_detected(self):
        # negative resistance makes the RC node unstable
        net = Netlist((Resistor("r1", "p1", "0", -49.0),
                       Capacitor("c1", "p1", "0", 1e-9), Port(1, "p1", 50.0)))
        with pytest.raises(Diverged):
            simulate(net, (1, 1e6, 1.0), 1e-3, 2e-8)

    def test_sample_count_invariant(self, desk_specs):
        net = one_port_net(desk_specs, 0.0, F_MOD)
        dt = 1.0 / (100.0 * 2.68e6)
        res = simulate(net, (1, 2.68e6, 1.0), 1e-5, dt)
        assert res.samples["p1"].size == round(res.duration / res.dt) + 1

    def test_run_shorter_than_one_step(self, desk_specs):
        net = one_port_net(desk_specs, 0.0, F_MOD)
        with pytest.raises(ValueError, match="shorter than one step"):
            simulate(net, (1, 2.68e6, 1.0), 1e-12, 1e-9)

    def test_unknown_port(self, desk_specs):
        net = one_port_net(desk_specs, 0.0, F_MOD)
        with pytest.raises(ValueError):
            simulate(net, (4, 2.68e6, 1.0), 1e-5, 1e-9)

    def test_dt_refinement_second_order(self):
        f = 2.68e6
        net = one_port_net(FAST_SPECS, 0.05, F_MOD)
        dur = 3.0e-4
        p = []
        for ppc in (200, 400):
            res = simulate(net, (1, f, 1.0), dur, 1.0 / (ppc * f))
            p.append(extract_phasors(res, "p1", f, F_MOD, 2).phasor(0))
        assert abs(p[1] - p[0]) <= 2e-3 * abs(p[1])

    def test_energy_nonnegative_over_beat_periods(self):
        # commensurate tone: f = 10 * f_mod, beat window = 1/f_mod
        f = 10.0 * F_MOD
        z0 = 50.0
        net = one_port_net(FAST_SPECS, 0.05, F_MOD, z0=z0)
        dt = 1.0 / (400.0 * f)
        dur = 30.0 / F_MOD
        res = simulate(net, (1, f, 1.0), dur, dt)
        t = res.times
        v = res.samples["p1"]
        vs = 2.0 * math.sqrt(z0) * np.cos(2 * math.pi * f * t)
        power = (vs - v) / z0 * v
        per_beat = round(1.0 / F_MOD / dt)
        for k in (1, 2, 4):  # whole numbers of beat periods from the tail
            window = power[-k * per_beat:]
            assert float(np.mean(window)) >= -0.01 * 0.5


def _commensurate_dt(f, f_mod, pts_per_cycle):
    """A step that divides the modulation period into a whole number of steps."""
    return 1.0 / (round(pts_per_cycle * f / f_mod) * f_mod)


class TestPeriodReuse:
    # one modulation period of 693 steps at 60 points per stimulus cycle
    F = 2.68e6
    F_MOD_FAST = 10.0 * F_MOD

    def test_modulated_one_port_matches_step_recurrence(self):
        # the trapezoidal rule written out one step at a time: KCL at p1 and the
        # branch's l_m di/dt + r_m i + m(t) u = v, c_m du/dt = i, all at t_k, with
        # each derivative x'_k = (2/dt)(x_k - x_{k-1}) - x'_{k-1}, zero at t = 0
        z0, delta, phase = 50.0, 0.3, 0.4
        dt = _commensurate_dt(self.F, self.F_MOD_FAST, 60)
        steps = 12 * round(1.0 / (self.F_MOD_FAST * dt))
        net = one_port_net(FAST_SPECS, delta, self.F_MOD_FAST, phase=phase, z0=z0)
        res = simulate(net, (1, self.F, 1.0), steps * dt, dt)
        b = bvd_from_specs(FAST_SPECS).branches[0]
        c0, g = FAST_SPECS.c0, 2.0 / dt
        x, dx = np.zeros(3), np.zeros(3)  # (v, i, u) and their derivatives
        expect = [0.0]
        for k in range(1, steps + 1):
            t = k * dt
            m = 1.0 + delta * math.cos(2.0 * math.pi * self.F_MOD_FAST * t + phase)
            vs = 2.0 * math.sqrt(z0) * math.cos(2.0 * math.pi * self.F * t)
            hist = g * x + dx
            a = np.array([[1.0 / z0 + c0 * g, 1.0, 0.0],
                          [-1.0, b.l_m * g + b.r_m, m],
                          [0.0, -1.0, b.c_m * g]])
            rhs = np.array([vs / z0 + c0 * hist[0], b.l_m * hist[1], b.c_m * hist[2]])
            x_new = np.linalg.solve(a, rhs)
            dx = g * (x_new - x) - dx
            x = x_new
            expect.append(x[0])
        expect = np.array(expect)
        assert res.samples["p1"].size == expect.size
        assert np.max(np.abs(res.samples["p1"] - expect)) <= 1e-10 * np.max(np.abs(expect))

    def test_negative_resistance_diverges(self):
        # -49 ohm across the 50 ohm port leaves the node an unstable RC;
        # it grows ~6x per modulation period, past the guard after ~8 periods
        b = bvd_from_specs(FAST_SPECS).branches[0]
        net = Netlist((ModulatedSeriesRlc("x1", "p1", "0", b,
                                          ModulationSpec(0.05, self.F_MOD_FAST, 0.0)),
                       Capacitor("c1", "p1", "0", FAST_SPECS.c0),
                       Resistor("r1", "p1", "0", -49.0), Port(1, "p1", 50.0)))
        dt = _commensurate_dt(self.F, self.F_MOD_FAST, 60)
        with pytest.raises(Diverged):
            simulate(net, (1, self.F, 1.0), 40.0 / self.F_MOD_FAST, dt)

    @pytest.mark.parametrize("f, ppc", [(2.68e6, 400), (2.68e6, 57), (1.0113 * 2.65e6, 400),
                                        (7.1e5, 1000)])
    def test_time_grid_divides_modulation_period(self, f, ppc):
        net = one_port_net(FAST_SPECS, 0.05, F_MOD)
        dt, _ = time_grid(net, f, F_MOD, ppc, 10.0)
        per = round(1.0 / (F_MOD * dt))
        assert abs(per * dt * F_MOD - 1.0) <= 1e-14
        assert abs(dt * ppc * f - 1.0) <= 1.0 / per
        assert simulate(net, (1, f, 1.0), 1.0 / F_MOD, dt).dt == dt  # used unrounded

    def test_commensurate_run_inverts_one_period(self, monkeypatch):
        # any other dt is rounded to the step that divides the period into 693
        inverted = []
        inv = np.linalg.inv

        def counted(a):
            inverted.append(1 if a.ndim == 2 else a.shape[0])
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        net = one_port_net(FAST_SPECS, 0.05, self.F_MOD_FAST)
        for dt in (_commensurate_dt(self.F, self.F_MOD_FAST, 60), 1.0 / (60 * self.F)):
            inverted.clear()
            res = simulate(net, (1, self.F, 1.0), 12.0 / self.F_MOD_FAST, dt)
            assert sum(inverted) <= 693
            assert res.dt == 1.0 / (693 * self.F_MOD_FAST)
            assert res.samples["p1"].size == 12 * 693 + 1

    def test_two_modulation_frequencies_rejected(self):
        b = bvd_from_specs(FAST_SPECS).branches[0]
        net = Netlist((
            ModulatedSeriesRlc("x1", "p1", "0", b, ModulationSpec(0.05, F_MOD, 0.0)),
            ModulatedSeriesRlc("x2", "p1", "0", b, ModulationSpec(0.05, 2.0 * F_MOD, 0.0)),
            Port(1, "p1", 50.0)))
        with pytest.raises(ValueError, match="one f_mod"):
            simulate(net, (1, self.F, 1.0), 1.0 / F_MOD, 1.0 / (60 * self.F))


class TestExtractPhasors:
    def test_pure_tone_exact(self):
        f, amp, phase = 1.1e5, 0.8, 0.6
        res, _ = _synthetic(1e-8, 2e-3,
                            lambda t: amp * np.cos(2 * math.pi * f * t + phase))
        ph = extract_phasors(res, "n1", f, 1.3e4, 2)
        expect = amp * np.exp(1j * phase)
        assert abs(ph.phasor(0) - expect) <= 1e-6 * abs(expect)
        for n in (-2, -1, 1, 2):
            assert abs(ph.phasor(n)) <= 1e-9
        assert ph.residual <= 1e-9

    def test_two_tone_recovery(self):
        f, fm = 1.1e5, 1.3e4
        p0, p1 = 0.5 - 0.2j, 0.1 + 0.3j
        res, _ = _synthetic(1e-8, 2e-3, lambda t: (
            np.real(p0 * np.exp(2j * math.pi * f * t))
            + np.real(p1 * np.exp(2j * math.pi * (f + fm) * t))))
        ph = extract_phasors(res, "n1", f, fm, 1)
        assert abs(ph.phasor(0) - p0) <= 1e-6 * abs(p0)
        assert abs(ph.phasor(1) - p1) <= 1e-6 * abs(p1)

    def test_colliding_bins_rejected(self):
        res, _ = _synthetic(1e-6, 1e-3, lambda t: np.cos(2 * math.pi * 1e5 * t))
        with pytest.raises(IllConditionedBasis):
            extract_phasors(res, "n1", 1e5, 1.0e3, 1)  # 1 kHz < 1/window = 4 kHz

    def test_unknown_node(self):
        res, _ = _synthetic(1e-6, 1e-3, lambda t: np.cos(t))
        with pytest.raises(KeyError):
            extract_phasors(res, "zz", 1e5, 1e4, 1)

    def test_conjugate_consistency(self):
        # extracted phasors describe a real signal: fitting the reconstruction
        # of the fit reproduces the same phasors
        f, fm = 1.1e5, 1.3e4
        res, t = _synthetic(1e-8, 2e-3, lambda t: (
            0.4 * np.cos(2 * math.pi * f * t + 0.3)
            + 0.1 * np.cos(2 * math.pi * (f - fm) * t - 1.0)))
        ph = extract_phasors(res, "n1", f, fm, 1)
        recon = sum(np.real(v * np.exp(2j * math.pi * (f + n * fm) * t))
                    for n, v in ph.entries)
        assert np.allclose(recon[-1000:], res.samples["n1"][-1000:], atol=1e-9)


class TestCrossValidate:
    def test_static_one_port(self, desk_specs):
        # the 1e-3 gate needs the finer step: trapezoidal frequency warp
        # falls quadratically with points per cycle
        net = one_port_net(desk_specs, 0.0, F_MOD)
        err = cross_validate(net, HarmonicBasis(F_MOD, 3), 2.68e6, ports=(1, 1),
                             pts_per_cycle=800, mod_periods=8.0)
        assert err <= 1e-3

    def test_modulated_one_port_fast(self):
        net = one_port_net(FAST_SPECS, 0.05, F_MOD)
        err = cross_validate(net, HarmonicBasis(F_MOD, 4), 2.68e6, ports=(1, 1),
                             mod_periods=10.0)
        assert err <= 1e-2

    def test_toy_wye_transmission_fast(self):
        net = toy_wye_net(FAST_SPECS, 0.02, F_MOD)
        err = cross_validate(net, HarmonicBasis(F_MOD, 4), 2.68e6, ports=(1, 2),
                             mod_periods=10.0)
        assert err <= 2e-2

    def test_unknown_ports(self, desk_specs):
        net = one_port_net(desk_specs, 0.0, F_MOD)
        with pytest.raises(ValueError):
            cross_validate(net, HarmonicBasis(F_MOD, 2), 2.68e6, ports=(1, 9))


class TestWaveformDump:
    def test_round_trip_plain(self, tmp_path, desk_specs):
        net = one_port_net(desk_specs, 0.0, F_MOD)
        res = simulate(net, (1, 2.68e6, 1.0), 2e-6, 1e-9)
        path = tmp_path / "w.csv"
        write_waveforms(res, path)
        back = read_waveforms(path)
        assert back.samples.keys() == res.samples.keys()
        assert np.array_equal(back.samples["p1"], res.samples["p1"])

    def test_round_trip_gzip(self, tmp_path, desk_specs):
        net = one_port_net(desk_specs, 0.0, F_MOD)
        res = simulate(net, (1, 2.68e6, 1.0), 2e-6, 1e-9)
        path = tmp_path / "w.csv.gz"
        write_waveforms(res, path)
        back = read_waveforms(path)
        assert np.array_equal(back.samples["p1"], res.samples["p1"])

    def test_gzip_dump_is_reproducible(self, tmp_path, desk_specs, monkeypatch):
        # two dumps written at different clock times hold the same bytes,
        # and decompress to the plain CSV
        net = toy_wye_net(desk_specs, 0.02, F_MOD)
        res = simulate(net, (1, 2.68e6, 1.0), 2e-6, 1e-9)
        dumps = []
        for clock in (1.0e9, 2.0e9):
            monkeypatch.setattr(gzip.time, "time", lambda now=clock: now)
            (tmp_path / str(clock)).mkdir()
            dumps.append(tmp_path / str(clock) / "w.csv.gz")
            write_waveforms(res, dumps[-1])
        assert dumps[0].read_bytes() == dumps[1].read_bytes()
        write_waveforms(res, tmp_path / "w.csv")
        assert gzip.decompress(dumps[0].read_bytes()) == (tmp_path / "w.csv").read_bytes()
