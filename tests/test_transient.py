import contextlib
import errno
import gzip
import math
import os
import signal
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fbarcirc.bvd import ResonatorSpecs, admittance, bvd_from_specs
from fbarcirc import fork, plan, transient
from fbarcirc.config import load_config
from fbarcirc.htm import HarmonicBasis, sparams
from fbarcirc.netlist import (Capacitor, Inductor, ModulatedSeriesRlc, ModulationSpec, Netlist,
                              NetlistError, Port, Resistor, build_circulator, scale_frequency)
from fbarcirc.transient import (Diverged, StepTooLarge, cross_validate, simulate, time_grid,
                                write_waveforms)

from conftest import DESK_SPECS, assert_no_worker_left, one_port_net, toy_wye_net

F_MOD = 23.2e3
FAST_SPECS = ResonatorSpecs(f_s=2.65e6, q=20.0, k_sq=0.09, c0=1.0e-9)


def _samples(res):
    """{node: samples} of a run that kept its maps, concatenated from the
    period blocks that the guard and the dump read."""
    cols = np.concatenate([c.copy() for _, c in transient._period_blocks(res.maps)], axis=1)
    return dict(zip(res.maps.nodes, cols))


def _tail_phasors(res, node, f, f_mod, n_harm):
    """{n: P_n} of an explicit least-squares fit of the last quarter of
    ``node``'s samples against the full (samples x 2T) cos/sin matrix of the
    tones f + n*f_mod, n in [-n_harm, n_harm]."""
    v = _samples(res)[node]
    start = (v.size * 3) // 4
    ns = np.arange(-n_harm, n_harm + 1)
    theta = 2.0 * math.pi * (f + ns * f_mod) * res.dt
    i = np.arange(start, v.size)
    a = np.concatenate([np.cos(np.outer(i, theta)), np.sin(np.outer(i, theta))], axis=1)
    coef, *_ = np.linalg.lstsq(a, v[start:], rcond=None)
    return dict(zip(ns.tolist(), coef[:ns.size] - 1j * coef[ns.size:]))


class TestSimulate:
    def test_rc_divider_amplitude(self):
        z0, r, c, f = 50.0, 200.0, 1e-9, 1e6
        net = Netlist((Resistor("r1", "p1", "n2", r), Capacitor("c1", "n2", "0", c),
                       Port(1, "p1", z0)))
        res = simulate(net, (1, f), 60.0 / f, 1.0 / (200.0 * f))
        ph = _tail_phasors(res, "n2", f, f / 7.0, 1)
        zc = 1.0 / (1j * 2 * math.pi * f * c)
        expect = 2.0 * math.sqrt(z0) * zc / (zc + r + z0)
        assert abs(ph[0] - expect) <= 1e-3 * abs(expect)

    def test_port_capacitor_matches_companion_recursion(self):
        # trapezoidal companion model written out: i_k = g*(v_k - v_{k-1}) - i_{k-1}
        # with g = 2C/dt, zero voltage and zero capacitor current at t = 0
        z0, c, f = 50.0, 1e-9, 1e6
        dt = 1.0 / (100.0 * f)
        net = Netlist((Capacitor("c1", "p1", "0", c), Port(1, "p1", z0)))
        res = simulate(net, (1, f), 2000 * dt, dt)
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
        assert np.max(np.abs(_samples(res)["p1"] - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_series_inductor_matches_phasor(self):
        z0, ind, r, f = 50.0, 10e-6, 30.0, 1e6
        net = Netlist((Inductor("l1", "p1", "n2", ind), Resistor("r1", "n2", "0", r),
                       Port(1, "p1", z0)))
        res = simulate(net, (1, f), 40.0 / f, 1.0 / (400.0 * f))
        zl = 2j * math.pi * f * ind
        vs = 2.0 * math.sqrt(z0)
        for node, expect in (("p1", vs * (zl + r) / (z0 + zl + r)),
                             ("n2", vs * r / (z0 + zl + r))):
            ph = _tail_phasors(res, node, f, f / 7.0, 1)
            assert abs(ph[0] - expect) <= 1e-4 * abs(expect)

    @pytest.mark.parametrize("keep_maps", [True, False])
    def test_zero_conductance_node_diverges(self, keep_maps):
        # a singular A0: this raises before the divergence guard, with maps or
        # without.  n2's capacitances to ground cancel, and r1 is an open, so
        # n2 has zero admittance but, unlike a node behind r1 alone, a path to
        # ground, which the netlist check asks for
        net = Netlist((Resistor("r1", "p1", "n2", math.inf), Capacitor("c1", "p1", "0", 1e-9),
                       Capacitor("c2", "n2", "0", 1e-9), Capacitor("c3", "n2", "0", -1e-9),
                       Port(1, "p1", 50.0)))
        with pytest.raises(Diverged):
            simulate(net, (1, 1e6), 1e-5, 1e-8, keep_maps=keep_maps)

    def test_bvd_one_port_matches_admittance(self, desk_specs):
        net = one_port_net(desk_specs, 0.0, F_MOD)
        model = bvd_from_specs(desk_specs)
        f = desk_specs.f_s  # driven at series resonance
        res = simulate(net, (1, f), 4.0e-4, 1.0 / (400.0 * f))
        ph = _tail_phasors(res, "p1", f, F_MOD, 1)
        expect = 2.0 * math.sqrt(50.0) / (1.0 + 50.0 * admittance(model, f))
        assert abs(ph[0] - expect) <= 5e-3 * abs(expect)

    def test_modulation_creates_sidebands(self):
        f = 2.68e6
        kwargs = dict(duration=3.0e-4, dt=1.0 / (200.0 * f))
        on = simulate(one_port_net(FAST_SPECS, 0.05, F_MOD), (1, f), **kwargs)
        off = simulate(one_port_net(FAST_SPECS, 0.0, F_MOD), (1, f), **kwargs)
        ph_on = _tail_phasors(on, "p1", f, F_MOD, 1)
        ph_off = _tail_phasors(off, "p1", f, F_MOD, 1)
        assert abs(ph_on[1]) > 1e3 * abs(ph_off[1])
        assert abs(ph_off[1]) < 1e-6 * abs(ph_off[0])

    def test_step_too_large(self, desk_specs):
        net = one_port_net(desk_specs, 0.0, F_MOD)
        with pytest.raises(StepTooLarge):
            simulate(net, (1, 1e6), 1e-4, 1.0 / (40.0 * 1e6))

    def test_divergence_detected(self):
        # negative resistance makes the RC node unstable
        net = Netlist((Resistor("r1", "p1", "0", -49.0),
                       Capacitor("c1", "p1", "0", 1e-9), Port(1, "p1", 50.0)))
        with pytest.raises(Diverged):
            simulate(net, (1, 1e6), 1e-3, 2e-8)

    def test_sample_count_invariant(self, desk_specs):
        net = one_port_net(desk_specs, 0.0, F_MOD)
        dt = 1.0 / (100.0 * 2.68e6)
        res = simulate(net, (1, 2.68e6), 1e-5, dt)
        assert _samples(res)["p1"].size == round(res.duration / res.dt) + 1

    def test_run_shorter_than_one_step(self, desk_specs):
        net = one_port_net(desk_specs, 0.0, F_MOD)
        with pytest.raises(ValueError, match="shorter than one step"):
            simulate(net, (1, 2.68e6), 1e-12, 1e-9)

    def test_unknown_port(self, desk_specs):
        net = one_port_net(desk_specs, 0.0, F_MOD)
        with pytest.raises(ValueError):
            simulate(net, (4, 2.68e6), 1e-5, 1e-9)

    @pytest.mark.parametrize("f, dt, duration", [
        (0.0, 1e-9, 1e-5), (math.nan, 1e-9, 1e-5), (-2.68e6, 1e-9, 1e-5), (math.inf, 1e-9, 1e-5),
        (2.68e6, math.nan, 1e-5), (2.68e6, 0.0, 1e-5), (2.68e6, math.inf, 1e-5),
        (2.68e6, 1e-9, math.nan), (2.68e6, 1e-9, -1e-5),
    ], ids=["f-zero", "f-nan", "f-negative", "f-inf", "dt-nan", "dt-zero", "dt-inf",
            "duration-nan", "duration-negative"])
    def test_bad_tone_or_step_raises_before_any_work(self, monkeypatch, f, dt, duration):
        _no_inverse(monkeypatch)
        net = one_port_net(FAST_SPECS, 0.05, F_MOD)
        with pytest.raises(ValueError, match="must be finite and positive"):
            simulate(net, (1, f), duration, dt)

    @pytest.mark.parametrize("f, f_mod", [
        (0.0, F_MOD), (-2.68e6, F_MOD), (math.nan, F_MOD), (math.inf, F_MOD),
        (2.68e6, 0.0), (2.68e6, -F_MOD), (2.68e6, math.nan),
    ], ids=["f-zero", "f-negative", "f-nan", "f-inf", "f-mod-zero", "f-mod-negative",
            "f-mod-nan"])
    def test_time_grid_refuses_a_bad_frequency(self, f, f_mod):
        with pytest.raises(ValueError, match="must be finite and positive"):
            time_grid(one_port_net(FAST_SPECS, 0.05, F_MOD), f, f_mod, 60, 1.0)

    def test_time_grid_under_the_floor_raises(self):
        with pytest.raises(StepTooLarge, match=r"^49 points per cycle are fewer than "
                                               r"MIN_PTS_PER_CYCLE = 50$"):
            time_grid(one_port_net(FAST_SPECS, 0.05, F_MOD), 2.68e6, F_MOD, 49, 1.0)

    def test_time_grid_at_the_floor_passes_the_step_test_across_a_tune_box(self):
        # round(50 f/f_mod) falls under 50 f/f_mod at about half the f_mod of
        # a +-40% box; there time_grid raises P by the fewest steps that pass
        net, f, raised = one_port_net(FAST_SPECS, 0.05, F_MOD), 2.68e6, []
        for f_mod in np.linspace(0.6 * F_MOD, 1.4 * F_MOD, 801):
            dt, _ = time_grid(net, f, f_mod, 50, 1.0)
            p = round(1.0 / (f_mod * dt))
            assert 1.0 / (p * f_mod) == dt  # simulate keeps the step
            assert dt <= 1.0 / (50.0 * f)  # and passes its test
            if p != round(50 * f / f_mod):
                assert 1.0 / ((p - 1) * f_mod) > 1.0 / (50.0 * f)
                raised.append(f_mod)
        assert 200 < len(raised) < 600
        net = one_port_net(FAST_SPECS, 0.05, raised[0])
        dt, _ = time_grid(net, f, raised[0], 50, 1.0)
        assert simulate(net, (1, f), 1.0 / raised[0], dt).dt == dt

    @pytest.mark.parametrize("ppc", [50, 51, 57, 400, 800])
    def test_time_grid_over_the_floor_keeps_the_rounded_period(self, ppc):
        # wherever P = round(ppc f/f_mod) passes the step test, P stays
        net, f, kept = one_port_net(FAST_SPECS, 0.05, F_MOD), 2.68e6, 0
        for f_mod in np.linspace(0.6 * F_MOD, 1.4 * F_MOD, 801):
            p = round(ppc * f / f_mod)
            if 1.0 / (p * f_mod) <= 1.0 / (50.0 * f):
                kept += 1
                assert time_grid(net, f, f_mod, ppc, 1.0)[0] == 1.0 / (p * f_mod)
        assert kept >= (200 if ppc == 50 else 801)

    def test_dt_refinement_second_order(self):
        f = 2.68e6
        net = one_port_net(FAST_SPECS, 0.05, F_MOD)
        dur = 3.0e-4
        p = []
        for ppc in (200, 400):
            res = simulate(net, (1, f), dur, 1.0 / (ppc * f))
            p.append(_tail_phasors(res, "p1", f, F_MOD, 2)[0])
        assert abs(p[1] - p[0]) <= 2e-3 * abs(p[1])

    def test_energy_nonnegative_over_beat_periods(self):
        # commensurate tone: f = 10 * f_mod, beat window = 1/f_mod
        f = 10.0 * F_MOD
        z0 = 50.0
        net = one_port_net(FAST_SPECS, 0.05, F_MOD, z0=z0)
        dt = 1.0 / (400.0 * f)
        dur = 30.0 / F_MOD
        res = simulate(net, (1, f), dur, dt)
        t = np.arange(round(res.duration / res.dt) + 1) * res.dt
        v = _samples(res)["p1"]
        vs = 2.0 * math.sqrt(z0) * np.cos(2 * math.pi * f * t)
        power = (vs - v) / z0 * v
        per_beat = round(1.0 / F_MOD / dt)
        for k in (1, 2, 4):  # whole numbers of beat periods from the tail
            window = power[-k * per_beat:]
            assert float(np.mean(window)) >= -0.01 * 0.5


def _step_inverses(a0, mod, block):
    """A run's _StepInverses with buffers for blocks of up to ``block`` times."""
    size = a0.shape[0] * block * a0.shape[0]
    return transient._StepInverses(a0, mod, np.empty(size), np.empty(size))


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
        res = simulate(net, (1, self.F), steps * dt, dt)
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
        v = _samples(res)["p1"]
        assert v.size == expect.size
        assert np.max(np.abs(v - expect)) <= 1e-10 * np.max(np.abs(expect))

    @pytest.mark.parametrize("case, node_heavy", [("rc-ladder", True), ("modulated-ladder", True),
                                                  ("modulated-one-port", False)])
    def test_node_heavy_netlist_matches_step_loop(self, monkeypatch, case, node_heavy):
        # With more than half its unknowns at nodes, a block's lifted rows and
        # their copy need more room than its step stack, and a modulated
        # block's local parts more than its inverses; the one-port is on the
        # other side of both.  Blocks of a few hundred steps, so that the
        # modulated periods of 693 steps hold several, the last one short.
        monkeypatch.setattr(transient, "CHUNK_VALUES", 9000)
        branch = bvd_from_specs(FAST_SPECS).branches[0]
        mod = ModulationSpec(0.3, self.F_MOD_FAST, 0.4)
        ladder = (Resistor("r1", "p1", "n2", 20.0), Capacitor("c1", "n2", "0", 1e-9),
                  Resistor("r2", "n2", "n3", 20.0), Capacitor("c2", "n3", "0", 1e-9))
        net = {
            "rc-ladder": lambda: Netlist(ladder + (Port(1, "p1", 50.0),)),
            "modulated-ladder": lambda: Netlist(ladder + (
                Resistor("r3", "n3", "n4", 20.0), Capacitor("c0", "n4", "0", FAST_SPECS.c0),
                ModulatedSeriesRlc("x1", "n4", "0", branch, mod), Port(1, "p1", 50.0))),
            "modulated-one-port": lambda: one_port_net(FAST_SPECS, 0.3, self.F_MOD_FAST,
                                                       phase=0.4),
        }[case]()
        names, c, g, s, stamped = transient._stamp(net, 1)
        assert (2 * len(names) > s.size) == node_heavy
        dt = _commensurate_dt(self.F, self.F_MOD_FAST, 60)
        steps = 3 * 693
        res = simulate(net, (1, self.F), steps * dt, dt)
        # the trapezoidal rule one step at a time on the stamped matrices:
        # x_k = (K + G(t_k))^-1 (h_{k-1} + s cos(w t_k)), h_k = 2K x_k - h_{k-1}
        k = 2.0 * c / dt
        h = np.zeros(s.size)
        expect = np.zeros((len(names), steps + 1))
        for i in range(1, steps + 1):
            a = k + g
            for row, depth, f_mod, phase in stamped:
                a[int(row), int(row) + 1] = 1.0 + depth * math.cos(2.0 * math.pi * f_mod * i * dt
                                                                   + phase)
            x = np.linalg.solve(a, h + s * math.cos(2.0 * math.pi * self.F * i * dt))
            h = 2.0 * k @ x - h
            expect[:, i] = x[:len(names)]
        samples = _samples(res)
        got = np.array([samples[n] for n in names])
        assert np.max(np.abs(got - expect)) <= 1e-10 * np.max(np.abs(expect))

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
            simulate(net, (1, self.F), 40.0 / self.F_MOD_FAST, dt)

    @pytest.mark.parametrize("f, ppc", [(2.68e6, 400), (2.68e6, 57), (1.0113 * 2.65e6, 400),
                                        (7.1e5, 1000)])
    def test_time_grid_divides_modulation_period(self, f, ppc):
        net = one_port_net(FAST_SPECS, 0.05, F_MOD)
        dt, _ = time_grid(net, f, F_MOD, ppc, 10.0)
        per = round(1.0 / (F_MOD * dt))
        assert abs(per * dt * F_MOD - 1.0) <= 1e-14
        assert abs(dt * ppc * f - 1.0) <= 1.0 / per
        assert simulate(net, (1, f), 1.0 / F_MOD, dt).dt == dt  # used unrounded

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
            res = simulate(net, (1, self.F), 12.0 / self.F_MOD_FAST, dt)
            assert sum(inverted) <= 693
            assert res.dt == 1.0 / (693 * self.F_MOD_FAST)
            assert _samples(res)["p1"].size == 12 * 693 + 1

    @pytest.mark.parametrize("n, static", [pytest.param(n, s, id=f"static-{n}" if s else str(n))
                                           for s in (False, True) for n in (1, 2, 3, 12, 13, 97)])
    def test_chain_matches_step_loop(self, n, static):
        # blocks of b steps: n = 12 fills them exactly, the other n leave a
        # short last block; a static run repeats one step, here as a
        # broadcast stack
        rng = np.random.default_rng(n)
        nu, nr = 3, 2
        k2 = 2.0 * np.eye(nu) + 0.3 * rng.normal(size=(nu, nu))
        size = 1 if static else n
        # A_j^-1 = k2^-1 (I + m_j), so that M_j = k2 A_j^-1 - I = m_j is small
        a_inv = np.linalg.solve(k2, np.eye(nu) + 0.4 * rng.normal(size=(size, nu, nu)))
        step = np.broadcast_to(np.concatenate([a_inv, rng.normal(size=(size, nu, 2))], axis=2),
                               (n, nu, nu + 2))
        state = rng.normal(size=(nu, nu + 2))
        b, nb = transient._sub_blocks(n)
        held = np.empty(2 * nb * (nu + 2) ** 2 + nb * b * nr * (nu + 2))
        scratch = np.empty(2 * nb * b * nr * (nu + 2))
        last, rows = transient._lift(*transient._local(step, k2, nr, held), state, n, scratch)
        assert rows.shape == (nr, nu + 2, n)
        s = state
        for j in range(n):
            x = step[j, :, :nu] @ s  # R_j S_{j-1} + [0 | w_j] in its first rows
            x[:, nu:] += step[j, :, nu:]
            assert np.allclose(rows[:, :, j], x[:nr], rtol=0.0, atol=1e-12)
            s = (k2 @ step[j, :, :nu] - np.eye(nu)) @ s  # M_j S_{j-1} + [0 | d_j]
            s[:, nu:] += k2 @ step[j, :, nu:]
        assert np.allclose(last, s, rtol=0.0, atol=1e-12)

    def test_two_modulation_frequencies_rejected(self):
        # the netlist cannot be built, so simulate never meets one
        b = bvd_from_specs(FAST_SPECS).branches[0]
        with pytest.raises(NetlistError, match="one f_mod"):
            Netlist((
                ModulatedSeriesRlc("x1", "p1", "0", b, ModulationSpec(0.05, F_MOD, 0.0)),
                ModulatedSeriesRlc("x2", "p1", "0", b, ModulationSpec(0.05, 2.0 * F_MOD, 0.0)),
                Port(1, "p1", 50.0)))


def _explicit_inverses(a0, mod, t):
    """np.linalg.inv of every step matrix K + G(t), each built entry by entry."""
    ref = []
    for tj in t:
        a = a0.copy()
        for row, depth, f_mod, phase in mod:
            a[int(row), int(row) + 1] = 1.0 + depth * math.cos(2.0 * math.pi * f_mod * tj + phase)
        ref.append(np.linalg.inv(a))
    return np.array(ref)


def _no_inverse(monkeypatch):
    """Make np.linalg.inv fail if anything reaches it."""
    def refuse(a):
        raise AssertionError(f"np.linalg.inv reached with shape {np.shape(a)}")

    monkeypatch.setattr(np.linalg, "inv", refuse)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestStepInverses:
    F = 2.68e6

    @staticmethod
    def _tuned_replica():
        design = load_config(CONFIGS / "differential_tuned.cfg").design()
        return scale_frequency(build_circulator(design), 1000.0)

    @pytest.mark.parametrize("case, nu, k", [("one-port", 3, 1), ("toy-wye", 7, 2),
                                             ("differential", 17, 6)])
    def test_woodbury_matches_direct_inverse(self, case, nu, k):
        net, f, f_mod = {
            "one-port": lambda: (one_port_net(FAST_SPECS, 0.05, F_MOD), self.F, F_MOD),
            "toy-wye": lambda: (toy_wye_net(DESK_SPECS, 0.02, F_MOD), self.F, F_MOD),
            "differential": lambda: (self._tuned_replica(), 2.6767e6, 31479.74575625309),
        }[case]()
        _, c, g, _, mod = transient._stamp(net, 1)
        assert (c.shape[0], len(mod)) == (nu, k)
        dt, _ = time_grid(net, f, f_mod, 400, 1.0)
        a0 = 2.0 * c / dt + g
        # 300 steps spread over one modulation period
        per = round(1.0 / (f_mod * dt))
        t = (np.arange(1, per + 1, per // 300)) * dt
        ref = _explicit_inverses(a0, mod, t)
        inverses = _step_inverses(a0, mod, t.size + 9)
        for n in (t.size, 37):  # a full block, then a short one in the same buffers
            x = inverses(t[:n])
            err = np.max(np.abs(x - ref[:n]), axis=(1, 2)) / np.max(np.abs(ref[:n]), axis=(1, 2))
            assert x.shape == (n, nu, nu)
            assert np.max(err) <= 1e-12

    def test_singular_step_raises(self):
        # A0 is regular, but at t = 0 the modulated entry makes both rows equal
        a0 = np.array([[1.0, 1.0], [1.0, 2.0]])
        mod = np.array([[0.0, 1.0, 1.0, 0.0]])
        with pytest.raises(Diverged):
            _step_inverses(a0, mod, 2)(np.array([0.25, 0.0]))

    def test_residual_bound_enforced_on_a0(self, monkeypatch):
        net = toy_wye_net(FAST_SPECS, 0.02, F_MOD)
        dt, _ = time_grid(net, self.F, F_MOD, 60, 1.0)
        monkeypatch.setattr(transient, "INVERSE_RESIDUAL_BOUND", 1e-30)
        with pytest.raises(Diverged, match="residual"):
            simulate(net, (1, self.F), 2.0 / F_MOD, dt)

    def test_residual_bound_enforced_on_every_block(self, monkeypatch):
        net = toy_wye_net(FAST_SPECS, 0.02, F_MOD)
        _, c, g, _, mod = transient._stamp(net, 1)
        dt, _ = time_grid(net, self.F, F_MOD, 60, 1.0)
        a0 = 2.0 * c / dt + g
        inverses = _step_inverses(a0, mod, 64)
        t = np.arange(1, 65) * dt
        inverses(t)
        monkeypatch.setattr(transient, "INVERSE_RESIDUAL_BOUND", 1e-30)
        with pytest.raises(Diverged, match="residual"):
            inverses(t)

    @pytest.mark.parametrize("delta", [0.0, 0.02])
    def test_one_run_inverts_one_matrix(self, monkeypatch, delta):
        # at 400 points per cycle the modulation period spans several blocks
        shapes = []
        inv = np.linalg.inv

        def counted(a):
            shapes.append(np.shape(a))
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counted)
        net = toy_wye_net(FAST_SPECS, delta, F_MOD)
        dt, _ = time_grid(net, self.F, F_MOD, 400, 1.0)
        assert round(1.0 / (F_MOD * dt)) > transient.CHUNK_VALUES // (7 * 9)
        simulate(net, (1, self.F), 2.0 / F_MOD, dt)
        assert shapes == [(7, 7)]

    def test_period_size_bounded_before_any_work(self, monkeypatch):
        _no_inverse(monkeypatch)
        net = one_port_net(FAST_SPECS, 0.05, F_MOD)
        dt = 1.0 / (2.0 * transient.MAX_PERIOD_STEPS * F_MOD)
        with pytest.raises(transient.RunTooLarge, match="MAX_PERIOD_STEPS"):
            simulate(net, (1, self.F), 1.0 / F_MOD, dt)

    @pytest.mark.parametrize("delta", [0.0, 0.05])
    def test_sample_count_bounded_before_any_work(self, monkeypatch, delta):
        _no_inverse(monkeypatch)
        net = one_port_net(FAST_SPECS, delta, F_MOD)
        dt, _ = time_grid(net, self.F, F_MOD, 60, 1.0)
        with pytest.raises(transient.RunTooLarge, match="MAX_SAMPLES"):
            simulate(net, (1, self.F), 2.0 * plan.MAX_SAMPLES * dt, dt)
        assert isinstance(transient.RunTooLarge("x"), ValueError)

    @pytest.mark.parametrize("config, f_op", [("differential.cfg", 2.6e9),
                                              ("differential_tuned.cfg", 2676659341.9773417)])
    def test_size_bounds_admit_a_fine_differential_run(self, config, f_op):
        # the desk replica at 800 points per cycle, 22 periods past ring-up,
        # at the operating point simulate reports: both bounds sit 10x above it
        design = load_config(CONFIGS / config).design()
        net = scale_frequency(build_circulator(design), 1000.0)
        f_mod = design.f_mod / 1000.0
        dt, duration = time_grid(net, f_op / 1000.0, f_mod, 800, 22.0)
        assert 10 * round(1.0 / (f_mod * dt)) <= transient.MAX_PERIOD_STEPS
        assert 10 * (round(duration / dt) + 1) <= plan.MAX_SAMPLES


class TestSeriesInverses:
    """The Woodbury k x k systems by their Neumann series where rho^m <= 2^-53."""

    F = 2.68e6

    @staticmethod
    def _inverses(ppc, block):
        net = toy_wye_net(FAST_SPECS, 0.02, F_MOD)
        _, c, g, _, mod = transient._stamp(net, 1)
        dt, _ = time_grid(net, TestSeriesInverses.F, F_MOD, ppc, 1.0)
        return _step_inverses(2.0 * c / dt + g, mod, block), dt

    def test_series_matches_lapack_path(self):
        # rho = 1.2e-6 at 400 points per cycle: three terms
        inverses, dt = self._inverses(400, 2000)
        assert inverses.terms == 3
        t = np.arange(1, 2001) * 7 * dt  # spread over a third of the period
        series = inverses(t).copy()
        inverses.terms = 0
        lapack = inverses(t)
        assert np.max(np.abs(series - lapack)) <= 1e-13 * np.max(np.abs(lapack))

    def test_coarse_step_takes_lapack_path(self, monkeypatch):
        # rho = 8e-4 on the deep one-port at 60 points per cycle, above the
        # cutoff of four terms; rho = 1.2e-6 on the toy wye at 400
        solves = []
        solve = np.linalg.solve

        def counted(a, b):
            if np.ndim(a) == 3:  # a block's batch, not the steady state's one system
                solves.append(np.shape(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        f_mod = 10.0 * F_MOD
        net = one_port_net(FAST_SPECS, 0.3, f_mod, phase=0.4)
        simulate(net, (1, self.F), 2.0 / f_mod, _commensurate_dt(self.F, f_mod, 60))
        assert solves and all(shape[1:] == (1, 1) for shape in solves)
        solves.clear()
        net = toy_wye_net(FAST_SPECS, 0.02, F_MOD)
        dt, _ = time_grid(net, self.F, F_MOD, 400, 1.0)
        simulate(net, (1, self.F), 2.0 / F_MOD, dt)
        assert solves == []

    def test_residual_bound_enforced_on_solved_blocks(self, monkeypatch):
        # test_residual_bound_enforced_on_every_block takes the series (rho =
        # 5.3e-5, four terms); the deep one-port's rho = 8e-4 takes the solve
        f_mod = 10.0 * F_MOD
        _, c, g, _, mod = transient._stamp(one_port_net(FAST_SPECS, 0.3, f_mod, phase=0.4), 1)
        dt = _commensurate_dt(self.F, f_mod, 60)
        inverses = _step_inverses(2.0 * c / dt + g, mod, 64)
        assert inverses.terms == 0
        t = np.arange(1, 65) * dt
        inverses(t)
        monkeypatch.setattr(transient, "INVERSE_RESIDUAL_BOUND", 1e-30)
        with pytest.raises(Diverged, match="residual"):
            inverses(t)


def _wye_case():
    """The toy-wye case of ``verify`` at the shipped defaults (400 points per
    cycle, 22 periods): netlist, output node, f, f_mod, n_harm, dt, duration."""
    cfg = load_config(CONFIGS / "differential.cfg")
    cases, f, f_mod = cfg.verify_cases()
    _, net, (_, q_out), _, periods, ppc = next(c for c in cases if c[0] == "toy-wye")
    dt, duration = time_grid(net, f, f_mod, ppc, periods)
    node = next(p.node for p in net.ports if p.index == q_out)
    return net, node, f, f_mod, cfg.get_int("basis.n_harm"), dt, duration


def test_simulate_memory_stays_near_the_maps():
    # a block's working arrays are cache-sized, and no per-step stack of
    # states is formed; x and y sit in a map of their own, which tracemalloc
    # does not see, so they are added back to bound the working arrays by the
    # maps' size
    net, _, f, _, _, dt, duration = _wye_case()
    tracemalloc.start()
    try:
        res = simulate(net, (1, f), duration, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    maps = res.maps
    mapped = maps.x.nbytes + maps.y.nbytes
    assert peak + mapped <= 2 * (mapped + maps.h.nbytes + maps.e.nbytes)


def _fast_wye(keep_maps=True, periods=6.0):
    """``periods`` modulation periods of the Q = 20 toy wye at 60 points per
    cycle, port 1 driven."""
    net = toy_wye_net(FAST_SPECS, 0.02, F_MOD)
    dt, _ = time_grid(net, 2.68e6, F_MOD, 60, 1.0)
    return simulate(net, (1, 2.68e6), periods / F_MOD, dt, keep_maps=keep_maps)


def _same_phasors(a, b):
    """Whether two results' phasors hold the same nodes with the same bits."""
    return list(a.phasors) == list(b.phasors) and all(
        a.phasors[n].tobytes() == b.phasors[n].tobytes() for n in a.phasors)


class TestDivergenceBound:
    """simulate forms no sample when a bound on every sample stays within the
    divergence guard; above it, it checks every sample, a period at a time."""

    F = 2.68e6

    @staticmethod
    def _counted_check(monkeypatch):
        checks = []
        check = transient._check_samples

        def counted(maps):
            checks.append(maps)
            return check(maps)

        monkeypatch.setattr(transient, "_check_samples", counted)
        return checks

    def _run(self, periods=6.0):
        net = one_port_net(FAST_SPECS, 0.05, F_MOD)
        dt, _ = time_grid(net, self.F, F_MOD, 60, 1.0)
        return simulate(net, (1, self.F), periods / F_MOD, dt)

    @staticmethod
    def _bound(maps):
        """The guard's bound on every sample of every node."""
        return np.max(np.abs(maps.h.real) @ np.max(np.abs(maps.x), axis=2).T
                      + np.max(np.abs(maps.y), axis=1))

    def test_limit_between_samples_and_bound(self, monkeypatch):
        checks = self._counted_check(monkeypatch)
        reference = self._run()
        assert checks == []  # the bound alone passes the guard
        v_max = np.max(np.abs(_samples(reference)["p1"]))
        bound = self._bound(reference.maps)
        assert bound > 1.5 * v_max
        source = 2.0 * math.sqrt(50.0)
        monkeypatch.setattr(transient, "DIVERGENCE_FACTOR", math.sqrt(v_max * bound) / source)
        res = self._run()  # no raise
        assert len(checks) == 1
        assert np.array_equal(_samples(res)["p1"], _samples(reference)["p1"])

    def test_limit_below_samples_raises(self, monkeypatch):
        samples = _samples(self._run())
        v_max = np.max(np.abs(samples["p1"]))
        monkeypatch.setattr(transient, "DIVERGENCE_FACTOR", 0.9 * v_max / (2.0 * math.sqrt(50.0)))
        with pytest.raises(Diverged, match="waveform exceeded") as info:
            self._run()
        # the message names the first sample above the limit, over every node
        limit = transient.DIVERGENCE_FACTOR * 2.0 * math.sqrt(50.0)
        first = int(np.argmax(np.any([np.abs(v) > limit for v in samples.values()], axis=0)))
        assert first > 0 and str(info.value).endswith(f"near step {first}")

    def test_check_forms_each_period_in_place(self):
        # a period's columns, plus Re(e_p Y_j) formed an eighth of a period at
        # a time: no complex product of a whole period (3 periods in all)
        maps = self._run(30.0).maps
        period = len(maps.nodes) * maps.y.shape[1] * 8
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            transient._check_samples(maps)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * period + 2 ** 14

    @pytest.mark.parametrize("passes", [True, False], ids=["passing", "raising"])
    def test_check_holds_about_one_period(self, monkeypatch, passes):
        # 30 modulation periods whose bound trips the guard: the check's heap
        # stays within a few periods of samples (the period's columns and the
        # parts of the complex product that forms them; a failing period's
        # |samples| too), where the whole waveform holds 30
        reference = self._run(30.0)
        maps, samples = reference.maps, _samples(reference)["p1"]
        period = len(maps.nodes) * maps.y.shape[1] * 8
        assert samples.nbytes >= 29 * period
        v_max = np.max(np.abs(samples))
        factor = math.sqrt(v_max * self._bound(maps)) if passes else 0.9 * v_max
        monkeypatch.setattr(transient, "DIVERGENCE_FACTOR", factor / (2.0 * math.sqrt(50.0)))
        check, peaks = transient._check_samples, []

        def measured(maps):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                check(maps)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1] - held)

        monkeypatch.setattr(transient, "_check_samples", measured)
        tracemalloc.start()
        try:
            with contextlib.nullcontext() if passes else pytest.raises(Diverged):
                self._run(30.0)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1 and peaks[0] <= 4 * period + 2 ** 14

    def test_other_node_above_limit_raises_without_maps(self, monkeypatch):
        # the limit lies above p2's bound but below another node's peak: a run
        # without maps still raises, with the message of the run with them
        reference = _fast_wye()
        maps, samples = reference.maps, _samples(reference)
        bound = np.max(np.abs(maps.h.real) @ np.max(np.abs(maps.x), axis=2).T
                       + np.max(np.abs(maps.y), axis=1), axis=0)
        v_p1 = np.max(np.abs(samples["p1"]))
        assert bound[maps.nodes.index("p2")] < 0.9 * v_p1
        source = 2.0 * math.sqrt(50.0)
        monkeypatch.setattr(transient, "DIVERGENCE_FACTOR", 0.95 * v_p1 / source)
        with pytest.raises(Diverged) as every:
            _fast_wye()
        with pytest.raises(Diverged) as none:
            _fast_wye(False)
        limit = transient.DIVERGENCE_FACTOR * source
        first = int(np.argmax(np.any([np.abs(v) > limit for v in samples.values()], axis=0)))
        assert first > 0 and str(every.value).endswith(f"near step {first}")
        assert str(none.value) == str(every.value)
        assert str(none.value).startswith("waveform exceeded")

    def test_run_without_maps_checks_every_node_again(self, monkeypatch):
        # a run that keeps no maps and trips a node's bound is made again
        # with maps: with the limit above every sample the rerun passes and
        # the phasors stand; below a sample it raises as the run with maps does
        reference = _fast_wye()
        samples = _samples(reference)
        bound = self._bound(reference.maps)
        v_max = max(np.max(np.abs(v)) for v in samples.values())
        assert bound > 1.5 * v_max
        source = 2.0 * math.sqrt(50.0)
        reruns = []
        simulate_ = transient.simulate

        def counted(*args, **kwargs):
            reruns.append(kwargs)
            return simulate_(*args, **kwargs)

        monkeypatch.setattr(transient, "simulate", counted)  # the rerun's global
        monkeypatch.setattr(transient, "DIVERGENCE_FACTOR", math.sqrt(v_max * bound) / source)
        res = _fast_wye(False)  # no raise
        assert reruns == [{}]  # maps kept
        assert res.maps is None and _same_phasors(res, reference)
        monkeypatch.setattr(transient, "DIVERGENCE_FACTOR", 0.9 * v_max / source)
        with pytest.raises(Diverged) as every:
            _fast_wye()
        with pytest.raises(Diverged) as none:
            _fast_wye(False)
        assert str(none.value) == str(every.value)
        assert str(none.value).startswith("waveform exceeded")


class TestTwoCpuPeriod:
    """A period of at least MIN_FORK_BLOCKS blocks is built on two CPUs: a
    forked worker builds two blocks in three, this process the third and
    lifts every block in order, with the bits, errors and files of one
    process."""

    @staticmethod
    def _cut(monkeypatch, blocks: int) -> int:
        """Cut the fast wye's period at 60 points per cycle into ``blocks``
        blocks; the steps of one block."""
        net = toy_wye_net(FAST_SPECS, 0.02, F_MOD)
        r = round(1.0 / (F_MOD * time_grid(net, 2.68e6, F_MOD, 60, 1.0)[0]))
        steps = -(-r // blocks)
        assert -(-r // steps) == blocks
        monkeypatch.setattr(transient, "CHUNK_VALUES", steps * 7 * 9)  # nu = 7 unknowns
        return steps

    @staticmethod
    def _outputs():
        res = _fast_wye(periods=2.5)
        maps = res.maps
        return [np.stack(list(res.phasors.values())), maps.x, maps.y, maps.h,
                np.stack(list(_fast_wye(False, 2.5).phasors.values()))]

    @pytest.mark.parametrize("extra, short", [(0, True), (1, True), (19, False)],
                             ids=["at-threshold", "one-step-last-block", "full-blocks"])
    def test_bits_do_not_depend_on_the_cpus(self, monkeypatch, cpus, extra, short):
        blocks = transient.MIN_FORK_BLOCKS + extra
        steps = self._cut(monkeypatch, blocks)
        outputs = []
        for n_cpus in (1, 2, 3):
            forks = cpus(n_cpus)
            forks.clear()
            outputs.append(self._outputs())
            assert len(forks) == (0 if n_cpus == 1 else 2)  # one per run
            assert_no_worker_left()
        assert (outputs[0][3].shape[0] > 1 and outputs[0][1].shape[2] == 6931
                and (6931 % steps != 0) == short)
        for other in outputs[1:]:
            for a, b in zip(outputs[0], other):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_no_fork_below_the_threshold(self, monkeypatch, cpus):
        self._cut(monkeypatch, transient.MIN_FORK_BLOCKS - 1)
        forks = cpus(2)
        self._outputs()
        assert forks == []

    @pytest.mark.parametrize("first", [3, 4, 5], ids=["own-block", "worker-first", "worker-second"])
    def test_first_failing_block_raises(self, monkeypatch, cpus, first):
        # every block from ``first`` on fails; blocks 4 and 5 are the worker's
        # and 3 and 6 this process's, so the worker's failures may come first
        steps = self._cut(monkeypatch, transient.MIN_FORK_BLOCKS)
        call = transient._StepInverses.__call__
        dt = time_grid(toy_wye_net(FAST_SPECS, 0.02, F_MOD), 2.68e6, F_MOD, 60, 1.0)[0]

        def failing(self, t):
            if round(t[0] / dt) - 1 >= first * steps:
                raise Diverged(f"block from step {round(t[0] / dt)}")
            return call(self, t)

        monkeypatch.setattr(transient._StepInverses, "__call__", failing)
        messages = []
        for n_cpus in (1, 2):
            forks = cpus(n_cpus)
            forks.clear()
            with pytest.raises(Diverged) as info:
                _fast_wye()
            messages.append(str(info.value))
            assert len(forks) == n_cpus - 1
            assert_no_worker_left()
        assert messages == [f"block from step {first * steps + 1}"] * 2

    def test_killed_worker_names_the_block_it_owed(self, monkeypatch, cpus):
        # two blocks are in flight when the worker dies on its first
        steps = self._cut(monkeypatch, transient.MIN_FORK_BLOCKS)
        parent, call = os.getpid(), transient._StepInverses.__call__

        def killed(self, t):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return call(self, t)

        monkeypatch.setattr(transient._StepInverses, "__call__", killed)
        cpus(2)
        with pytest.raises(fork.WorkerLost) as info:
            _fast_wye()
        assert str(info.value) == (f"the worker for steps {steps + 1}..{2 * steps} of the "
                                   f"modulation period was killed by SIGKILL without a result")
        assert_no_worker_left()

    def test_failed_fork_gives_the_one_process_bits(self, monkeypatch, cpus):
        self._cut(monkeypatch, transient.MIN_FORK_BLOCKS)
        cpus(1)
        one = self._outputs()
        forks = cpus(2)
        calls = []

        def failing_fork():
            calls.append(None)
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing_fork)
        fds = len(os.listdir("/proc/self/fd"))
        two = self._outputs()
        assert len(calls) == 2 and forks == []
        assert len(os.listdir("/proc/self/fd")) == fds
        for a, b in zip(one, two):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("where", ["_lift", "_dft_weights"],
                             ids=["while-lifting", "between-blocks"])
    def test_interrupt_leaves_no_worker(self, monkeypatch, cpus, where):
        # interrupted in the fifth block, with the worker's requests in flight
        self._cut(monkeypatch, transient.MIN_FORK_BLOCKS)
        parent, wrapped, calls = os.getpid(), getattr(transient, where), []

        def interrupted(*args):
            if os.getpid() == parent:
                calls.append(None)
                if len(calls) == 5:
                    raise KeyboardInterrupt
            return wrapped(*args)

        monkeypatch.setattr(transient, where, interrupted)
        forks = cpus(2)
        with pytest.raises(KeyboardInterrupt) as info:  # its traceback holds simulate's frame
            _fast_wye()
        assert len(forks) == 1
        assert_no_worker_left()
        del info


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

    def test_one_simulate_through_module_globals(self, monkeypatch):
        # perfbench counts the oracle's steps by wrapping transient.simulate and
        # reads round(duration/dt) off its result
        results = []
        simulate_ = transient.simulate

        def counted_simulate(*args, **kwargs):
            results.append(simulate_(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(transient, "simulate", counted_simulate)
        net = toy_wye_net(FAST_SPECS, 0.02, F_MOD)
        cross_validate(net, HarmonicBasis(F_MOD, 4), 2.68e6, ports=(1, 2), mod_periods=4.0)
        assert len(results) == 1
        res = results[0]
        dt, duration = time_grid(net, 2.68e6, F_MOD, 400, 4.0)
        assert round(res.duration / res.dt) == round(duration / dt)

    def test_same_error_with_and_without_a_dump(self, tmp_path):
        # the dump's run keeps every node's maps, the plain run none
        net = toy_wye_net(FAST_SPECS, 0.02, F_MOD)
        basis = HarmonicBasis(F_MOD, 4)
        plain = cross_validate(net, basis, 2.68e6, ports=(1, 2), pts_per_cycle=100,
                               mod_periods=4.0)
        dumped = cross_validate(net, basis, 2.68e6, ports=(1, 2), pts_per_cycle=100,
                                mod_periods=4.0, waveforms_path=tmp_path / "w.csv.gz")
        assert plain == dumped
        assert _read_dump(tmp_path / "w.csv.gz")[0] == ["cm", "p1", "p2"]

    def test_shipped_toy_wye_holds_no_maps(self, monkeypatch):
        # the verify default run of the toy wye keeps no node's maps: it maps no
        # memory the size of one node's maps (the two-CPU ring of two blocks'
        # rows is a third of that), and the rest of the call, which tracemalloc
        # sees, stays below what every node's maps would take, and within 2.5
        # step stacks: the run's two buffers take 1.8 and the call peaks at
        # 2.33 MiB, so one more array of a block's rows (0.44) would not fit
        results, sizes = [], []
        simulate_, mmap_ = transient.simulate, transient.mmap.mmap
        cfg = load_config(CONFIGS / "differential.cfg")
        cases, f, f_mod = cfg.verify_cases()
        _, net, ports, gate, periods, ppc = next(c for c in cases if c[0] == "toy-wye")
        basis = HarmonicBasis(f_mod, cfg.get_int("basis.n_harm"))
        nu = transient._stamp(net, ports[0])[3].size
        r = round(1.0 / (f_mod * time_grid(net, f, f_mod, ppc, periods)[0]))
        one_node = r * (16 + 8 * nu)  # bytes of one node's period maps

        def kept(*args, **kwargs):
            results.append(simulate_(*args, **kwargs))
            return results[-1]

        def refuse(fileno, length, *args, **kwargs):
            sizes.append(length)
            if length >= one_node:
                raise AssertionError("period maps allocated")
            return mmap_(fileno, length, *args, **kwargs)

        monkeypatch.setattr(transient, "simulate", kept)
        monkeypatch.setattr(transient.mmap, "mmap", refuse)
        tracemalloc.start()
        try:
            err = cross_validate(net, basis, f, ports=ports, pts_per_cycle=ppc,
                                 mod_periods=periods)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err <= gate
        (res,) = results
        assert res.maps is None
        assert r == round(1.0 / (f_mod * res.dt))
        assert all(size < one_node for size in sizes)
        assert peak <= 3 * (8 * nu + 16) * r  # every node's maps would be 3 of one node's
        assert peak <= 2.5 * 8 * transient.CHUNK_VALUES

    def test_toy_wye_at_a_half_integer_frequency_ratio(self):
        # f/f_mod = 116.5: E = exp(j w T) meets -1, a multiplier of the
        # trapezoid's algebraic unknowns, yet the drive does not excite them
        cfg = load_config(CONFIGS / "differential.cfg")
        cases, _, f_mod = cfg.verify_cases()
        _, net, ports, gate, periods, ppc = next(c for c in cases if c[0] == "toy-wye")
        basis = HarmonicBasis(f_mod, cfg.get_int("basis.n_harm"))
        err = cross_validate(net, basis, 116.5 * f_mod, ports=ports, pts_per_cycle=ppc,
                             mod_periods=periods)
        assert err <= 0.1 * gate


class TestSteadyState:
    """simulate reads every node's P_-1, P_0, P_1 from one period's steady
    state, with maps or without, and solves for them before it returns."""

    F = 2.68e6

    def test_static_sidebands_vanish(self):
        # the RC divider of TestSimulate: one block stands in for the period,
        # and only the carrier's bin holds anything
        z0, r, c, f = 50.0, 200.0, 1e-9, 1e6
        net = Netlist((Resistor("r1", "p1", "n2", r), Capacitor("c1", "n2", "0", c),
                       Port(1, "p1", z0)))
        res = simulate(net, (1, f), 60.0 / f, 1.0 / (200.0 * f), keep_maps=False)
        p_m, p_0, p_p = res.phasors["n2"]
        zc = 1.0 / (1j * 2 * math.pi * f * c)
        expect = 2.0 * math.sqrt(z0) * zc / (zc + r + z0)
        assert abs(p_0 - expect) <= 1e-3 * abs(expect)  # the fit's bound in TestSimulate
        assert max(abs(p_m), abs(p_p)) <= 1e-13 * abs(p_0)

    @pytest.mark.parametrize("build", [one_port_net, toy_wye_net], ids=["one-port", "toy-wye"])
    def test_steady_state_matches_the_waveform_tail(self, build):
        # the Q = 20 circuits ring up within a few of their 40 modulation
        # periods, and 15 tones fit the tail's waveform at every node: that
        # fit reads the steady state's phasors
        f_mod = 10.0 * F_MOD
        net = build(FAST_SPECS, 0.05, f_mod)
        dt, _ = time_grid(net, self.F, f_mod, 100, 1.0)
        res = simulate(net, (1, self.F), 40.0 / f_mod, dt)
        assert list(res.phasors) == list(_samples(res)) == sorted(net.nodes - {"0"})
        for node, phasors in res.phasors.items():
            fit = _tail_phasors(res, node, self.F, f_mod, 7)
            assert np.allclose(phasors, [fit[-1], fit[0], fit[1]], rtol=0.0,
                               atol=1e-11 * abs(fit[0]))

    def test_one_run_reads_s11_and_s21(self):
        # port 1 driven: p1's phasors give S11 and p2's S21, each within the
        # verify toy-wye gate (2e-2) of the harmonic engine's, as
        # cross_validate measures it
        net = toy_wye_net(FAST_SPECS, 0.02, F_MOD)
        dt, _ = time_grid(net, self.F, F_MOD, 400, 1.0)
        res = simulate(net, (1, self.F), 1.0 / F_MOD, dt, keep_maps=False)
        grid = sparams(net, HarmonicBasis(F_MOD, 4), [self.F])
        for q, node in ((1, "p1"), (2, "p2")):
            s_htm = np.array([grid.harmonic(n)[0, q - 1, 0] for n in (-1, 0, 1)])
            s_td = res.phasors[node] / math.sqrt(50.0) - np.array([0.0, q == 1, 0.0])
            denom = np.maximum(np.abs(s_htm), 0.05 * np.max(np.abs(s_htm)))
            assert np.max(np.abs(s_td - s_htm) / denom) <= 2e-2

    @pytest.mark.parametrize("keep_maps", [True, False])
    def test_simulate_raises_on_the_steady_residual(self, monkeypatch, keep_maps):
        # the run solves its steady state before it returns, with maps or without
        monkeypatch.setattr(transient, "STEADY_RESIDUAL_BOUND", 1e-30)
        with pytest.raises(Diverged, match="steady-state residual"):
            _fast_wye(keep_maps)

    def test_run_shorter_than_a_period_integrates_one(self):
        # the steady state is the circuit's, not the run's: half a period
        # integrates a whole one, and its samples are those of the long run
        short, long = _fast_wye(periods=0.5), _fast_wye()
        assert _same_phasors(short, long)
        v_short, v_long = _samples(short)["p2"], _samples(long)["p2"]
        assert v_short.size == round(short.duration / short.dt) + 1
        assert np.array_equal(v_short, v_long[:v_short.size])

    def test_phasors_do_not_depend_on_the_maps(self):
        # the bins come from rows that every run forms: the same bits with maps
        res = _fast_wye(False)
        assert res.maps is None
        assert _same_phasors(res, _fast_wye(True))

    def test_short_static_run_reads_the_same_steady_state(self):
        # a static run shorter than a block takes its own steps for the
        # period: the steady state is the same tone
        z0, r, c, f = 50.0, 200.0, 1e-9, 1e6
        net = Netlist((Resistor("r1", "p1", "n2", r), Capacitor("c1", "n2", "0", c),
                       Port(1, "p1", z0)))
        dt = 1.0 / (200.0 * f)
        short, long = (simulate(net, (1, f), n * dt, dt, keep_maps=False).phasors["n2"]
                       for n in (37, 12_000))
        assert abs(short[1] - long[1]) <= 1e-12 * abs(long[1])
        assert max(abs(short[0]), abs(short[2])) <= 1e-13 * abs(short[1])


class TestDftWeights:
    """_dft_weights: over one period of r steps, the complex samples of a sum
    of tones f + n*f_mod give each tone's phasor in its bin n = -1, 0, 1, and
    nothing of the others."""

    P = {-3: 0.2 - 0.1j, -2: 0.05j, -1: 0.1 + 0.3j, 0: 0.5 - 0.2j, 1: -0.05 + 0.02j, 2: 0.3}

    def _period(self, r):
        w_dt = 2.0 * math.pi * 116.37 / r  # f/f_mod = 116.37, not an integer
        j = np.arange(1, r + 1)
        z = np.exp(1j * w_dt * j)
        wave = sum(p * np.exp(1j * (w_dt + 2.0 * math.pi * n / r) * j) for n, p in self.P.items())
        return wave, z, j

    @pytest.mark.parametrize("r", [7, 64, 9973])
    def test_period_sum_reads_each_tone(self, r):
        wave, z, j = self._period(r)
        got = wave @ transient._dft_weights(z, j, r)
        expect = np.array([self.P[n] for n in (-1, 0, 1)])
        assert np.max(np.abs(got - expect)) <= 1e-12

    def test_blocks_sum_to_the_period(self):
        r = 9973
        wave, z, j = self._period(r)
        whole = wave @ transient._dft_weights(z, j, r)
        for block in (1000, 4096):
            parts = sum(wave[i:i + block] @ transient._dft_weights(z[i:i + block],
                                                                   j[i:i + block], r)
                        for i in range(0, r, block))
            assert np.max(np.abs(parts - whole)) <= 1e-14


class TestSteadyPhasors:
    """_steady_phasors solves (E I - Phi) h* = psi and returns each node's
    A_n h* + B_n, or raises Diverged where the system is singular or the
    residual is not within STEADY_RESIDUAL_BOUND."""

    NU = 5

    def _case(self, seed=0):
        rng = np.random.default_rng(seed)
        phi = 0.3 * rng.standard_normal((self.NU, self.NU))
        h_star = rng.standard_normal(self.NU) + 1j * rng.standard_normal(self.NU)
        phase = np.exp(0.7j)
        psi = phase * h_star - phi @ h_star
        state = np.concatenate([phi, psi.real[:, None], psi.imag[:, None]], axis=1)
        # two nodes' bins [A_n | Re B_n, Im B_n]
        a = rng.standard_normal((2, self.NU, 3)) + 1j * rng.standard_normal((2, self.NU, 3))
        b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        bins = np.concatenate([a, b.real[:, None], b.imag[:, None]], axis=1)
        return state, bins, phase, {"m": a[0].T @ h_star + b[0], "n": a[1].T @ h_star + b[1]}

    def test_phasors_of_the_boundary_state(self):
        state, bins, phase, expect = self._case()
        got = transient._steady_phasors(("m", "n"), state, bins, phase)
        assert list(got) == ["m", "n"]
        for node in got:
            assert np.max(np.abs(got[node] - expect[node])) <= 1e-13 * np.max(np.abs(expect[node]))

    def test_singular_system_raises(self):
        state, bins, _, _ = self._case()
        state[:, :self.NU] = np.eye(self.NU)  # E = 1 meets every multiplier of Phi = I
        with pytest.raises(Diverged, match="singular steady-state system"):
            transient._steady_phasors(("m", "n"), state, bins, 1.0)

    @pytest.mark.parametrize("case", ["bound", "nan"])
    def test_residual_not_within_the_bound_raises(self, monkeypatch, case):
        state, bins, phase, _ = self._case()
        if case == "bound":
            monkeypatch.setattr(transient, "STEADY_RESIDUAL_BOUND", 1e-30)
        else:
            state[0, self.NU] = np.nan
        with pytest.raises(Diverged, match="steady-state residual"):
            transient._steady_phasors(("m", "n"), state, bins, phase)


def _read_dump(path):
    """The node names and the columns (t_s, then one per node) of a dump."""
    with (gzip.open if str(path).endswith(".gz") else open)(path, "rt") as fh:
        names = [h[2:] for h in fh.readline().strip().split(",")[1:]]
    return names, np.loadtxt(path, delimiter=",", skiprows=1).T


class TestWaveformDump:
    @staticmethod
    def _modulated(periods):
        """``periods`` modulation periods of the Q = 20 one-port, about 6,900
        steps each."""
        f = 2.68e6
        net = one_port_net(FAST_SPECS, 0.05, F_MOD)
        dt, _ = time_grid(net, f, F_MOD, 60, 1.0)
        return simulate(net, (1, f), periods / F_MOD, dt)

    @pytest.mark.parametrize("name", ["w.csv", "w.csv.gz"], ids=["plain", "gzip"])
    def test_round_trip(self, tmp_path, desk_specs, name):
        res = simulate(toy_wye_net(desk_specs, 0.02, F_MOD), (1, 2.68e6), 2e-6, 1e-9)
        write_waveforms(res, tmp_path / name)
        names, cols = _read_dump(tmp_path / name)
        samples = _samples(res)
        assert names == list(samples) == ["cm", "p1", "p2"]
        assert np.array_equal(cols[0], np.arange(round(res.duration / res.dt) + 1) * res.dt)
        assert np.array_equal(cols[1:], list(samples.values()))

    def test_gzip_dump_is_reproducible(self, tmp_path, desk_specs, monkeypatch):
        # two dumps written at different clock times hold the same bytes,
        # and decompress to the plain CSV
        net = toy_wye_net(desk_specs, 0.02, F_MOD)
        res = simulate(net, (1, 2.68e6), 2e-6, 1e-9)
        dumps = []
        for clock in (1.0e9, 2.0e9):
            monkeypatch.setattr(gzip.time, "time", lambda now=clock: now)
            (tmp_path / str(clock)).mkdir()
            dumps.append(tmp_path / str(clock) / "w.csv.gz")
            write_waveforms(res, dumps[-1])
        assert dumps[0].read_bytes() == dumps[1].read_bytes()
        write_waveforms(res, tmp_path / "w.csv")
        assert gzip.decompress(dumps[0].read_bytes()) == (tmp_path / "w.csv").read_bytes()

    def test_gzip_header_names_the_final_file(self, tmp_path, desk_specs):
        res = simulate(one_port_net(desk_specs, 0.0, F_MOD), (1, 2.68e6), 2e-6, 1e-9)
        path = tmp_path / "w.csv.gz"
        write_waveforms(res, path)
        head = path.read_bytes()
        assert head[3] & 0x08  # FNAME: a zero-terminated name follows the 10-byte header
        assert head[10:head.index(b"\0", 10)] == b"w.csv"

    @pytest.mark.parametrize("name", ["w.csv", "w.csv.gz"])
    def test_failed_dump_keeps_target(self, tmp_path, monkeypatch, name):
        # the dump fails after its first period of rows, well past the first
        # block of them: the previous file stands, and no other is left
        res = self._modulated(2.0)
        period_blocks = transient._period_blocks

        def failing(maps):
            blocks = period_blocks(maps)
            yield next(blocks)  # sample 0
            yield next(blocks)  # the first period
            raise RuntimeError("dump failed")

        monkeypatch.setattr(transient, "_period_blocks", failing)
        path = tmp_path / name
        path.write_bytes(b"previous dump")
        with pytest.raises(RuntimeError, match="dump failed"):
            write_waveforms(res, path)
        assert path.read_bytes() == b"previous dump"
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_run_without_maps_writes_no_dump(self, tmp_path):
        res = _fast_wye(False)
        with pytest.raises(ValueError, match="kept no maps"):
            write_waveforms(res, tmp_path / "w.csv.gz")
        assert list(tmp_path.iterdir()) == []

    def test_dump_from_the_maps_stays_near_one_period(self, tmp_path):
        # 30 modulation periods: the dump is written from the maps one period
        # at a time, with the bits of the whole waveform, and never holds it
        res = self._modulated(30.0)
        tracemalloc.start()
        try:
            write_waveforms(res, tmp_path / "w.csv.gz")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.maps.x.shape[2] * len(res.maps.nodes) * 8 <= 2 ** 17  # one period
        assert peak <= 2 ** 20
        names, cols = _read_dump(tmp_path / "w.csv.gz")
        samples = _samples(res)
        assert sum(v.nbytes for v in samples.values()) > 2 ** 20  # the whole waveform
        assert names == list(samples)
        assert np.array_equal(cols[0], np.arange(round(res.duration / res.dt) + 1) * res.dt)
        assert np.array_equal(cols[1:], list(samples.values()))
