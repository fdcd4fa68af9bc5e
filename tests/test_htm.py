import math
from dataclasses import replace

import numpy as np
import pytest

from fbarcirc import htm, netlist
from fbarcirc.bvd import admittance, bvd_from_specs
from fbarcirc.htm import (DegenerateStimulus, HarmonicBasis, HarmonicSystem,
                          NumericallySingular, assemble, convergence_check, solve,
                          sparams)
from fbarcirc.netlist import (Capacitor, CirculatorDesign, Inductor, Netlist, NetlistError,
                              PhaseSequence, Port, Resistor, Topology, build_circulator)

from conftest import DESK_SPECS, GHZ_SPECS, count_stamps, one_port_net, toy_wye_net

F_MOD = 23.2e6


def _port_voltages(net, basis, f, port=1):
    """Port node voltages via the public assemble/solve, shape (harmonic, port)."""
    st = htm.Stamped(net)
    x = solve(assemble(net, basis, f, excited_port=port))
    return x.reshape(basis.size, st.nu)[:, st.port_rows]


def _s_harmonics(net, basis, f, port=1):
    """Wave amplitudes b_n at the (single) port, keyed by harmonic n."""
    v = _port_voltages(net, basis, f, port)[:, port - 1]
    z0 = net.ports[port - 1].z0
    out = {}
    for h, vn in enumerate(v):
        n = h - basis.n_harm
        out[n] = vn / math.sqrt(z0) - (1.0 if n == 0 else 0.0)
    return out


class TestAssemble:
    def test_dimension_single_ended(self, single_ended_design):
        net = build_circulator(single_ended_design)
        basis = HarmonicBasis(F_MOD, 5)
        sys = assemble(net, basis, 2.68e9)
        # 4 non-ground nodes + 3 branch currents + 3 charges = 10 per harmonic
        assert sys.dimension // basis.size == 10
        assert sys.dimension == 110
        assert sys.matrix.shape == (110, 110)

    def test_static_block_diagonal_identical_patterns(self, ghz_specs):
        design = CirculatorDesign(Topology.SINGLE_ENDED, ghz_specs, delta=0.0, f_mod=F_MOD)
        net = build_circulator(design)
        basis = HarmonicBasis(F_MOD, 2)
        sys = assemble(net, basis, 2.7e9)
        nu = sys.dimension // basis.size
        blocks = sys.matrix.reshape(5, nu, 5, nu)
        patterns = []
        for m in range(5):
            for n in range(5):
                if m != n:
                    assert np.all(blocks[m, :, n, :] == 0.0)
                else:
                    patterns.append(blocks[m, :, n, :] != 0.0)
        for pat in patterns[1:]:
            assert np.array_equal(pat, patterns[0])

    def test_first_order_coupling_support(self, desk_specs):
        net = one_port_net(desk_specs, 0.05, 23.2e3)
        basis = HarmonicBasis(23.2e3, 1)
        sys = assemble(net, basis, 2.68e6)
        nu = sys.dimension // basis.size
        blocks = sys.matrix.reshape(3, nu, 3, nu)
        assert np.any(blocks[0, :, 1, :] != 0.0)
        assert np.any(blocks[1, :, 2, :] != 0.0)
        assert np.all(blocks[0, :, 2, :] == 0.0)
        assert np.all(blocks[2, :, 0, :] == 0.0)

    def test_floating_node_raises(self):
        # a floating node stops at construction, before the engine sees it
        with pytest.raises(NetlistError, match="reachable"):
            Netlist((Resistor("r1", "a", "b", 10.0), Port(1, "p1", 50.0),
                     Resistor("r2", "p1", "0", 10.0)))

    def test_degenerate_stimulus_rejected(self, desk_specs):
        net = one_port_net(desk_specs, 0.05, 23.2e3)
        with pytest.raises(DegenerateStimulus):
            assemble(net, HarmonicBasis(23.2e3, 3), 2 * 23.2e3)
        with pytest.raises(DegenerateStimulus):
            assemble(net, HarmonicBasis(23.2e3, 3), 3 * 23.2e3 * (1 + 1e-9))

    @pytest.mark.parametrize("f", [math.nan, math.inf])
    def test_non_finite_stimulus_rejected(self, desk_specs, f):
        net = one_port_net(desk_specs, 0.05, 23.2e3)
        basis = HarmonicBasis(23.2e3, 3)
        with pytest.raises(DegenerateStimulus, match="finite"):
            assemble(net, basis, f)
        with pytest.raises(DegenerateStimulus, match="finite"):
            sparams(net, basis, [2.68e6, f])

    def test_stimulus_over_tiny_f_mod_rejected(self, ghz_specs):
        # f / f_mod overflows; rounding it to a harmonic index must not raise OverflowError
        net = one_port_net(ghz_specs, 0.05, 1e-300)
        with pytest.raises(DegenerateStimulus, match="must be finite"):
            sparams(net, HarmonicBasis(1e-300, 1), [2.68e9])

    def test_inband_multiple_is_fine(self, ghz_specs):
        # 115 x f_mod lies in the operating band and zeroes no mixing frequency
        net = one_port_net(ghz_specs, 0.02, F_MOD)
        sys = assemble(net, HarmonicBasis(F_MOD, 5), 115.0 * F_MOD)
        # 1 non-ground node + 1 branch current + 1 charge = 3 per harmonic
        assert sys.dimension == 11 * 3

    def test_unknown_port_rejected(self, desk_specs):
        net = one_port_net(desk_specs, 0.0, 23.2e3)
        with pytest.raises(ValueError):
            assemble(net, HarmonicBasis(23.2e3, 1), 1e6, excited_port=7)


class TestSolve:
    def test_identity_returns_rhs(self):
        rhs = np.array([1.0 + 2j, -0.5j, 3.0])
        sys = HarmonicSystem(matrix=np.eye(3, dtype=complex), rhs=rhs.copy())
        assert np.array_equal(solve(sys), rhs)

    def test_matches_numpy_on_random_systems(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a *= 10.0 ** rng.integers(-3, 4, size=(n, 1))
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            sys = HarmonicSystem(matrix=a, rhs=b)
            assert np.allclose(solve(sys), np.linalg.solve(a, b), rtol=1e-8, atol=1e-12)

    def test_residual_contract_on_assembled_system(self, differential_design):
        net = build_circulator(replace(differential_design, delta=0.03))
        sys = assemble(net, HarmonicBasis(F_MOD, 5), 2.6694e9)
        x = solve(sys)
        resid = np.max(np.abs(sys.matrix @ x - sys.rhs)) / np.max(np.abs(sys.rhs))
        assert resid <= 1e-9

    def test_singular_matrix_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        sys = HarmonicSystem(matrix=a, rhs=np.ones(2, dtype=complex))
        with pytest.raises(NumericallySingular):
            solve(sys)

    def test_rank_deficient_matrix_raises(self):
        # LAPACK factors this without a zero pivot; only the residual check
        # catches it (max|b - A x| is of order one).
        rng = np.random.default_rng(3)
        u = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        a = u @ u.conj().T
        sys = HarmonicSystem(matrix=a, rhs=rng.normal(size=6) + 0j)
        with pytest.raises(NumericallySingular):
            solve(sys)

    def test_superposition_power_of_two_exact(self, desk_specs):
        net = one_port_net(desk_specs, 0.05, 23.2e3)
        sys = assemble(net, HarmonicBasis(23.2e3, 3), 2.68e6)
        x1 = solve(sys)
        sys4 = HarmonicSystem(matrix=sys.matrix, rhs=4.0 * sys.rhs)
        assert np.array_equal(solve(sys4), 4.0 * x1)


class TestOnePortAgainstClosedForm:
    def test_input_admittance_matches_bvd(self, ghz_specs):
        model = bvd_from_specs(ghz_specs)
        net = one_port_net(ghz_specs, 0.0, F_MOD)
        basis = HarmonicBasis(F_MOD, 3)
        for f in (model.branches[0].f_s, 2.68e9, 2.7e9):
            s11 = sparams(net, basis, [f]).s0[0, 0, 0]
            y_htm = (1.0 - s11) / ((1.0 + s11) * 50.0)
            y_ref = admittance(model, f)
            assert abs(y_htm - y_ref) <= 1e-9 * abs(y_ref)


class TestStaticRlcAgainstClosedForm:
    def test_series_r_into_parallel_lc(self):
        # port -> R -> node, L || C from node to ground
        r, l, c, z0 = 20.0, 10e-9, 1e-12, 50.0
        net = Netlist((Port(1, "p1", z0), Resistor("r1", "p1", "n1", r),
                       Inductor("l1", "n1", "0", l), Capacitor("c1", "n1", "0", c)))
        freqs = np.array([0.5e9, 1.2e9, 1.59e9, 1.6e9, 2.5e9])
        s11 = sparams(net, HarmonicBasis(F_MOD, 2), freqs).s0[:, 0, 0]
        w = 2.0 * np.pi * freqs
        z = r + 1.0 / (1.0 / (1j * w * l) + 1j * w * c)
        ref = (z - z0) / (z + z0)
        assert np.all(np.abs(s11 - ref) <= 1e-12 * np.abs(ref))


class TestStampedOnce:
    def test_per_netlist_work_once_per_sweep(self, differential_design, monkeypatch):
        # the floating-node check runs once, when the netlist is built, and
        # never inside sparams (counted under htm's name too, had it one)
        calls = {"elastance_fourier": 0, "floating_nodes": 0}
        for module, name in ((htm, "elastance_fourier"), (netlist, "floating_nodes"),
                             (htm, "floating_nodes")):
            original = getattr(module, name, netlist.floating_nodes)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted, raising=False)
        net = build_circulator(differential_design)
        assert calls == {"elastance_fourier": 0, "floating_nodes": 1}
        sparams(net, HarmonicBasis(F_MOD, 3), np.linspace(2.66e9, 2.69e9, 50))
        assert calls == {"elastance_fourier": len(net.modulated), "floating_nodes": 1}


class TestSparams:
    def test_static_has_no_sidebands(self, ghz_specs):
        design = CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs, delta=0.0, f_mod=F_MOD)
        grid = sparams(build_circulator(design), HarmonicBasis(F_MOD, 3), [2.68e9])
        for n in (-3, -2, -1, 1, 2, 3):
            assert np.max(np.abs(grid.harmonic(n)[0])) <= 1e-12

    def test_static_reciprocity_random_freqs(self, ghz_specs):
        design = CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs, delta=0.0, f_mod=F_MOD)
        net = build_circulator(design)
        rng = np.random.default_rng(2)
        freqs = rng.uniform(2.4e9, 2.9e9, 100)
        grid = sparams(net, HarmonicBasis(F_MOD, 1), freqs)
        s0 = grid.s0
        assert np.max(np.abs(s0 - np.transpose(s0, (0, 2, 1)))) <= 1e-9

    def test_static_equal_split(self, ghz_specs):
        design = CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs, delta=0.0, f_mod=F_MOD)
        grid = sparams(build_circulator(design), HarmonicBasis(F_MOD, 2),
                       np.linspace(2.6e9, 2.76e9, 11))
        s0 = grid.s0
        assert np.max(np.abs(np.abs(s0[:, 1, 0]) - np.abs(s0[:, 2, 0]))) <= 1e-9

    @pytest.mark.parametrize("topology", [Topology.SINGLE_ENDED, Topology.DIFFERENTIAL])
    def test_forward_reverse_transpose(self, ghz_specs, topology):
        fwd = CirculatorDesign(topology, ghz_specs, delta=0.03, f_mod=F_MOD)
        rev = replace(fwd, phase_sequence=PhaseSequence.REVERSE)
        basis = HarmonicBasis(F_MOD, 5)
        freqs = np.linspace(2.66e9, 2.69e9, 7)
        s_f = sparams(build_circulator(fwd), basis, freqs).s0
        s_r = sparams(build_circulator(rev), basis, freqs).s0
        assert np.max(np.abs(s_f - np.transpose(s_r, (0, 2, 1)))) <= 1e-9

    def test_modulated_s0_is_circulant(self, ghz_specs):
        # cyclic port rotation + modulation time shift leaves harmonic 0 invariant
        design = CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs, delta=0.03, f_mod=F_MOD)
        s0 = sparams(build_circulator(design), HarmonicBasis(F_MOD, 5), [2.6694e9]).s0[0]
        for q in range(3):
            for p in range(3):
                assert s0[q, p] == pytest.approx(s0[(q + 1) % 3, (p + 1) % 3], rel=1e-9)

    def test_passivity_random_points(self, ghz_specs):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 50:
            delta = rng.uniform(0.0, 0.05)
            topo = Topology.DIFFERENTIAL if rng.random() < 0.5 else Topology.SINGLE_ENDED
            design = CirculatorDesign(topo, ghz_specs, delta=float(delta), f_mod=F_MOD)
            net = build_circulator(design)
            f = float(rng.uniform(2.5e9, 2.9e9))
            grid = sparams(net, HarmonicBasis(F_MOD, 5), [f])
            p_in = int(rng.integers(0, 3))
            total = float(np.sum(np.abs(grid.data[0, :, :, p_in]) ** 2))
            assert total <= 1.0 + 1e-9
            checked += 1

    def test_harmonic_conjugate_mirror(self, desk_specs):
        # response at stimulus -f is the conjugate mirror of the response at +f
        net = one_port_net(desk_specs, 0.05, 23.2e3, phase=0.7)
        basis = HarmonicBasis(23.2e3, 3)
        f = 2.68e6
        s_pos = _s_harmonics(net, basis, f)
        s_neg = _s_harmonics(net, basis, -f)
        for n in range(-basis.n_harm, basis.n_harm + 1):
            assert s_neg[n] == pytest.approx(s_pos[-n].conjugate(), abs=1e-9)

    def test_columns_match_single_port_solves(self, differential_design):
        # all-ports extraction agrees with the public assemble/solve path
        net = build_circulator(differential_design)
        basis = HarmonicBasis(F_MOD, 5)
        f = 2.6694e9
        s = sparams(net, basis, [f]).data[0]
        sqrt_z0 = np.sqrt([port.z0 for port in net.ports])
        for p in (1, 2, 3):
            b = _port_voltages(net, basis, f, p) / sqrt_z0
            b[basis.n_harm, p - 1] -= 1.0
            assert np.max(np.abs(s[:, :, p - 1] - b)) <= 1e-12

    def test_f_mod_mismatch_rejected(self, differential_design):
        net = build_circulator(differential_design)
        with pytest.raises(ValueError):
            sparams(net, HarmonicBasis(2.0 * F_MOD, 3), [2.68e9])
        st = htm.Stamped(net)  # remodulated at 2 f_mod, solved at f_mod
        st.modulate([replace(m, f_mod=2.0 * F_MOD) for m in st.modulations[0]])
        assert st.f_mod == (2.0 * F_MOD,)
        with pytest.raises(ValueError, match="does not match"):
            sparams(st, HarmonicBasis(F_MOD, 3), [2.68e9])

    def test_bad_frequencies_rejected(self, differential_design):
        net = build_circulator(differential_design)
        basis = HarmonicBasis(F_MOD, 3)
        with pytest.raises(ValueError):
            sparams(net, basis, [])
        with pytest.raises(ValueError):
            sparams(net, basis, [-2.68e9])


def _static_rlc():
    # port -> R -> node, L || C from node to ground: no modulated branch
    net = Netlist((Port(1, "p1", 50.0), Resistor("r1", "p1", "n1", 20.0),
                   Inductor("l1", "n1", "0", 10e-9), Capacitor("c1", "n1", "0", 1e-12)))
    return net, F_MOD, [0.5e9, 1.59e9, 2.5e9]


def _circulator(topology, delta):
    def case():
        design = CirculatorDesign(topology, GHZ_SPECS, delta=delta, f_mod=F_MOD)
        return build_circulator(design), F_MOD, [2.66e9, 2.6694e9, 2.68e9]
    return case


# netlist, f_mod and stimulus frequencies of each block-engine coverage case
ENGINE_CASES = {
    "no-modulated-branch": _static_rlc,
    "depth-zero": _circulator(Topology.DIFFERENTIAL, 0.0),
    "single-ended": _circulator(Topology.SINGLE_ENDED, 0.03),
    "differential": _circulator(Topology.DIFFERENTIAL, 0.03),
    "one-port": lambda: (one_port_net(DESK_SPECS, 0.05, 23.2e3), 23.2e3,
                         [2.6e6, 2.68e6, 2.75e6]),
    "toy-wye": lambda: (toy_wye_net(DESK_SPECS, 0.05, 23.2e3), 23.2e3,
                        [2.6e6, 2.68e6, 2.75e6]),
}


class TestBlockEngine:
    @staticmethod
    def _dense(net, basis, f):
        """S^(n) of one point from the dense harmonic matrix, shape (harmonic, q, p)."""
        st = htm.Stamped(net)
        x = htm._solve(htm._lift(st, st.m[0], basis, f), htm._excitation(st, basis))
        s = x.reshape(basis.size, st.nu, -1)[:, st.port_rows] / np.sqrt(
            [p.z0 for p in st.ports])[:, None]
        s[basis.n_harm] -= np.eye(len(st.ports))
        return s

    def test_points_independent_of_grid(self, differential_design):
        net = build_circulator(replace(differential_design, delta=0.03))
        basis = HarmonicBasis(F_MOD, 5)
        nu = htm.Stamped(net).nu
        freqs = np.linspace(2.65e9, 2.70e9, 3 * htm.CHUNK_VALUES // (basis.size * nu * nu) + 5)
        grid = sparams(net, basis, freqs).data
        shifted = sparams(net, basis, freqs[3:]).data
        assert np.array_equal(grid[3:], shifted)
        for i in (0, 1, len(freqs) // 2, len(freqs) - 1):
            assert np.array_equal(grid[i], sparams(net, basis, [freqs[i]]).data[0])

    def test_failed_point_falls_back_to_dense(self, differential_design, monkeypatch):
        net = build_circulator(replace(differential_design, delta=0.03))
        basis = HarmonicBasis(F_MOD, 5)
        freqs = np.linspace(2.66e9, 2.68e9, 9)
        clean = sparams(net, basis, freqs).data
        eliminate = htm._eliminate

        def corrupted(*args):
            x = eliminate(*args)
            x[4] *= 1.0 + 1e-3
            return x

        monkeypatch.setattr(htm, "_eliminate", corrupted)
        grid = sparams(net, basis, freqs).data
        assert np.array_equal(grid[4], self._dense(net, basis, freqs[4]))
        others = np.arange(len(freqs)) != 4
        assert np.array_equal(grid[others], clean[others])

    def test_singular_block_sends_only_its_point_to_dense(self, differential_design,
                                                          monkeypatch):
        # LAPACK meets an exactly singular block at point 17: that point comes
        # out non-finite and alone goes to the dense solve (as singular a
        # matrix as its blocks are here only in this test's solve)
        net = build_circulator(replace(differential_design, delta=0.03))
        basis = HarmonicBasis(F_MOD, 5)
        freqs = np.linspace(2.66e9, 2.68e9, 30)
        clean = sparams(net, basis, freqs).data
        port_waves, gesv, solve = htm._port_waves, htm._gesv, htm._solve
        dense = []

        def one_singular_point(st, basis, chunk, *rest):
            def singular(a, b, **kwargs):
                a = a.copy()
                a[chunk == freqs[17]] = 0.0
                return gesv(a, b, **kwargs)

            monkeypatch.setattr(htm, "_gesv", singular)
            return port_waves(st, basis, chunk, *rest)

        def counted(a, b):
            dense.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(htm, "_port_waves", one_singular_point)
        monkeypatch.setattr(htm, "_solve", counted)
        grid = sparams(net, basis, freqs).data
        assert len(dense) == 1
        assert np.array_equal(grid[17], self._dense(net, basis, freqs[17]))
        others = np.arange(len(freqs)) != 17
        assert np.array_equal(grid[others], clean[others])

    def test_non_finite_point_falls_back_to_dense(self, differential_design, monkeypatch):
        net = build_circulator(differential_design)
        basis = HarmonicBasis(F_MOD, 3)
        eliminate = htm._eliminate

        def corrupted(*args):
            x = eliminate(*args)
            x[0, 0, 0, 0] = np.inf
            return x

        monkeypatch.setattr(htm, "_eliminate", corrupted)
        grid = sparams(net, basis, [2.67e9]).data
        assert np.array_equal(grid[0], self._dense(net, basis, 2.67e9))

    @pytest.mark.parametrize("n_harm", [1, 5, 20])
    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    def test_matches_dense_without_fallback(self, case, n_harm, monkeypatch):
        net, f_mod, freqs = ENGINE_CASES[case]()
        basis = HarmonicBasis(f_mod, n_harm)
        dense = [self._dense(net, basis, f) for f in freqs]
        solves = []
        solve = htm._solve

        def counted(a, b):
            solves.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(htm, "_solve", counted)
        grid = sparams(net, basis, freqs).data
        assert solves == []  # every point passed the blockwise residual check
        for i in range(len(freqs)):
            assert np.max(np.abs(grid[i] - dense[i])) <= 1e-11

    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    def test_coupling_confined_to_currents_by_charges(self, case):
        net = ENGINE_CASES[case]()[0]
        st = htm.Stamped(net)
        assert st.nb == len(net.modulated)
        assert st.nu - 2 * st.nb == len(net.nodes) - 1
        cur, chg = htm._coupling(st)
        outside = st.m.copy()
        outside[..., cur, chg] = 0.0
        assert not np.any(outside)

    def test_singular_on_both_paths_raises(self):
        # a node tied to ground only by a zero capacitor: every block and the
        # dense matrix have a zero row
        net = Netlist((Port(1, "p1", 50.0), Resistor("r1", "p1", "0", 10.0),
                       Capacitor("c0", "n1", "0", 0.0)))
        with pytest.raises(NumericallySingular):
            sparams(net, HarmonicBasis(F_MOD, 2), [1.0e9, 1.1e9])


# (delta, f_mod, f_op) of a batch whose points each have their own modulation
BATCH = [(0.03, 23.2e6, 2.67e9), (0.01, 20e6, 2.66e9), (0.08, 27e6, 2.68e9), (0.0, 23e6, 2.65e9)]


class TestBatch:
    """One elimination solves K points that each have their own modulation."""

    @staticmethod
    def _batch(design, points):
        st = htm.Stamped(build_circulator(design))
        st.modulate(*([replace(m, depth=delta, f_mod=f_mod) for m in st.modulations[0]]
                      for delta, f_mod, _ in points))
        return st, HarmonicBasis(tuple(f_mod for _, f_mod, _ in points), 5)

    @staticmethod
    def _alone(design, point):
        delta, f_mod, f_op = point
        net = build_circulator(replace(design, delta=delta, f_mod=f_mod))
        return net, HarmonicBasis(f_mod, 5), f_op

    def test_each_point_has_the_bits_of_its_own_solve(self, differential_design):
        st, basis = self._batch(differential_design, BATCH)
        grid = sparams(st, basis, [f_op for _, _, f_op in BATCH])
        assert st.f_mod == basis.f_mod
        for k, point in enumerate(BATCH):
            net, one, f_op = self._alone(differential_design, point)
            assert grid.data[k].tobytes() == sparams(net, one, [f_op]).data[0].tobytes()

    def test_dense_fallback_of_one_point_keeps_every_bit(self, differential_design,
                                                         monkeypatch):
        # point 2 fails its residual check, in the batch and alone: only it
        # goes to the dense solve, at its own modulation and basis
        port_waves, eliminate, solve = htm._port_waves, htm._eliminate, htm._solve
        bad = BATCH[2][2]
        dense = []

        def corrupt_bad(st, basis, freqs, *rest):
            def corrupted(*args):
                x = eliminate(*args)
                x[freqs == bad] *= 1.0 + 1e-3
                return x

            monkeypatch.setattr(htm, "_eliminate", corrupted)
            return port_waves(st, basis, freqs, *rest)

        def counted(a, b):
            dense.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(htm, "_port_waves", corrupt_bad)
        monkeypatch.setattr(htm, "_solve", counted)
        st, basis = self._batch(differential_design, BATCH)
        grid = sparams(st, basis, [f_op for _, _, f_op in BATCH])
        assert len(dense) == 1
        for k, point in enumerate(BATCH):
            net, one, f_op = self._alone(differential_design, point)
            assert grid.data[k].tobytes() == sparams(net, one, [f_op]).data[0].tobytes()
        assert len(dense) == 2
        net, one, f_op = self._alone(differential_design, BATCH[2])
        assert np.array_equal(grid.data[2], TestBlockEngine._dense(net, one, f_op))

    def test_degenerate_point_checked_at_its_own_f_mod(self, differential_design):
        # 3 x 20 MHz degenerates only at the second point's f_mod
        points = [(0.03, 23.2e6, 60e6), (0.03, 20e6, 60e6)]
        st, basis = self._batch(differential_design, points)
        with pytest.raises(DegenerateStimulus, match="3 x f_mod"):
            sparams(st, basis, [60e6, 60e6])
        st, basis = self._batch(differential_design, points[:1])
        assert np.all(np.isfinite(sparams(st, basis, [60e6]).data))

    def test_batch_size_must_match_the_grid(self, differential_design):
        st, basis = self._batch(differential_design, BATCH[:2])
        with pytest.raises(ValueError, match="3 stimulus frequencies need .* got 2 and 2"):
            sparams(st, basis, [2.66e9, 2.67e9, 2.68e9])
        with pytest.raises(ValueError, match="does not match"):
            sparams(st, HarmonicBasis((23.2e6, 23.2e6), 5), [2.66e9, 2.67e9])


class TestConvergence:
    def test_static_exactly_zero(self, ghz_specs):
        design = CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs, delta=0.0, f_mod=F_MOD)
        net = build_circulator(design)
        assert convergence_check(net, 2.68e9, 3, 5) == 0.0

    def test_small_depth_converged(self, ghz_specs, monkeypatch):
        design = CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs, delta=0.01, f_mod=F_MOD)
        net = build_circulator(design)
        stamps = count_stamps(monkeypatch)
        assert convergence_check(net, 2.68e9, 3, 5) <= 1e-4
        assert stamps == [net]  # both orders solve one stamp

    def test_extreme_depth_reported(self, ghz_specs):
        design = CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs, delta=0.5, f_mod=F_MOD)
        net = build_circulator(design)
        value = convergence_check(net, 2.68e9, 3, 5)
        assert value >= 0.0 and math.isfinite(value)

    def test_bad_orders_rejected(self, differential_design):
        net = build_circulator(differential_design)
        with pytest.raises(ValueError):
            convergence_check(net, 2.68e9, 0, 2)
        with pytest.raises(ValueError):
            convergence_check(net, 2.68e9, 5, 3)
