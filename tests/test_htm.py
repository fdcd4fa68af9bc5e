import math
import warnings

import numpy as np
import pytest

from fbarcirc import htm, netlist, replace
from fbarcirc.bvd import MotionalBranch, admittance, bvd_from_specs
from fbarcirc.htm import (DegenerateStimulus, HarmonicBasis, HarmonicSystem,
                          NumericallySingular, assemble, convergence_check, solve,
                          sparams)
from fbarcirc.netlist import (Capacitor, CirculatorDesign, Inductor, ModulatedSeriesRlc,
                              ModulationSpec, Netlist, NetlistError, PhaseSequence, Port,
                              Resistor, Topology, build_circulator)

from conftest import (DESK_SPECS, GHZ_SPECS, count_stamps, one_port_net, scalar_stamps,
                      toy_wye_net)

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
        # never inside sparams (counted under htm's name too, had it one);
        # the elastance terms are written once, when sparams stamps it
        calls = {"modulate": 0, "floating_nodes": 0}
        for owner, name in ((htm.Stamped, "modulate"), (netlist, "floating_nodes"),
                            (htm, "floating_nodes")):
            original = getattr(owner, name, netlist.floating_nodes)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted, raising=False)
        net = build_circulator(differential_design)
        assert calls == {"modulate": 0, "floating_nodes": 1}
        sparams(net, HarmonicBasis(F_MOD, 3), np.linspace(2.66e9, 2.69e9, 50))
        assert calls == {"modulate": 1, "floating_nodes": 1}


class TestHarmonicBasis:
    # True once passed, then sparams raised IndexError; a float failed deep in numpy
    @pytest.mark.parametrize("n_harm", [True, 2.5, 3.0])
    def test_n_harm_must_be_an_integer(self, n_harm):
        with pytest.raises(ValueError, match="n_harm must be an integer"):
            HarmonicBasis(F_MOD, n_harm)

    def test_numpy_integer_n_harm_solves_as_an_int(self, ghz_specs):
        net = build_circulator(CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs, delta=0.03,
                                                f_mod=F_MOD))
        grids = [sparams(net, HarmonicBasis(F_MOD, n), [2.68e9]) for n in (np.int64(2), 2)]
        assert np.array_equal(grids[0].data, grids[1].data)


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
        # a netlist carries its own f_mod: every point of the basis must share it
        net = build_circulator(differential_design)
        with pytest.raises(ValueError, match="does not match"):
            sparams(net, HarmonicBasis(2.0 * F_MOD, 3), [2.68e9])
        with pytest.raises(ValueError, match=f"{F_MOD} Hz does not match basis {2.0 * F_MOD} Hz"):
            sparams(net, HarmonicBasis((F_MOD, 2.0 * F_MOD, F_MOD), 3), [2.66e9, 2.67e9, 2.68e9])
        grid = sparams(net, HarmonicBasis((F_MOD, F_MOD), 3), [2.66e9, 2.67e9])
        assert grid.data.tobytes() == sparams(net, HarmonicBasis(F_MOD, 3),
                                              [2.66e9, 2.67e9]).data.tobytes()

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

    @pytest.mark.parametrize("term", [0, 2], ids=["upper", "lower"])
    @pytest.mark.parametrize("case", ["one-port", "toy-wye", "single-ended", "differential"])
    def test_residual_check_reads_each_coupling_term(self, case, term):
        # the check forms the coupling terms from the diagonal of the
        # (currents, charges) block, the only entries modulate writes: it
        # passes the solution, and fails it against stamps whose term
        # differs by 1e-3
        net, f_mod, freqs = ENGINE_CASES[case]()
        st = htm.Stamped(net)
        basis = HarmonicBasis(f_mod, 3)
        freqs = np.array(freqs)
        cur, chg = htm._coupling(st)
        off_diagonal = st.m[..., cur, chg] * (1.0 - np.eye(st.nb))
        assert not np.any(off_diagonal)
        m = np.broadcast_to(st.m, freqs.shape + st.m.shape[1:])
        b, bound = st.excitation(basis)
        d = htm._diagonal(st, htm.TWO_PI * basis.mixing_freqs(freqs[:, None]), m)
        x = htm._eliminate(st, m, d, b)
        assert htm._accepted(st, m, d, b, x, bound).all()
        skewed = m.copy()
        skewed[:, term, cur, chg] *= 1.0 + 1e-3
        assert not htm._accepted(st, skewed, d, b, x, bound).any()

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
        st.modulate(*([delta] * st.nb for delta, _, _ in points))
        return st, HarmonicBasis(tuple(f_mod for _, f_mod, _ in points), 5)

    @staticmethod
    def _alone(design, point):
        delta, f_mod, f_op = point
        net = build_circulator(replace(design, delta=delta, f_mod=f_mod))
        return net, HarmonicBasis(f_mod, 5), f_op

    def test_each_point_has_the_bits_of_its_own_solve(self, differential_design):
        st, basis = self._batch(differential_design, BATCH)
        grid = sparams(st, basis, [f_op for _, _, f_op in BATCH])
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
        with pytest.raises(ValueError, match="2 stimulus frequencies need .* got 2 and 3"):
            sparams(st, HarmonicBasis((23.2e6, 23.2e6, 23.2e6), 5), [2.66e9, 2.67e9])


class TestChunkedBatch:
    def test_dense_fallback_past_the_first_chunk_uses_its_own_basis(self, differential_design,
                                                                    monkeypatch):
        # 30 points with their own f_mod span three chunks; point 20, in the
        # second, fails its residual check and is solved densely at its own
        # f_mod, not at that of the 20th point of its chunk's grid
        points = [((0.01, 0.0, 0.05)[k % 3], 20e6 + 0.3e6 * k, 2.65e9 + 1.3e6 * k)
                  for k in range(30)]
        port_waves, eliminate = htm._port_waves, htm._eliminate
        bad, chunks = points[20][2], []

        def corrupt_bad(st, basis, freqs, *rest):
            def corrupted(*args):
                x = eliminate(*args)
                x[freqs == bad] *= 1.0 + 1e-3
                return x

            chunks.append(len(freqs))
            monkeypatch.setattr(htm, "_eliminate", corrupted)
            return port_waves(st, basis, freqs, *rest)

        monkeypatch.setattr(htm, "_port_waves", corrupt_bad)
        st, basis = TestBatch._batch(differential_design, points)
        grid = sparams(st, basis, [f_op for _, _, f_op in points])
        assert len(chunks) == 3 and chunks[0] < 20 < sum(chunks[:2])
        monkeypatch.undo()
        for k, point in enumerate(points):
            net, one, f_op = TestBatch._alone(differential_design, point)
            expected = (TestBlockEngine._dense(net, one, f_op) if k == 20
                        else sparams(net, one, [f_op]).data[0])
            assert grid.data[k].tobytes() == expected.tobytes()


class TestModulate:
    """A remodulated stamp holds, bit for bit, what a fresh stamp of each
    point's netlist holds, and solves each point to the same bits."""

    @staticmethod
    def _assert_fresh(st, nets, f_mods, f_ops):
        # tobytes tells -0.0 from +0.0, which array_equal does not
        fresh = np.concatenate([htm.Stamped(net).m for net in nets])
        assert st.m.tobytes() == fresh.tobytes() == scalar_stamps(nets).tobytes()
        grid = sparams(st, HarmonicBasis(tuple(f_mods), 4), f_ops)
        for k, (net, f_mod, f_op) in enumerate(zip(nets, f_mods, f_ops)):
            alone = sparams(net, HarmonicBasis(f_mod, 4), [f_op]).data[0]
            assert grid.data[k].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("topology", [Topology.SINGLE_ENDED, Topology.DIFFERENTIAL])
    def test_multi_point_matches_fresh_stamps(self, ghz_specs, topology):
        design = CirculatorDesign(topology, ghz_specs, delta=0.07, f_mod=25e6)
        st = htm.Stamped(build_circulator(design))
        points = [(0.03, 23.2e6, 2.67e9), (0.0, 20e6, 2.66e9), (0.011, 31e6, 2.68e9),
                  (0.5, 27e6, 2.65e9)]
        st.modulate(*([delta] * st.nb for delta, _, _ in points))
        nets = [build_circulator(replace(design, delta=delta, f_mod=f_mod))
                for delta, f_mod, _ in points]
        self._assert_fresh(st, nets, [p[1] for p in points], [p[2] for p in points])

    @pytest.mark.parametrize("phase", [None, 0.7, -2.0, math.pi])
    def test_one_port_static_then_modulated(self, desk_specs, phase):
        # a stamp keeps its netlist's phase, 0 for a branch whose modulation
        # is None, at every depth it is given; a zero depth stamps as None does
        base = one_port_net(desk_specs, 0.05, 23.2e3)

        def with_mod(mod):
            return Netlist(tuple(replace(el, modulation=mod) if el in base.modulated else el
                                 for el in base.elements))

        ph = phase or 0.0
        static = with_mod(None if phase is None else ModulationSpec(0.0, 23.2e3, ph))
        st = htm.Stamped(static)
        self._assert_fresh(st, [static], [23.2e3], [2.68e6])
        st.modulate([0.05], [0.0], [0.0], [0.2])
        nets = [with_mod(ModulationSpec(0.05, 23.2e3, ph)), with_mod(None),
                with_mod(ModulationSpec(0.0, 21e3, ph)), with_mod(ModulationSpec(0.2, 25e3, ph))]
        self._assert_fresh(st, nets, [23.2e3, 23.2e3, 21e3, 25e3], [2.68e6, 2.6e6, 2.7e6, 2.75e6])

    def test_refuses_a_wrong_shape_or_depth(self, differential_design):
        st = htm.Stamped(build_circulator(differential_design))
        before = st.m.copy()
        with pytest.raises(ValueError, match=r"points of 6 depths, got shape \(1, 5\)"):
            st.modulate([0.01] * 5)
        with pytest.raises(ValueError, match=r"points of 6 depths, got shape \(0,\)"):
            st.modulate()
        with pytest.raises(ValueError, match=r"got shape \(2, 1, 6\)"):
            st.modulate([[0.01] * 6], [[0.02] * 6])
        for bad in (1.0, -1e-300, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"depth must lie in \[0, 1\)"):
                st.modulate([0.01] * 6, [0.01] * 5 + [bad])
        assert st.m.tobytes() == before.tobytes()

    def test_zero_depth_keeps_exact_zero_terms_where_g0_overflows(self):
        # 1/c_m of a subnormal c_m is inf, and 0 * inf is NaN: a zero depth
        # must still stamp +0 sidebands, without a floating-point warning; a
        # nonzero one stamps non-finite sidebands, silently, as Python's
        # complex arithmetic leaves them, for the solve to refuse
        branch = MotionalBranch(r_m=1.0, l_m=1e-8, c_m=1e-310)
        for mod in (None, ModulationSpec(0.0, F_MOD, 0.0), ModulationSpec(0.0, F_MOD, 2.5)):
            net = Netlist((ModulatedSeriesRlc("x1", "p1", "0", branch, mod), Port(1, "p1", 50.0)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                st = htm.Stamped(net)
                st.modulate([0.0], [0.0], [0.3])
            cur, chg = htm._coupling(st)
            terms = st.m[:, :, cur.start, chg.start]
            assert terms[:2, [0, 2]].tobytes() == np.zeros((2, 2), dtype=complex).tobytes()
            assert not np.any(np.isfinite(terms[2, [0, 2]]))
            assert np.all(terms[:, 1] == -math.inf)


def elastance_terms(branch, mod) -> np.ndarray:
    """[G_-1, G_0, G_+1] of one branch, as a fresh stamp of it holds them."""
    st = htm.Stamped(Netlist((ModulatedSeriesRlc("x1", "p1", "0", branch, mod),
                              Port(1, "p1", 50.0))))
    cur, chg = htm._coupling(st)
    return -st.m[0, :, cur.start, chg.start]


class TestElastanceTerms:
    BRANCH = MotionalBranch(r_m=1.07, l_m=4.5e-8, c_m=0.0802e-12)

    def test_static_only_dc_term(self):
        out = elastance_terms(self.BRANCH, ModulationSpec(0.0, 23.2e6, 1.0))
        assert out.shape == (3,)
        assert out[1] == pytest.approx(1.0 / 0.0802e-12, rel=1e-12)
        assert np.all(out[[0, 2]] == 0.0)
        none_out = elastance_terms(self.BRANCH, None)
        assert np.array_equal(out, none_out)

    def test_first_order_amplitude(self):
        # delta=0.01, phi=0: |G_1| = 0.005/0.0802e-12
        out = elastance_terms(self.BRANCH, ModulationSpec(0.01, 23.2e6, 0.0))
        assert out[2] == pytest.approx(6.234413965087282e10, rel=1e-12)
        assert out[0] == pytest.approx(6.234413965087282e10, rel=1e-12)
        assert out[1] == pytest.approx(1.0 / 0.0802e-12, rel=1e-12)

    def test_quadrature_phase(self):
        out = elastance_terms(self.BRANCH, ModulationSpec(0.01, 23.2e6, math.pi / 2))
        g1 = out[2]
        assert g1.real == pytest.approx(0.0, abs=1e-6 * abs(g1))
        assert g1.imag > 0.0

    def test_conjugate_symmetry_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mod = ModulationSpec(rng.uniform(0, 0.99), 1e6, rng.uniform(-10, 10))
            out = elastance_terms(self.BRANCH, mod)
            assert np.allclose(out[::-1].conj(), out, rtol=0, atol=0)


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
