import math
from dataclasses import replace

import numpy as np
import pytest

from fbarcirc import htm
from fbarcirc.bvd import admittance, bvd_from_specs
from fbarcirc.htm import (DegenerateStimulus, HarmonicBasis, HarmonicSystem,
                          NumericallySingular, SingularStructure, assemble,
                          convergence_check, solve, sparams)
from fbarcirc.netlist import (Capacitor, CirculatorDesign, Inductor, Netlist,
                              PhaseSequence, Port, Resistor, Topology, build_circulator)

from conftest import one_port_net

F_MOD = 23.2e6


def _port_voltages(net, basis, f, port=1):
    """Port node voltages via the public assemble/solve, shape (harmonic, port)."""
    st = htm._stamp(net)
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
        net = Netlist((Resistor("r1", "a", "b", 10.0), Port(1, "p1", 50.0),
                       Resistor("r2", "p1", "0", 10.0)))
        with pytest.raises(SingularStructure):
            assemble(net, HarmonicBasis(F_MOD, 1), 1e9)

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
        net = build_circulator(differential_design)
        calls = {"elastance_fourier": 0, "floating_nodes": 0}
        for name in calls:
            original = getattr(htm, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(htm, name, counted)
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

    def test_bad_frequencies_rejected(self, differential_design):
        net = build_circulator(differential_design)
        basis = HarmonicBasis(F_MOD, 3)
        with pytest.raises(ValueError):
            sparams(net, basis, [])
        with pytest.raises(ValueError):
            sparams(net, basis, [-2.68e9])


class TestConvergence:
    def test_static_exactly_zero(self, ghz_specs):
        design = CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs, delta=0.0, f_mod=F_MOD)
        net = build_circulator(design)
        assert convergence_check(net, 2.68e9, 3, 5) == 0.0

    def test_small_depth_converged(self, ghz_specs):
        design = CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs, delta=0.01, f_mod=F_MOD)
        net = build_circulator(design)
        assert convergence_check(net, 2.68e9, 3, 5) <= 1e-4

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
