import math
from dataclasses import replace

import numpy as np
import pytest

from fbarcirc.bvd import admittance, bvd_from_specs
from fbarcirc.htm import (DegenerateStimulus, HarmonicBasis, HarmonicSystem,
                          NumericallySingular, SingularStructure, assemble,
                          convergence_check, solve, sparams)
from fbarcirc.netlist import (CirculatorDesign, Netlist, PhaseSequence, Port,
                              Resistor, Topology, build_differential,
                              build_single_ended)

from conftest import one_port_net

F_MOD = 23.2e6


def _s_harmonics(net, basis, f, port=1):
    """Wave amplitudes b_n at the (single) port via the public assemble/solve."""
    sol = solve(assemble(net, basis, f, excited_port=port))
    node = net.ports[port - 1].node
    z0 = net.ports[port - 1].z0
    out = {}
    for n in basis.harmonics():
        b = sol.voltage(node, n) / math.sqrt(z0)
        if n == 0:
            b -= 1.0
        out[n] = b
    return out


class TestAssemble:
    def test_dimension_single_ended(self, single_ended_design):
        net = build_single_ended(single_ended_design)
        sys = assemble(net, HarmonicBasis(F_MOD, 5), 2.68e9)
        # 4 non-ground nodes + 3 branch currents + 3 charges = 10 per harmonic
        assert len(sys.variables) == 10
        assert sys.dimension == 110
        assert sys.matrix.shape == (110, 110)

    def test_static_block_diagonal_identical_patterns(self, ghz_specs):
        design = CirculatorDesign(Topology.SINGLE_ENDED, ghz_specs, delta=0.0, f_mod=F_MOD)
        net = build_single_ended(design)
        basis = HarmonicBasis(F_MOD, 2)
        sys = assemble(net, basis, 2.7e9)
        nu = len(sys.variables)
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
        sys = assemble(net, HarmonicBasis(23.2e3, 1), 2.68e6)
        nu = len(sys.variables)
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

    def test_inband_multiple_is_fine(self, ghz_specs):
        # 115 x f_mod lies in the operating band and zeroes no mixing frequency
        net = one_port_net(ghz_specs, 0.02, F_MOD)
        sys = assemble(net, HarmonicBasis(F_MOD, 5), 115.0 * F_MOD)
        assert sys.dimension == 11 * len(sys.variables)

    def test_unknown_port_rejected(self, desk_specs):
        net = one_port_net(desk_specs, 0.0, 23.2e3)
        with pytest.raises(ValueError):
            assemble(net, HarmonicBasis(23.2e3, 1), 1e6, excited_port=7)


class TestSolve:
    def test_identity_returns_rhs(self):
        rhs = np.array([1.0 + 2j, -0.5j, 3.0])
        sys = HarmonicSystem(matrix=np.eye(3, dtype=complex), rhs=rhs.copy(),
                             variables=("v:a",), basis=HarmonicBasis(1e6, 1), f=5e5)
        sol = solve(sys)
        assert np.array_equal(sol.x, rhs)

    def test_matches_numpy_on_random_systems(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a *= 10.0 ** rng.integers(-3, 4, size=(n, 1))
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            sys = HarmonicSystem(matrix=a, rhs=b,
                                 variables=tuple(f"v:{i}" for i in range(n)),
                                 basis=HarmonicBasis(1e6, 1), f=1.0)
            assert np.allclose(solve(sys).x, np.linalg.solve(a, b), rtol=1e-8, atol=1e-12)

    def test_residual_contract_on_assembled_system(self, differential_design):
        net = build_differential(replace(differential_design, delta=0.03))
        sys = assemble(net, HarmonicBasis(F_MOD, 5), 2.6694e9)
        x = solve(sys).x
        resid = np.max(np.abs(sys.matrix @ x - sys.rhs)) / np.max(np.abs(sys.rhs))
        assert resid <= 1e-9

    def test_singular_matrix_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        sys = HarmonicSystem(matrix=a, rhs=np.ones(2, dtype=complex),
                             variables=("v:a", "v:b"),
                             basis=HarmonicBasis(1e6, 1), f=1.0)
        with pytest.raises(NumericallySingular):
            solve(sys)

    def test_rank_deficient_matrix_raises(self):
        # LAPACK factors this without a zero pivot; only the residual check
        # catches it (max|b - A x| is of order one).
        rng = np.random.default_rng(3)
        u = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        a = u @ u.conj().T
        sys = HarmonicSystem(matrix=a, rhs=rng.normal(size=6) + 0j,
                             variables=tuple(f"v:{i}" for i in range(6)),
                             basis=HarmonicBasis(1e6, 1), f=1.0)
        with pytest.raises(NumericallySingular):
            solve(sys)

    def test_superposition_power_of_two_exact(self, desk_specs):
        net = one_port_net(desk_specs, 0.05, 23.2e3)
        sys = assemble(net, HarmonicBasis(23.2e3, 3), 2.68e6)
        x1 = solve(sys).x
        sys4 = HarmonicSystem(matrix=sys.matrix, rhs=4.0 * sys.rhs,
                              variables=sys.variables, basis=sys.basis, f=sys.f)
        assert np.array_equal(solve(sys4).x, 4.0 * x1)


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


class TestSparams:
    def test_static_has_no_sidebands(self, ghz_specs):
        design = CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs, delta=0.0, f_mod=F_MOD)
        grid = sparams(build_differential(design), HarmonicBasis(F_MOD, 3), [2.68e9])
        for n in (-3, -2, -1, 1, 2, 3):
            assert np.max(np.abs(grid.harmonic(n)[0])) <= 1e-12

    def test_static_reciprocity_random_freqs(self, ghz_specs):
        design = CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs, delta=0.0, f_mod=F_MOD)
        net = build_differential(design)
        rng = np.random.default_rng(2)
        freqs = rng.uniform(2.4e9, 2.9e9, 100)
        grid = sparams(net, HarmonicBasis(F_MOD, 1), freqs)
        s0 = grid.s0
        assert np.max(np.abs(s0 - np.transpose(s0, (0, 2, 1)))) <= 1e-9

    def test_static_equal_split(self, ghz_specs):
        design = CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs, delta=0.0, f_mod=F_MOD)
        grid = sparams(build_differential(design), HarmonicBasis(F_MOD, 2),
                       np.linspace(2.6e9, 2.76e9, 11))
        s0 = grid.s0
        assert np.max(np.abs(np.abs(s0[:, 1, 0]) - np.abs(s0[:, 2, 0]))) <= 1e-9

    @pytest.mark.parametrize("topology", [Topology.SINGLE_ENDED, Topology.DIFFERENTIAL])
    def test_forward_reverse_transpose(self, ghz_specs, topology):
        build = build_single_ended if topology is Topology.SINGLE_ENDED else build_differential
        fwd = CirculatorDesign(topology, ghz_specs, delta=0.03, f_mod=F_MOD)
        rev = replace(fwd, phase_sequence=PhaseSequence.REVERSE)
        basis = HarmonicBasis(F_MOD, 5)
        freqs = np.linspace(2.66e9, 2.69e9, 7)
        s_f = sparams(build(fwd), basis, freqs).s0
        s_r = sparams(build(rev), basis, freqs).s0
        assert np.max(np.abs(s_f - np.transpose(s_r, (0, 2, 1)))) <= 1e-9

    def test_modulated_s0_is_circulant(self, ghz_specs):
        # cyclic port rotation + modulation time shift leaves harmonic 0 invariant
        design = CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs, delta=0.03, f_mod=F_MOD)
        s0 = sparams(build_differential(design), HarmonicBasis(F_MOD, 5), [2.6694e9]).s0[0]
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
            net = (build_differential if topo is Topology.DIFFERENTIAL else build_single_ended)(design)
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
        for n in basis.harmonics():
            assert s_neg[n] == pytest.approx(s_pos[-n].conjugate(), abs=1e-9)

    def test_columns_match_single_port_solves(self, differential_design):
        # all-ports extraction agrees with the public assemble/solve path
        net = build_differential(differential_design)
        basis = HarmonicBasis(F_MOD, 5)
        f = 2.6694e9
        s = sparams(net, basis, [f]).data[0]
        for p in (1, 2, 3):
            sol = solve(assemble(net, basis, f, excited_port=p))
            for q, port in enumerate(net.ports):
                for n in basis.harmonics():
                    b = sol.voltage(port.node, n) / math.sqrt(port.z0)
                    if n == 0 and q == p - 1:
                        b -= 1.0
                    assert abs(s[n + basis.n_harm, q, p - 1] - b) <= 1e-12

    def test_f_mod_mismatch_rejected(self, differential_design):
        net = build_differential(differential_design)
        with pytest.raises(ValueError):
            sparams(net, HarmonicBasis(2.0 * F_MOD, 3), [2.68e9])

    def test_bad_frequencies_rejected(self, differential_design):
        net = build_differential(differential_design)
        basis = HarmonicBasis(F_MOD, 3)
        with pytest.raises(ValueError):
            sparams(net, basis, [])
        with pytest.raises(ValueError):
            sparams(net, basis, [-2.68e9])


class TestConvergence:
    def test_static_exactly_zero(self, ghz_specs):
        design = CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs, delta=0.0, f_mod=F_MOD)
        net = build_differential(design)
        assert convergence_check(net, 2.68e9, 3, 5) == 0.0

    def test_small_depth_converged(self, ghz_specs):
        design = CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs, delta=0.01, f_mod=F_MOD)
        net = build_differential(design)
        assert convergence_check(net, 2.68e9, 3, 5) <= 1e-4

    def test_extreme_depth_reported(self, ghz_specs):
        design = CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs, delta=0.5, f_mod=F_MOD)
        net = build_differential(design)
        value = convergence_check(net, 2.68e9, 3, 5)
        assert value >= 0.0 and math.isfinite(value)

    def test_bad_orders_rejected(self, differential_design):
        net = build_differential(differential_design)
        with pytest.raises(ValueError):
            convergence_check(net, 2.68e9, 0, 2)
        with pytest.raises(ValueError):
            convergence_check(net, 2.68e9, 5, 3)
