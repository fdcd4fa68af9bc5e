import cmath
import math
import re
from dataclasses import dataclass, replace

import numpy as np
import pytest

from fbarcirc.bvd import MotionalBranch
from fbarcirc.htm import HarmonicBasis, sparams
from fbarcirc.netlist import (Capacitor, CirculatorDesign, Inductor, ModulatedSeriesRlc,
                              ModulationSpec, Netlist, NetlistError, PhaseSequence,
                              Port, Resistor, Topology, build_circulator,
                              elastance_fourier, read_netlist,
                              scale_frequency, write_netlist)

TWO_PI = 2.0 * math.pi


class TestBuilders:
    def test_single_ended_structure(self, single_ended_design):
        net = build_circulator(single_ended_design)
        assert net.nodes == {"0", "p1", "p2", "p3", "ca"}
        mods = net.modulated
        caps = [e for e in net.elements if isinstance(e, Capacitor)]
        assert len(mods) == 3 and len(caps) == 3 and len(net.ports) == 3
        assert len(net.elements) == 9
        for k, el in enumerate(mods):
            assert el.node_a == f"p{k + 1}"
            assert el.node_b == "ca"
            assert el.modulation.phase == pytest.approx(k * TWO_PI / 3.0)
        for k, cap in enumerate(caps):
            assert (cap.node_a, cap.node_b) == (f"p{k + 1}", "0")

    def test_common_node_floats(self, single_ended_design):
        net = build_circulator(single_ended_design)
        for el in net.elements:
            if isinstance(el, (Capacitor, Resistor)):
                assert not (el.node_a == "ca" and el.node_b == "0")
                assert not (el.node_a == "0" and el.node_b == "ca")

    def test_reverse_flips_phase_sign(self, single_ended_design):
        from dataclasses import replace
        fwd = build_circulator(single_ended_design)
        rev = build_circulator(replace(single_ended_design,
                                       phase_sequence=PhaseSequence.REVERSE))
        for ef, er in zip(fwd.modulated, rev.modulated):
            assert er.modulation.phase == pytest.approx(-ef.modulation.phase)

    def test_reverse_equals_port_swap_of_forward(self, single_ended_design):
        # reversal == permutation (1)(2 3) of the branch phases, up to 2*pi
        from dataclasses import replace
        fwd = {e.node_a: e.modulation.phase for e in build_circulator(single_ended_design).modulated}
        rev = {e.node_a: e.modulation.phase
               for e in build_circulator(replace(single_ended_design,
                                                 phase_sequence=PhaseSequence.REVERSE)).modulated}
        swap = {"p1": "p1", "p2": "p3", "p3": "p2"}
        for node, phase in rev.items():
            assert cmath.exp(1j * phase) == pytest.approx(cmath.exp(1j * fwd[swap[node]]), abs=1e-12)

    def test_differential_six_distinct_phases(self, differential_design):
        net = build_circulator(differential_design)
        mods = net.modulated
        assert len(mods) == 6
        phases = [e.modulation.phase for e in mods]
        expected = [0.0, TWO_PI / 3, 2 * TWO_PI / 3,
                    math.pi, math.pi + TWO_PI / 3, math.pi + 2 * TWO_PI / 3]
        assert phases == pytest.approx(expected)
        assert len({round(p % (2 * math.pi), 12) for p in phases}) == 6

    def test_differential_shares_ports_separate_commons(self, differential_design):
        net = build_circulator(differential_design)
        assert net.nodes == {"0", "p1", "p2", "p3", "ca", "cb"}
        assert len(net.elements) == 15
        assert len(net.ports) == 3

    def test_chip_a_equals_single_ended(self, differential_design, single_ended_design):
        diff = build_circulator(differential_design)
        se = build_circulator(single_ended_design)
        assert diff.elements[:6] == se.elements[:6]

    def test_static_differential_admittance_doubles(self, ghz_specs):
        # Y-matrix (termination-independent) of the parallel pair is exactly 2x one chip
        se = build_circulator(CirculatorDesign(Topology.SINGLE_ENDED, ghz_specs,
                                               delta=0.0, f_mod=23.2e6))
        diff = build_circulator(CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs,
                                                 delta=0.0, f_mod=23.2e6))
        basis = HarmonicBasis(23.2e6, 1)
        for f in (2.62e9, 2.68e9, 2.74e9):
            eye = np.eye(3)
            s_se = sparams(se, basis, [f]).s0[0]
            s_df = sparams(diff, basis, [f]).s0[0]
            y_se = (eye - s_se) @ np.linalg.inv(eye + s_se) / 50.0
            y_df = (eye - s_df) @ np.linalg.inv(eye + s_df) / 50.0
            assert np.max(np.abs(y_df - 2.0 * y_se)) <= 1e-9 * np.max(np.abs(y_df))

    def test_depth_at_least_one_rejected(self, ghz_specs):
        with pytest.raises(NetlistError):
            build_circulator(CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs,
                                              delta=1.0, f_mod=23.2e6))

    def test_builders_produce_valid_netlists(self, differential_design, single_ended_design):
        for design in (differential_design, single_ended_design):
            net = build_circulator(design)
            assert Netlist(net.elements) == net  # passes the check again

    def test_c0_across_branch_flag(self, ghz_specs):
        from dataclasses import replace
        design = CirculatorDesign(Topology.SINGLE_ENDED, ghz_specs, delta=0.01,
                                  f_mod=23.2e6, c0_to_ground=False)
        net = build_circulator(design)
        caps = [e for e in net.elements if isinstance(e, Capacitor)]
        assert all(c.node_b == "ca" for c in caps)


class TestElastanceFourier:
    BRANCH = MotionalBranch(r_m=1.07, l_m=4.5e-8, c_m=0.0802e-12)

    def test_static_only_dc_term(self):
        out = elastance_fourier(self.BRANCH, ModulationSpec(0.0, 23.2e6, 1.0))
        assert out.shape == (3,)
        assert out[1] == pytest.approx(1.0 / 0.0802e-12, rel=1e-12)
        assert np.all(out[[0, 2]] == 0.0)
        none_out = elastance_fourier(self.BRANCH, None)
        assert np.array_equal(out, none_out)

    def test_first_order_amplitude(self):
        # delta=0.01, phi=0: |G_1| = 0.005/0.0802e-12
        out = elastance_fourier(self.BRANCH, ModulationSpec(0.01, 23.2e6, 0.0))
        assert out[2] == pytest.approx(6.234413965087282e10, rel=1e-12)
        assert out[0] == pytest.approx(6.234413965087282e10, rel=1e-12)
        assert out[1] == pytest.approx(1.0 / 0.0802e-12, rel=1e-12)

    def test_quadrature_phase(self):
        out = elastance_fourier(self.BRANCH, ModulationSpec(0.01, 23.2e6, math.pi / 2))
        g1 = out[2]
        assert g1.real == pytest.approx(0.0, abs=1e-6 * abs(g1))
        assert g1.imag > 0.0

    def test_conjugate_symmetry_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mod = ModulationSpec(rng.uniform(0, 0.99), 1e6, rng.uniform(-10, 10))
            out = elastance_fourier(self.BRANCH, mod)
            assert np.allclose(out[::-1].conj(), out, rtol=0, atol=0)


class TestValidation:
    def test_floating_node(self):
        with pytest.raises(NetlistError, match=re.escape("reachable from ground: ['a', 'b']")):
            Netlist((Resistor("r1", "a", "b", 10.0), Port(1, "p1", 50.0)))

    def test_mixed_f_mod_rejected(self):
        b = MotionalBranch(1.0, 1e-6, 1e-12)
        with pytest.raises(NetlistError, match="f_mod"):
            Netlist((
                ModulatedSeriesRlc("x1", "p1", "0", b, ModulationSpec(0.1, 1e6, 0.0)),
                ModulatedSeriesRlc("x2", "p1", "0", b, ModulationSpec(0.1, 2e6, 0.0)),
                Port(1, "p1", 50.0),
            ))

    def test_port_indices_contiguous(self):
        with pytest.raises(NetlistError, match="contiguous"):
            Netlist((Resistor("r1", "p1", "0", 10.0), Port(1, "p1", 50.0),
                     Port(3, "p1", 50.0)))

    def test_duplicate_names(self):
        with pytest.raises(NetlistError, match="unique"):
            Netlist((Resistor("r1", "p1", "0", 10.0),
                     Resistor("r1", "p1", "0", 20.0), Port(1, "p1", 50.0)))

    def test_bad_z0(self):
        with pytest.raises(NetlistError, match="z0"):
            Netlist((Resistor("r1", "p1", "0", 10.0), Port(1, "p1", -5.0)))


@dataclass(frozen=True)
class _Switch:
    """A two-terminal element of a kind no engine stamps."""

    name: str
    node_a: str
    node_b: str


_B = MotionalBranch(1.0, 1e-6, 1e-12)


class TestConstructionCheck:
    """Netlists the engines would mishandle stop at construction."""

    @pytest.mark.parametrize("elements, named", [
        # else sparams raises KeyError: '0'
        ((Resistor("r1", "p1", "0", 10.0), Port(1, "p1", 50.0), Port(2, "0", 50.0)),
         "port 2 sits on the ground node '0'"),
        # else sparams solves both branches at the first f_mod
        ((ModulatedSeriesRlc("x1", "p1", "0", _B, ModulationSpec(0.1, 1e6, 0.0)),
          ModulatedSeriesRlc("x2", "p1", "0", _B, ModulationSpec(0.0, 3e6, 0.0)),
          Port(1, "p1", 50.0)), "share one f_mod, got [1000000.0, 3000000.0]"),
        # else sparams returns a 2-port grid
        ((Resistor("r1", "p1", "0", 10.0), Resistor("r3", "p3", "0", 10.0),
          Port(1, "p1", 50.0), Port(3, "p3", 50.0)), "contiguous from 1, got [1, 3]"),
        # else the harmonic engine divides by zero
        ((Resistor("r1", "p1", "n1", 0.0), Resistor("r2", "n1", "0", 10.0),
          Port(1, "p1", 50.0)), "r1: resistance and inductance must be nonzero"),
        ((Inductor("l1", "p1", "0", 0.0), Port(1, "p1", 50.0)),
         "l1: resistance and inductance must be nonzero"),
        # else the oracle drops it
        ((Resistor("r1", "p1", "0", 10.0), _Switch("s1", "p1", "0"), Port(1, "p1", 50.0)),
         "unknown element type _Switch"),
    ], ids=["port-on-ground", "two-f-mods", "ports-1-and-3", "zero-resistance",
            "zero-inductance", "unknown-type"])
    def test_rejected_at_construction(self, elements, named):
        with pytest.raises(NetlistError, match=re.escape(named)):
            Netlist(elements)

    @pytest.mark.parametrize("element", [
        Resistor("r1", "p1", "0", math.nan),
        Capacitor("r1", "p1", "0", math.nan),
        Capacitor("r1", "p1", "0", math.inf),
        Inductor("r1", "p1", "0", -math.inf),
        ModulatedSeriesRlc("r1", "p1", "0", _B, ModulationSpec(0.1, 1e6, math.nan)),
        ModulatedSeriesRlc("r1", "p1", "0", _B, ModulationSpec(0.1, 1e6, math.inf)),
    ], ids=["nan-ohms", "nan-farads", "inf-farads", "inf-henries", "nan-phase", "inf-phase"])
    def test_non_finite_value_rejected(self, element):
        # else the engines fail as numerical errors (exit 1), not as a bad netlist
        with pytest.raises(NetlistError, match="r1: values must be finite"):
            Netlist((element, Resistor("r2", "p1", "0", 50.0), Port(1, "p1", 50.0)))

    @pytest.mark.parametrize("ohms", [math.inf, -math.inf])
    def test_infinite_resistance_is_an_open(self, ohms):
        net = Netlist((Resistor("r1", "p1", "n2", ohms), Capacitor("c1", "p1", "0", 1e-9),
                       Capacitor("c2", "n2", "0", 1e-9), Port(1, "p1", 50.0)))
        assert net.elements[0].ohms == ohms

    @pytest.mark.parametrize("line", ["R r1 p1 0 nan", "C r1 p1 0 inf", "L r1 p1 0 -inf",
                                      "X r1 p1 0 1.0 1e-06 1e-12 0.1 1e6 nan"])
    def test_non_finite_value_in_text_rejected(self, line):
        with pytest.raises(NetlistError, match="r1: values must be finite"):
            read_netlist(f"{line}\nR r2 p1 0 50.0\nP 1 p1 50.0\n")

    def test_replace_and_text_are_checked_too(self, differential_design):
        net = build_circulator(differential_design)
        with pytest.raises(NetlistError, match="port 1 sits on the ground node"):
            replace(net, elements=net.elements[:-3] + (Port(1, "0", 50.0),))
        with pytest.raises(NetlistError, match="r1: resistance"):
            read_netlist("R r1 p1 0 0.0\nP 1 p1 50.0\n")


class TestTextFormat:
    def test_round_trip_equality(self, differential_design):
        net = build_circulator(differential_design)
        back = read_netlist(write_netlist(net))
        assert back.elements == net.elements

    def test_byte_exact_round_trip(self, differential_design):
        net = build_circulator(differential_design)
        text = write_netlist(net)
        assert write_netlist(read_netlist(text)) == text

    def test_byte_exact_after_scaling(self, differential_design):
        net = scale_frequency(build_circulator(differential_design), 997.3)
        text = write_netlist(net)
        assert write_netlist(read_netlist(text)) == text

    def test_comments_and_blank_lines(self):
        text = "* a comment\n\nR r1 p1 0 50.0\nP 1 p1 50.0\n"
        net = read_netlist(text)
        assert len(net.elements) == 2

    def test_static_branch_line(self):
        text = "X x1 p1 0 1.0 1e-06 1e-12\nP 1 p1 50.0\n"
        net = read_netlist(text)
        assert net.modulated[0].modulation is None
        assert write_netlist(net).splitlines()[0] == "X x1 p1 0 1.0 1e-06 1e-12"

    def test_unknown_line_rejected(self):
        with pytest.raises(NetlistError, match="line 1"):
            read_netlist("Q q1 p1 0 5.0\n")

    def test_bad_field_count_rejected(self):
        with pytest.raises(NetlistError):
            read_netlist("R r1 p1 0\n")

    def test_bad_number_rejected(self):
        with pytest.raises(NetlistError, match="line 1"):
            read_netlist("R r1 p1 0 fifty\n")


class TestScaleFrequency:
    def test_sparams_invariant_under_scaling(self, ghz_specs):
        # Q=700 preserved; S(f) of the original equals S(f/sigma) of the replica
        design = CirculatorDesign(Topology.DIFFERENTIAL, ghz_specs, delta=0.02,
                                  f_mod=23.2e6)
        net = build_circulator(design)
        sigma = 1000.0
        scaled = scale_frequency(net, sigma)
        basis = HarmonicBasis(23.2e6, 3)
        basis_s = HarmonicBasis(23.2e6 / sigma, 3)
        for f in (2.66e9, 2.7e9):
            s_orig = sparams(net, basis, [f]).data
            s_scal = sparams(scaled, basis_s, [f / sigma]).data
            assert np.max(np.abs(s_orig - s_scal)) <= 1e-10

    def test_dimensionless_figures_preserved(self, differential_design):
        net = build_circulator(differential_design)
        scaled = scale_frequency(net, 250.0)
        for orig, rep in zip(net.modulated, scaled.modulated):
            assert rep.branch.q == pytest.approx(orig.branch.q, rel=1e-12)
            assert rep.branch.f_s == pytest.approx(orig.branch.f_s / 250.0, rel=1e-12)
            assert rep.modulation.depth == orig.modulation.depth
            assert rep.modulation.f_mod == pytest.approx(orig.modulation.f_mod / 250.0, rel=1e-12)

    def test_bad_factor(self, differential_design):
        net = build_circulator(differential_design)
        with pytest.raises(ValueError):
            scale_frequency(net, 0.0)
