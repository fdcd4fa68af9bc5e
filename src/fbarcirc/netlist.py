"""Circuit netlists for periodically modulated resonator networks.

Elements are two-terminal R/L/C devices, series R-L-C branches whose
elastance (1/C) may be sinusoidally modulated, and port terminations.
One builder per circuit: :func:`build_circulator` lays out the single-ended
(one chip, three resonators in wye) or differential (two anti-phase chips in
parallel) topology, and :func:`build_one_port` and :func:`build_toy_wye` the
toy circuits the oracle checks use.  :func:`scale_frequency` turns any of
them into a desk-scale replica with the same dimensionless behavior.

Text format, one element per line (``*`` starts a comment):

    R name nodeA nodeB ohms
    L name nodeA nodeB henries
    C name nodeA nodeB farads
    X name nodeA nodeB r l c [delta f_mod phase]
    P index node z0

Ports are referenced to ground.  Writing a parsed netlist reproduces the
file byte for byte.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .bvd import MotionalBranch, ResonatorSpecs, bvd_from_specs

GROUND = "0"


class NetlistError(ValueError):
    """Structurally invalid netlist or malformed netlist text."""


class Topology(enum.Enum):
    SINGLE_ENDED = "single_ended"
    DIFFERENTIAL = "differential"


class PhaseSequence(enum.Enum):
    FORWARD = "forward"
    REVERSE = "reverse"


@dataclass(frozen=True)
class ModulationSpec:
    """Sinusoidal elastance modulation: 1/C(t) = (1/c_m)*(1 + depth*cos(2*pi*f_mod*t + phase))."""

    depth: float
    f_mod: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.depth) and 0.0 <= self.depth < 1.0):
            raise NetlistError(f"modulation depth must lie in [0, 1), got {self.depth}")
        if not (math.isfinite(self.f_mod) and self.f_mod > 0.0):
            raise NetlistError(f"modulation frequency must be positive, got {self.f_mod}")


@dataclass(frozen=True)
class Resistor:
    name: str
    node_a: str
    node_b: str
    ohms: float


@dataclass(frozen=True)
class Inductor:
    name: str
    node_a: str
    node_b: str
    henries: float


@dataclass(frozen=True)
class Capacitor:
    name: str
    node_a: str
    node_b: str
    farads: float


@dataclass(frozen=True)
class ModulatedSeriesRlc:
    """Series r-l-c branch between two nodes; elastance optionally modulated."""

    name: str
    node_a: str
    node_b: str
    branch: MotionalBranch
    modulation: ModulationSpec | None = None


@dataclass(frozen=True)
class Port:
    """Port termination: reference impedance z0 from ``node`` to ground."""

    index: int
    node: str
    z0: float


Element = Union[Resistor, Inductor, Capacitor, ModulatedSeriesRlc, Port]


@dataclass(frozen=True)
class CirculatorDesign:
    """Parameters of one circulator build: topology, resonator, drive and ports."""

    topology: Topology
    resonator: ResonatorSpecs
    delta: float
    f_mod: float
    z0: float = 50.0
    phase_sequence: PhaseSequence = PhaseSequence.FORWARD
    c0_to_ground: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.z0) and self.z0 > 0.0):
            raise NetlistError(f"port impedance must be positive, got {self.z0}")


@dataclass(frozen=True)
class Netlist:
    """Ordered element list over named nodes; the node GROUND ("0") is ground.

    Construction is the one structural check; it raises :class:`NetlistError`
    unless each element is of the five kinds, names are unique, ports run
    1..n off ground with finite z0 > 0, no R or L is 0, no value is NaN and
    only R may be infinite, the modulated branches share one f_mod and every
    node has a path to ground."""

    elements: tuple[Element, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        for el in self.elements:
            if not isinstance(el, Element):
                raise NetlistError(f"unknown element type {type(el).__name__}")
        names = [el.name for el in self.elements if not isinstance(el, Port)]
        if len(names) != len(set(names)):
            raise NetlistError("element names must be unique")
        indices = sorted(p.index for p in self.ports)
        if indices != list(range(1, len(indices) + 1)):
            raise NetlistError(f"port indices must be contiguous from 1, got {indices}")
        for p in self.ports:
            if p.node == GROUND:
                raise NetlistError(f"port {p.index} sits on the ground node {GROUND!r}")
            if not (math.isfinite(p.z0) and p.z0 > 0.0):
                raise NetlistError(f"port {p.index}: z0 must be positive")
        for el in self.elements:  # the harmonic engine stamps 1/R and 1/L
            if (isinstance(el, Resistor) and el.ohms == 0.0
                    or isinstance(el, Inductor) and el.henries == 0.0):
                raise NetlistError(f"{el.name}: resistance and inductance must be nonzero")
            if isinstance(el, Resistor) and math.isnan(el.ohms) or not all(
                    map(math.isfinite, _finite_values(el))):
                raise NetlistError(f"{el.name}: values must be finite, but for a resistance, "
                                   f"which may be an infinite open")
        f_mods = {el.modulation.f_mod for el in self.modulated if el.modulation is not None}
        if len(f_mods) > 1:
            raise NetlistError(f"modulated branches must share one f_mod, got {sorted(f_mods)}")
        floating = floating_nodes(self)
        if floating:
            raise NetlistError(f"nodes not reachable from ground: {sorted(floating)}")

    @property
    def nodes(self) -> set[str]:
        out = {GROUND}
        for el in self.elements:
            if isinstance(el, Port):
                out.add(el.node)
            else:
                out.add(el.node_a)
                out.add(el.node_b)
        return out

    @property
    def ports(self) -> tuple[Port, ...]:
        return tuple(sorted((el for el in self.elements if isinstance(el, Port)),
                            key=lambda p: p.index))

    @property
    def modulated(self) -> tuple[ModulatedSeriesRlc, ...]:
        return tuple(el for el in self.elements if isinstance(el, ModulatedSeriesRlc))


def _finite_values(el: Element) -> tuple[float, ...]:
    """The values of an element that must be finite: all but a resistance,
    which may be +-inf, an open, and a port's z0, checked on its own."""
    if isinstance(el, Inductor):
        return (el.henries,)
    if isinstance(el, Capacitor):
        return (el.farads,)
    if isinstance(el, ModulatedSeriesRlc):
        b, m = el.branch, el.modulation
        return (b.r_m, b.l_m, b.c_m) + (() if m is None else (m.depth, m.f_mod, m.phase))
    return ()


def floating_nodes(net: Netlist) -> set[str]:
    """Nodes with no element path to ground (a :class:`Netlist` has none)."""
    nodes = net.nodes
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    for el in net.elements:
        if isinstance(el, Port):
            a, b = el.node, GROUND
        else:
            a, b = el.node_a, el.node_b
        adj[a].add(b)
        adj[b].add(a)
    seen = {GROUND}
    stack = [GROUND]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return nodes - seen


def _wye_chip(design: CirculatorDesign, suffix: str, common: str,
              phase_offset: float) -> list[Element]:
    """Three modulated resonators from the port nodes to one common node."""
    branch = bvd_from_specs(design.resonator).branches[0]
    sign = 1.0 if design.phase_sequence is PhaseSequence.FORWARD else -1.0
    c0 = design.resonator.c0
    out: list[Element] = []
    for k in range(3):
        port_node = f"p{k + 1}"
        phase = phase_offset + sign * k * 2.0 * math.pi / 3.0
        mod = ModulationSpec(depth=design.delta, f_mod=design.f_mod, phase=phase)
        out.append(ModulatedSeriesRlc(f"x{suffix}{k + 1}", port_node, common, branch, mod))
        cap_node = GROUND if design.c0_to_ground else common
        out.append(Capacitor(f"c{suffix}{k + 1}", port_node, cap_node, c0))
    return out


def build_circulator(design: CirculatorDesign) -> Netlist:
    """Chip A, then for the differential topology chip B, then ports 1-3.

    Each chip is three modulated resonators in wye: resonator k (k = 0, 1, 2)
    runs from port node k+1 to the chip's floating common node with
    modulation phase offset + s*k*2*pi/3 (s = +1 forward, -1 reverse), and
    each plate capacitance shunts its port node.  Chip A has offset 0 and
    common node ``ca``; chip B, driven in anti-phase, has offset pi and
    common node ``cb`` on the same port nodes.
    """
    elements = _wye_chip(design, "a", "ca", 0.0)
    if design.topology is Topology.DIFFERENTIAL:
        elements += _wye_chip(design, "b", "cb", math.pi)
    elements += [Port(k + 1, f"p{k + 1}", design.z0) for k in range(3)]
    return Netlist(tuple(elements))


def build_one_port(branch: MotionalBranch, c0: float, z0: float,
                   modulation: ModulationSpec | None = None) -> Netlist:
    """One resonator to ground behind port 1: plate capacitance c0 in
    parallel with the (optionally modulated) motional branch."""
    return Netlist((
        ModulatedSeriesRlc("x1", "p1", GROUND, branch, modulation),
        Capacitor("c1", "p1", GROUND, c0),
        Port(1, "p1", z0),
    ))


def build_toy_wye(branch: MotionalBranch, c0: float, z0: float,
                  modulations: tuple[ModulationSpec, ModulationSpec]) -> Netlist:
    """Two modulated resonators from ports 1 and 2 to a floating common
    node; each port node is shunted to ground by its plate capacitance c0."""
    return Netlist((
        ModulatedSeriesRlc("x1", "p1", "cm", branch, modulations[0]),
        ModulatedSeriesRlc("x2", "p2", "cm", branch, modulations[1]),
        Capacitor("c1", "p1", GROUND, c0),
        Capacitor("c2", "p2", GROUND, c0),
        Port(1, "p1", z0),
        Port(2, "p2", z0),
    ))


def elastance_fourier(branch: MotionalBranch, mod: ModulationSpec | None) -> np.ndarray:
    """Fourier coefficients [G_-1, G_0, G_+1] of the branch elastance 1/C(t):
    G_0 = 1/c_m and G_{+-1} = (depth/2)*exp(+-j*phase)/c_m, zero when static.
    A sinusoid has no higher orders, and the harmonic engine couples only +-1."""
    out = np.zeros(3, dtype=complex)
    g0 = 1.0 / branch.c_m
    out[1] = g0
    if mod is not None and mod.depth != 0.0:
        g1 = 0.5 * mod.depth * g0 * cmath.exp(1j * mod.phase)
        out[0], out[2] = g1.conjugate(), g1
    return out


def scale_frequency(net: Netlist, factor: float) -> Netlist:
    """Frequency-scaled replica: every natural frequency divided by ``factor``.

    All inductances and capacitances are multiplied by ``factor`` and every
    modulation frequency divided by it; resistances, impedances, depths and
    phases are untouched, so Q, coupling ratios and modulation depth are
    preserved and S(f) of the original equals S(f/factor) of the replica.
    """
    if not (math.isfinite(factor) and factor > 0.0):
        raise ValueError(f"scale factor must be positive, got {factor}")
    out: list[Element] = []
    for el in net.elements:
        if isinstance(el, Inductor):
            out.append(replace(el, henries=el.henries * factor))
        elif isinstance(el, Capacitor):
            out.append(replace(el, farads=el.farads * factor))
        elif isinstance(el, ModulatedSeriesRlc):
            branch = MotionalBranch(r_m=el.branch.r_m, l_m=el.branch.l_m * factor,
                                    c_m=el.branch.c_m * factor)
            mod = el.modulation
            if mod is not None:
                mod = ModulationSpec(depth=mod.depth, f_mod=mod.f_mod / factor,
                                     phase=mod.phase)
            out.append(replace(el, branch=branch, modulation=mod))
        else:
            out.append(el)
    return Netlist(tuple(out))


def write_netlist(net: Netlist) -> str:
    """Serialize to the plain-text element format (bit-exact round trip)."""
    lines = []
    for el in net.elements:
        if isinstance(el, Resistor):
            lines.append(f"R {el.name} {el.node_a} {el.node_b} {el.ohms!r}")
        elif isinstance(el, Inductor):
            lines.append(f"L {el.name} {el.node_a} {el.node_b} {el.henries!r}")
        elif isinstance(el, Capacitor):
            lines.append(f"C {el.name} {el.node_a} {el.node_b} {el.farads!r}")
        elif isinstance(el, ModulatedSeriesRlc):
            b = el.branch
            line = (f"X {el.name} {el.node_a} {el.node_b} "
                    f"{b.r_m!r} {b.l_m!r} {b.c_m!r}")
            if el.modulation is not None:
                m = el.modulation
                line += f" {m.depth!r} {m.f_mod!r} {m.phase!r}"
            lines.append(line)
        else:  # Port
            lines.append(f"P {el.index} {el.node} {el.z0!r}")
    return "\n".join(lines) + "\n"


def read_netlist(text: str) -> Netlist:
    """Parse the plain-text element format into a (checked) :class:`Netlist`."""
    elements: list[Element] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("*"):
            continue
        tok = line.split()
        kind = tok[0]
        try:
            if kind == "R" and len(tok) == 5:
                elements.append(Resistor(tok[1], tok[2], tok[3], float(tok[4])))
            elif kind == "L" and len(tok) == 5:
                elements.append(Inductor(tok[1], tok[2], tok[3], float(tok[4])))
            elif kind == "C" and len(tok) == 5:
                elements.append(Capacitor(tok[1], tok[2], tok[3], float(tok[4])))
            elif kind == "X" and len(tok) in (7, 10):
                branch = MotionalBranch(r_m=float(tok[4]), l_m=float(tok[5]),
                                        c_m=float(tok[6]))
                mod = None
                if len(tok) == 10:
                    mod = ModulationSpec(depth=float(tok[7]), f_mod=float(tok[8]),
                                         phase=float(tok[9]))
                elements.append(ModulatedSeriesRlc(tok[1], tok[2], tok[3], branch, mod))
            elif kind == "P" and len(tok) == 4:
                elements.append(Port(int(tok[1]), tok[2], float(tok[3])))
            else:
                raise NetlistError(f"line {lineno}: unrecognized element line {line!r}")
        except NetlistError:
            raise
        except ValueError as exc:
            raise NetlistError(f"line {lineno}: {exc}") from exc
    return Netlist(tuple(elements))
