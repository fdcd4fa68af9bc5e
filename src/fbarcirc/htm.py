"""Harmonic transfer matrix engine for periodically modulated netlists.

A modulated netlist driven at stimulus frequency f responds at the mixing
frequencies f + n*f_mod, n in [-N, N].  This module assembles the modified
nodal analysis system lifted to that harmonic basis, solves it with LAPACK's
pivoted dense LU (``numpy.linalg.solve``), and extracts multi-harmonic
scattering parameters S^(n)_qp: the wave leaving port q at harmonic n per
unit incident wave at port p, harmonic 0.  Every solve is checked: a
residual max|b - A x| above 1e-6 of max|b| raises NumericallySingular.

Unknowns per harmonic are the non-ground node voltages plus one current and
one charge variable for every modulated series branch.  Static R/L/C/port
elements stamp block-diagonally; only the elastance Fourier coefficients of
modulated branches couple adjacent harmonics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netlist import (Capacitor, Inductor, ModulatedSeriesRlc, Netlist, Port,
                      Resistor, elastance_fourier, floating_nodes)

TWO_PI = 2.0 * math.pi

# Largest accepted max|b - A x| relative to max|b|, per right-hand side.
# LAPACK's pivoted LU leaves about 1e-13 on the engine's systems and up to
# about 6e-9 on dense random systems near condition number 1e8 (the rounding
# floor there); a numerically rank-deficient matrix leaves a residual of
# order one.
RESIDUAL_BOUND = 1e-6


class SingularStructure(ValueError):
    """The netlist graph leaves nodes without a path to ground."""


class NumericallySingular(ArithmeticError):
    """The solve failed its residual contract: LAPACK found an exactly
    singular matrix, or max|b - A x| exceeds RESIDUAL_BOUND of max|b|."""


class DegenerateStimulus(ValueError):
    """Stimulus frequency coincides with a multiple of the modulation frequency."""


@dataclass(frozen=True)
class HarmonicBasis:
    """Mixing basis: frequencies f + n*f_mod for n in [-n_harm, n_harm]."""

    f_mod: float
    n_harm: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.f_mod) and self.f_mod > 0.0):
            raise ValueError(f"f_mod must be positive, got {self.f_mod}")
        if self.n_harm < 1:
            raise ValueError(f"n_harm must be >= 1, got {self.n_harm}")

    @property
    def size(self) -> int:
        return 2 * self.n_harm + 1

    def harmonics(self) -> range:
        return range(-self.n_harm, self.n_harm + 1)

    def mixing_freqs(self, f: float) -> np.ndarray:
        return f + self.f_mod * np.arange(-self.n_harm, self.n_harm + 1)


@dataclass
class HarmonicSystem:
    """Assembled linear system A x = b over (variable, harmonic) unknowns."""

    matrix: np.ndarray
    rhs: np.ndarray
    variables: tuple[str, ...]  # per-block variable tags, e.g. "v:p1", "i:xa1"
    basis: HarmonicBasis
    f: float

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass
class HarmonicSolution:
    """Solved unknowns with lookup by variable tag and harmonic index."""

    x: np.ndarray
    variables: tuple[str, ...]
    basis: HarmonicBasis
    f: float

    def voltage(self, node: str, n: int = 0) -> complex:
        block = n + self.basis.n_harm
        return complex(self.x[block * len(self.variables) + self.variables.index(f"v:{node}")])


@dataclass(frozen=True)
class SParamGrid:
    """S^(n)_qp over a stimulus frequency grid.

    ``data[fi, n + n_harm, q - 1, p - 1]`` is the wave leaving port q at
    harmonic n for unit incident wave at port p, harmonic 0.
    """

    frequencies: np.ndarray
    n_harm: int
    z0: np.ndarray
    data: np.ndarray

    @property
    def ports(self) -> int:
        return self.data.shape[2]

    @property
    def s0(self) -> np.ndarray:
        """Harmonic-0 block, shape (F, P, P)."""
        return self.data[:, self.n_harm]

    def harmonic(self, n: int) -> np.ndarray:
        return self.data[:, n + self.n_harm]


def _check_stimulus(f: float, f_mod: float, n_harm: int) -> None:
    if f == 0.0:
        raise DegenerateStimulus("stimulus frequency must be nonzero")
    # A mixing frequency f + n*f_mod vanishes only when f sits on a multiple
    # k*f_mod with |k| <= n_harm; only those stimuli are rejected.
    k = round(f / f_mod)
    if k != 0 and abs(k) <= n_harm and abs(f - k * f_mod) <= 1e-6 * abs(f):
        raise DegenerateStimulus(
            f"stimulus {f} Hz is within 1e-6 of {k} x f_mod; mixing frequency would vanish")


def _block_variables(net: Netlist) -> tuple[str, ...]:
    tags: list[str] = []
    seen: set[str] = set()
    for el in net.elements:
        nodes = (el.node,) if isinstance(el, Port) else (el.node_a, el.node_b)
        for n in nodes:
            if n != net.ground and n not in seen:
                seen.add(n)
                tags.append(f"v:{n}")
    for el in net.elements:
        if isinstance(el, ModulatedSeriesRlc):
            tags.append(f"i:{el.name}")
            tags.append(f"q:{el.name}")
    return tuple(tags)


def _assemble_matrix(net: Netlist, basis: HarmonicBasis, f: float):
    """Build the system matrix and the per-block variable tags."""
    bad = floating_nodes(net)
    if bad:
        raise SingularStructure(f"nodes not reachable from ground: {sorted(bad)}")
    _check_stimulus(f, basis.f_mod, basis.n_harm)

    variables = _block_variables(net)
    nu = len(variables)
    vidx = {tag: i for i, tag in enumerate(variables)}
    size = basis.size * nu
    a = np.zeros((size, size), dtype=complex)
    omega = TWO_PI * basis.mixing_freqs(f)

    def node_row(node: str, block: int) -> int:
        return block * nu + vidx[f"v:{node}"]

    def stamp_admittance(node_a: str, node_b: str, y: complex, block: int) -> None:
        if node_a != net.ground:
            ra = node_row(node_a, block)
            a[ra, ra] += y
        if node_b != net.ground:
            rb = node_row(node_b, block)
            a[rb, rb] += y
        if node_a != net.ground and node_b != net.ground:
            a[ra, rb] -= y
            a[rb, ra] -= y

    for el in net.elements:
        if isinstance(el, Resistor):
            for h in range(basis.size):
                stamp_admittance(el.node_a, el.node_b, 1.0 / el.ohms, h)
        elif isinstance(el, Capacitor):
            for h in range(basis.size):
                stamp_admittance(el.node_a, el.node_b, 1j * omega[h] * el.farads, h)
        elif isinstance(el, Inductor):
            for h in range(basis.size):
                stamp_admittance(el.node_a, el.node_b, 1.0 / (1j * omega[h] * el.henries), h)
        elif isinstance(el, Port):
            for h in range(basis.size):
                stamp_admittance(el.node, net.ground, 1.0 / el.z0, h)
        elif isinstance(el, ModulatedSeriesRlc):
            gamma = elastance_fourier(el.branch, el.modulation, 1)
            ci = vidx[f"i:{el.name}"]
            cq = vidx[f"q:{el.name}"]
            b = el.branch
            for h in range(basis.size):
                row_i = h * nu + ci
                row_q = h * nu + cq
                # KCL: branch current leaves node_a, enters node_b.
                if el.node_a != net.ground:
                    a[node_row(el.node_a, h), row_i] += 1.0
                if el.node_b != net.ground:
                    a[node_row(el.node_b, h), row_i] -= 1.0
                # KVL: V_a - V_b - (r + j*w*l)*I - sum_n G_{m-n}*Q_n = 0.
                if el.node_a != net.ground:
                    a[row_i, node_row(el.node_a, h)] += 1.0
                if el.node_b != net.ground:
                    a[row_i, node_row(el.node_b, h)] -= 1.0
                a[row_i, row_i] -= b.r_m + 1j * omega[h] * b.l_m
                for dm in (-1, 0, 1):
                    hn = h - dm
                    if 0 <= hn < basis.size:
                        a[row_i, hn * nu + cq] -= gamma[dm + 1]
                # Charge: j*w*Q - I = 0.
                a[row_q, row_q] += 1j * omega[h]
                a[row_q, row_i] -= 1.0
        else:
            raise SingularStructure(f"unknown element type {type(el).__name__}")
    return a, variables


def _excitation_rhs(net: Netlist, basis: HarmonicBasis, variables: tuple[str, ...],
                    excited_port: int) -> np.ndarray:
    ports = {p.index: p for p in net.ports}
    if excited_port not in ports:
        raise ValueError(f"no port with index {excited_port}")
    port = ports[excited_port]
    nu = len(variables)
    rhs = np.zeros(basis.size * nu, dtype=complex)
    # Unit incident wave a = 1 at harmonic 0: Thevenin source 2*sqrt(z0),
    # Norton current 2/sqrt(z0) into the port node.
    block = basis.n_harm
    rhs[block * nu + variables.index(f"v:{port.node}")] = 2.0 / math.sqrt(port.z0)
    return rhs


def assemble(net: Netlist, basis: HarmonicBasis, f: float,
             excited_port: int = 1) -> HarmonicSystem:
    """Assemble the harmonic MNA system for one stimulus frequency.

    The excited port carries a unit incident wave at harmonic 0; every port
    is terminated in its reference impedance.  Raises
    :class:`SingularStructure` for floating nodes and
    :class:`DegenerateStimulus` when f collides with a multiple of f_mod.
    """
    a, variables = _assemble_matrix(net, basis, f)
    rhs = _excitation_rhs(net, basis, variables, excited_port)
    return HarmonicSystem(matrix=a, rhs=rhs, variables=variables, basis=basis, f=f)


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LAPACK solve of a x = b (a vector or a column stack), residual-checked per column."""
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericallySingular(f"LAPACK solve failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise NumericallySingular("solution has non-finite entries")
    resid = np.max(np.abs(b - a @ x), axis=0)
    if np.any(resid > RESIDUAL_BOUND * np.max(np.abs(b), axis=0)):
        raise NumericallySingular(
            f"residual max|b - A x| = {float(np.max(resid)):.3e} exceeds "
            f"{RESIDUAL_BOUND} of max|b|")
    return x


def solve(sys: HarmonicSystem) -> HarmonicSolution:
    """Solve the assembled system; deterministic for identical inputs.

    Raises :class:`NumericallySingular` when LAPACK reports a singular
    matrix or max|b - A x| exceeds 1e-6 of max|b|.
    """
    x = _solve(sys.matrix, sys.rhs)
    return HarmonicSolution(x=x, variables=sys.variables, basis=sys.basis, f=sys.f)


def sparams(net: Netlist, basis: HarmonicBasis, freqs) -> SParamGrid:
    """Multi-harmonic S-parameters over a stimulus frequency grid.

    Each frequency point assembles its matrix and solves for all port
    excitations at once; points are independent, so the grid depends only
    on the inputs.
    """
    net_f_mod = net.f_mod
    if net_f_mod is not None and net_f_mod != basis.f_mod:
        raise ValueError(
            f"netlist modulation {net_f_mod} Hz does not match basis {basis.f_mod} Hz")
    freqs = np.asarray(list(freqs), dtype=float)
    if freqs.size == 0:
        raise ValueError("need at least one stimulus frequency")
    if np.any(freqs <= 0.0):
        raise ValueError("stimulus frequencies must be positive")
    ports = net.ports
    if not ports:
        raise ValueError("netlist has no ports")
    variables = _block_variables(net)
    nu = len(variables)
    rhs = np.stack([_excitation_rhs(net, basis, variables, p.index) for p in ports], axis=1)
    vrows = [variables.index(f"v:{p.node}") for p in ports]
    sqrt_z0 = np.array([math.sqrt(p.z0) for p in ports])
    diag = np.arange(len(ports))
    data = np.empty((freqs.size, basis.size, len(ports), len(ports)), dtype=complex)
    for fi, f in enumerate(freqs):
        a, _ = _assemble_matrix(net, basis, float(f))
        x = _solve(a, rhs).reshape(basis.size, nu, len(ports))
        data[fi] = x[:, vrows, :] / sqrt_z0[None, :, None]    # (harmonic, q, p)
        data[fi, basis.n_harm, diag, diag] -= 1.0             # remove the incident waves
    z0 = np.array([p.z0 for p in ports])
    return SParamGrid(frequencies=freqs, n_harm=basis.n_harm, z0=z0, data=data)


def convergence_check(net: Netlist, f: float, n_small: int, n_large: int) -> float:
    """Max |change of S^(0)| between two truncation orders at one frequency.

    Returns exactly 0.0 for unmodulated netlists.  The value is reported,
    not asserted monotone.
    """
    if n_small < 1 or n_large < n_small:
        raise ValueError("need 1 <= n_small <= n_large")
    active = [el for el in net.modulated
              if el.modulation is not None and el.modulation.depth > 0.0]
    if not active:
        return 0.0
    f_mod = net.f_mod
    s_small = sparams(net, HarmonicBasis(f_mod, n_small), [f]).s0[0]
    s_large = sparams(net, HarmonicBasis(f_mod, n_large), [f]).s0[0]
    return float(np.max(np.abs(s_large - s_small)))
