"""Harmonic transfer matrix engine for periodically modulated netlists.

A modulated netlist driven at stimulus frequency f responds at the mixing
frequencies f + n*f_mod, n in [-N, N].  This module builds the modified
nodal analysis system lifted to that harmonic basis, solves it with LAPACK's
pivoted dense LU (``numpy.linalg.solve``), and extracts multi-harmonic
scattering parameters S^(n)_qp: the wave leaving port q at harmonic n per
unit incident wave at port p, harmonic 0.  Every solve is checked: a
residual max|b - A x| above 1e-6 of max|b| raises NumericallySingular.
:func:`sparams` is the solve path of every workflow; :func:`assemble` and
:func:`solve` expose one point's matrix and solution for timing probes.

Unknowns per harmonic are the non-ground node voltages plus one current and
one charge variable for every modulated series branch.  Each netlist is
stamped once into frequency-independent real blocks: constant terms g, the
coefficient c of j*omega and the coefficient k of 1/(j*omega), plus blocks
m_-1, m_0, m_+1 of branch elastance Fourier coefficients.  Each frequency point
lifts them: diagonal block h is g + j*omega_h*c + k/(j*omega_h) + m_0, and
only m_+-1 couple adjacent harmonics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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

    def mixing_freqs(self, f: float) -> np.ndarray:
        return f + self.f_mod * np.arange(-self.n_harm, self.n_harm + 1)


@dataclass
class HarmonicSystem:
    """Assembled linear system A x = b.  Unknown ``h * nu + i`` is unknown i of
    harmonic h - n_harm; :func:`_stamp` gives nu and each port's row i."""

    matrix: np.ndarray
    rhs: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


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
    if not math.isfinite(f):
        raise DegenerateStimulus(f"stimulus frequency must be finite, got {f}")
    if f == 0.0:
        raise DegenerateStimulus("stimulus frequency must be nonzero")
    # A mixing frequency f + n*f_mod vanishes only when f sits on a multiple
    # k*f_mod with |k| <= n_harm; only those stimuli are rejected.
    k = round(f / f_mod)
    if k != 0 and abs(k) <= n_harm and abs(f - k * f_mod) <= 1e-6 * abs(f):
        raise DegenerateStimulus(
            f"stimulus {f} Hz is within 1e-6 of {k} x f_mod; mixing frequency would vanish")


class _Stamps(NamedTuple):
    """Frequency-independent per-harmonic blocks of one netlist."""

    nu: int  # unknowns per harmonic: node voltages, then (current, charge) per branch
    g: np.ndarray  # constant: resistors, ports, branch incidence, -r_m, charge row
    c: np.ndarray  # coefficient of j*omega: capacitors, -l_m, charge
    k: np.ndarray  # coefficient of 1/(j*omega): inductors
    m: np.ndarray  # (3, nu, nu): -G_-1, -G_0, -G_+1; m[d + 1] couples block h to h - d
    ports: tuple[Port, ...]
    port_rows: list[int]  # block row of each port's node


def _stamp(net: Netlist) -> _Stamps:
    """Walk the elements once and stamp them into the per-harmonic blocks."""
    bad = floating_nodes(net)
    if bad:
        raise SingularStructure(f"nodes not reachable from ground: {sorted(bad)}")
    row: dict[str, int] = {}
    for el in net.elements:
        for n in (el.node,) if isinstance(el, Port) else (el.node_a, el.node_b):
            if n != net.ground:
                row.setdefault(n, len(row))
    nu = len(row) + 2 * len(net.modulated)
    g, c, k = np.zeros((3, nu, nu))
    m = np.zeros((3, nu, nu), dtype=complex)

    def incidence(node_a: str, node_b: str) -> list[tuple[int, float]]:
        """Rows of the non-ground ends, signed +1 at node_a and -1 at node_b."""
        return [(row[n], s) for n, s in ((node_a, 1.0), (node_b, -1.0)) if n != net.ground]

    def stamp_admittance(block: np.ndarray, node_a: str, node_b: str, y: float) -> None:
        ends = incidence(node_a, node_b)
        for r, sr in ends:
            for col, sc in ends:
                block[r, col] += sr * sc * y

    ci = len(row)
    for el in net.elements:
        if isinstance(el, Resistor):
            stamp_admittance(g, el.node_a, el.node_b, 1.0 / el.ohms)
        elif isinstance(el, Capacitor):
            stamp_admittance(c, el.node_a, el.node_b, el.farads)
        elif isinstance(el, Inductor):
            stamp_admittance(k, el.node_a, el.node_b, 1.0 / el.henries)
        elif isinstance(el, Port):
            stamp_admittance(g, el.node, net.ground, 1.0 / el.z0)
        elif isinstance(el, ModulatedSeriesRlc):
            cq = ci + 1
            # KCL: branch current leaves node_a, enters node_b.
            # KVL: V_a - V_b - (r + j*w*l)*I - sum_n G_{m-n}*Q_n = 0.
            for r, sign in incidence(el.node_a, el.node_b):
                g[r, ci] += sign
                g[ci, r] += sign
            g[ci, ci] -= el.branch.r_m
            c[ci, ci] -= el.branch.l_m
            m[:, ci, cq] -= elastance_fourier(el.branch, el.modulation, 1)
            # Charge: j*w*Q - I = 0.
            c[cq, cq] += 1.0
            g[cq, ci] -= 1.0
            ci += 2
        else:
            raise SingularStructure(f"unknown element type {type(el).__name__}")
    ports = net.ports
    return _Stamps(nu, g, c, k, m, ports, [row[p.node] for p in ports])


def _lift(st: _Stamps, basis: HarmonicBasis, f: float) -> np.ndarray:
    """The harmonic system matrix at stimulus frequency f."""
    _check_stimulus(f, basis.f_mod, basis.n_harm)
    nu, size = st.nu, basis.size
    jw = (1j * TWO_PI * basis.mixing_freqs(f))[:, None, None]
    h = np.arange(size)
    a = np.zeros((size, nu, size, nu), dtype=complex)
    a[h, :, h, :] = st.g + jw * st.c + st.k / jw + st.m[1]
    a[h[1:], :, h[:-1], :] = st.m[2]
    a[h[:-1], :, h[1:], :] = st.m[0]
    return a.reshape(size * nu, size * nu)


def _excitation(st: _Stamps, basis: HarmonicBasis) -> np.ndarray:
    """All-ports right-hand side: column p is a unit incident wave at port p + 1,
    harmonic 0 (Thevenin source 2*sqrt(z0): Norton current 2/sqrt(z0))."""
    nu, n_ports = st.nu, len(st.ports)
    rhs = np.zeros((basis.size, nu, n_ports), dtype=complex)
    rhs[basis.n_harm, st.port_rows, np.arange(n_ports)] = \
        2.0 / np.sqrt([p.z0 for p in st.ports])
    return rhs.reshape(basis.size * nu, n_ports)


def assemble(net: Netlist, basis: HarmonicBasis, f: float,
             excited_port: int = 1) -> HarmonicSystem:
    """Assemble the harmonic MNA system for one stimulus frequency.

    The excited port carries a unit incident wave at harmonic 0; every port
    is terminated in its reference impedance.  Raises
    :class:`SingularStructure` for floating nodes and
    :class:`DegenerateStimulus` when f collides with a multiple of f_mod.
    """
    st = _stamp(net)
    a = _lift(st, basis, f)
    indices = [p.index for p in st.ports]
    if excited_port not in indices:
        raise ValueError(f"no port with index {excited_port}")
    rhs = _excitation(st, basis)[:, indices.index(excited_port)]
    return HarmonicSystem(matrix=a, rhs=rhs)


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


def solve(sys: HarmonicSystem) -> np.ndarray:
    """The solution x of the assembled system; deterministic for identical inputs.

    Raises :class:`NumericallySingular` when LAPACK reports a singular
    matrix or max|b - A x| exceeds 1e-6 of max|b|.
    """
    return _solve(sys.matrix, sys.rhs)


def sparams(net: Netlist, basis: HarmonicBasis, freqs) -> SParamGrid:
    """Multi-harmonic S-parameters over a stimulus frequency grid.

    The netlist is stamped once; each frequency point lifts the stamps to
    its harmonic matrix and solves for all port excitations at once.
    Points are independent, so the grid depends only on the inputs.
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
    if not net.ports:
        raise ValueError("netlist has no ports")
    st = _stamp(net)
    rhs = _excitation(st, basis)
    nu, n_ports = st.nu, len(st.ports)
    z0 = np.array([p.z0 for p in st.ports])
    sqrt_z0 = np.sqrt(z0)[None, :, None]
    diag = np.arange(n_ports)
    data = np.empty((freqs.size, basis.size, n_ports, n_ports), dtype=complex)
    for fi, f in enumerate(freqs):
        x = _solve(_lift(st, basis, float(f)), rhs).reshape(basis.size, nu, n_ports)
        data[fi] = x[:, st.port_rows, :] / sqrt_z0               # (harmonic, q, p)
        data[fi, basis.n_harm, diag, diag] -= 1.0                # remove the incident waves
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
