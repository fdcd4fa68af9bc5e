"""Harmonic transfer matrix engine for periodically modulated netlists.

A modulated netlist driven at stimulus frequency f responds at the mixing
frequencies f + n*f_mod, n in [-N, N].  This module builds the modified
nodal analysis system lifted to that harmonic basis, solves it, and extracts
multi-harmonic scattering parameters S^(n)_qp: the wave leaving port q at
harmonic n per unit incident wave at port p, harmonic 0.

Unknowns per harmonic are the non-ground node voltages, then one current per
modulated series branch, then one charge per modulated series branch.  Each
netlist is stamped once into frequency-independent real blocks: constant
terms g, the coefficient c of j*omega and the coefficient k of 1/(j*omega),
plus blocks m_-1, m_0, m_+1 of branch elastance Fourier coefficients.  At a
frequency point, diagonal block h is g + j*omega_h*c + k/(j*omega_h) + m_0,
and only m_+-1 couple adjacent harmonics, so the system is block-tridiagonal.
An elastance term ties a branch's KVL row to its charge, so with this order
the m blocks are nonzero only in one contiguous (currents x charges) block,
and the elimination touches basic slices of that small block, not whole
nu x nu products.

:func:`sparams`, the solve path of every workflow, eliminates over the 2N+1
harmonic blocks (block Thomas) for a chunk of frequency points at once: the
diagonal blocks of every harmonic are built in one pass, then each harmonic
takes one small coupling product and one batched LAPACK solve, then
back-substitution.  The elimination does not pivot across blocks, so every
solve is checked: the residual max|b - A x| is formed blockwise from the
diagonal blocks and the coupling stamps, and a point above 1e-6 of
max|b|, or with a non-finite value, is solved again on its dense harmonic
matrix with LAPACK's pivoted LU (``numpy.linalg.solve``); a chunk where
LAPACK meets an exactly singular block is solved a point at a time, so a
point's bits never depend on its chunk.  The dense solve raises
NumericallySingular when it fails the same check.  :func:`assemble`
and :func:`solve` expose one point's dense matrix and solution for timing
probes.

A :class:`Stamped` netlist holds those blocks, and :func:`sparams` solves
a netlist or a Stamped one, so a caller stamps once however often it
solves.  The modulation enters the stamps only through the m blocks:
:meth:`Stamped.modulate` rewrites them, so the tuner stamps its design once
and solves every evaluation's modulation on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .netlist import (GROUND, Capacitor, Inductor, ModulatedSeriesRlc, Netlist, Port,
                      Resistor, elastance_fourier)

TWO_PI = 2.0 * math.pi

# Largest accepted max|b - A x| relative to max|b|, per right-hand side.
# Block elimination leaves about 1e-12 on the tuned circulator, LAPACK's
# pivoted LU about 1e-13 on the engine's systems and up to
# about 6e-9 on dense random systems near condition number 1e8 (the rounding
# floor there); a numerically rank-deficient matrix leaves a residual of
# order one.
RESIDUAL_BOUND = 1e-6
# complex values in the working set of one chunk of frequency points: the
# diagonal blocks and the [X | Y] solutions of _eliminate, points x (2N+1) x
# nu x (nu + nb + ports); bounds the working memory of sparams
CHUNK_VALUES = 1 << 16


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
    harmonic h - n_harm; :class:`Stamped` gives nu and each port's row i."""

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
    ratio = f / f_mod  # not finite for a non-finite f, or one that overflows it
    if not math.isfinite(ratio):
        raise DegenerateStimulus(f"stimulus {f} Hz over f_mod {f_mod} Hz must be finite")
    if f == 0.0:
        raise DegenerateStimulus("stimulus frequency must be nonzero")
    # A mixing frequency f + n*f_mod vanishes only when f sits on a multiple
    # k*f_mod with |k| <= n_harm; only those stimuli are rejected.
    k = round(ratio)
    if k != 0 and abs(k) <= n_harm and abs(f - k * f_mod) <= 1e-6 * abs(f):
        raise DegenerateStimulus(
            f"stimulus {f} Hz is within 1e-6 of {k} x f_mod; mixing frequency would vanish")


class Stamped:
    """One netlist walked once and stamped into the frequency-independent
    per-harmonic blocks that every solve of it reads; a :class:`Netlist` is
    structurally valid by construction, so only a portless one is refused.

    Unknowns per harmonic: node voltages, then the current of each modulated
    branch, then its charge.  The elastance terms, the only ones coupling
    harmonics, then fill one contiguous block: the current rows by the charge
    columns (see _coupling).  ``modulations`` holds each modulated branch's
    ModulationSpec (or None) in element order, and ``f_mod`` their common
    frequency (None when static); :meth:`modulate` rewrites both.
    """

    def __init__(self, net: Netlist):
        if not net.ports:
            raise ValueError("netlist has no ports")
        row: dict[str, int] = {}
        for el in net.elements:
            for n in (el.node,) if isinstance(el, Port) else (el.node_a, el.node_b):
                if n != GROUND:
                    row.setdefault(n, len(row))
        nb = len(net.modulated)
        nu = len(row) + 2 * nb
        g, c, k = np.zeros((3, nu, nu))

        def incidence(node_a: str, node_b: str) -> list[tuple[int, float]]:
            """Rows of the non-ground ends, signed +1 at node_a and -1 at node_b."""
            return [(row[n], s) for n, s in ((node_a, 1.0), (node_b, -1.0)) if n != GROUND]

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
                stamp_admittance(g, el.node, GROUND, 1.0 / el.z0)
            elif isinstance(el, ModulatedSeriesRlc):
                cq = ci + nb
                # KCL: branch current leaves node_a, enters node_b.
                # KVL: V_a - V_b - (r + j*w*l)*I - sum_n G_{m-n}*Q_n = 0.
                for r, sign in incidence(el.node_a, el.node_b):
                    g[r, ci] += sign
                    g[ci, r] += sign
                g[ci, ci] -= el.branch.r_m
                c[ci, ci] -= el.branch.l_m
                # Charge: j*w*Q - I = 0.
                c[cq, cq] += 1.0
                g[cq, ci] -= 1.0
                ci += 1
        self.nu = nu  # unknowns per harmonic
        self.nb = nb  # modulated branches: currents at nu-2*nb .. nu-nb-1, charges at nu-nb .. nu-1
        self.g = g  # constant: resistors, ports, branch incidence, -r_m, charge row
        self.c = c  # coefficient of j*omega: capacitors, -l_m, charge
        self.k = k  # coefficient of 1/(j*omega): inductors
        # (3, nu, nu): -G_-1, -G_0, -G_+1; m[d + 1] couples block h to h - d;
        # zero outside the (currents x charges) block
        self.m = np.zeros((3, nu, nu), dtype=complex)
        self.ports = net.ports
        self.port_rows = [row[p.node] for p in self.ports]  # block row of each port's node
        self.z0 = np.array([p.z0 for p in self.ports])  # reference impedance of each port
        self._branches = [el.branch for el in net.modulated]
        self._excitations: dict[int, np.ndarray] = {}  # by n_harm
        self.modulate([el.modulation for el in net.modulated])

    def modulate(self, modulations) -> None:
        """Write the elastance terms -G_-1, -G_0, -G_+1 of each modulated
        branch into m; ``modulations`` gives each one, in element order, its
        ModulationSpec (or None).  Rewriting them is all it takes to move the
        stamped netlist to a new modulation."""
        modulations = tuple(modulations)
        cur, chg = _coupling(self)
        for i, (branch, mod) in enumerate(zip(self._branches, modulations, strict=True)):
            # 0 - G keeps a zero coefficient +0, as subtracting from a fresh stamp does
            self.m[:, cur.start + i, chg.start + i] = 0.0 - elastance_fourier(branch, mod)
        self.modulations = modulations
        self.f_mod = next((m.f_mod for m in self.modulations if m is not None), None)

    def excitation(self, basis: HarmonicBasis) -> np.ndarray:
        """:func:`_excitation` at ``basis``, built once per harmonic order."""
        b = self._excitations.get(basis.n_harm)
        if b is None:
            b = self._excitations[basis.n_harm] = _excitation(self, basis)
        return b


def _lift(st: Stamped, basis: HarmonicBasis, f: float) -> np.ndarray:
    """The harmonic system matrix at stimulus frequency f, on :func:`_diagonal`'s blocks."""
    _check_stimulus(f, basis.f_mod, basis.n_harm)
    nu, size = st.nu, basis.size
    h = np.arange(size)
    a = np.zeros((size, nu, size, nu), dtype=complex)
    a[h, :, h, :] = _diagonal(st, TWO_PI * basis.mixing_freqs(f)[None])[0]
    a[h[1:], :, h[:-1], :] = st.m[2]
    a[h[:-1], :, h[1:], :] = st.m[0]
    return a.reshape(size * nu, size * nu)


def _excitation(st: Stamped, basis: HarmonicBasis) -> np.ndarray:
    """All-ports right-hand side: column p is a unit incident wave at port p + 1,
    harmonic 0 (Thevenin source 2*sqrt(z0): Norton current 2/sqrt(z0))."""
    nu, n_ports = st.nu, len(st.ports)
    rhs = np.zeros((basis.size, nu, n_ports), dtype=complex)
    rhs[basis.n_harm, st.port_rows, np.arange(n_ports)] = 2.0 / np.sqrt(st.z0)
    return rhs.reshape(basis.size * nu, n_ports)


def assemble(net: Netlist, basis: HarmonicBasis, f: float,
             excited_port: int = 1) -> HarmonicSystem:
    """Assemble the harmonic MNA system for one stimulus frequency.

    The excited port carries a unit incident wave at harmonic 0; every port
    is terminated in its reference impedance.  Raises
    :class:`DegenerateStimulus` when f collides with a multiple of f_mod.
    """
    st = Stamped(net)
    a = _lift(st, basis, f)
    indices = [p.index for p in st.ports]
    if excited_port not in indices:
        raise ValueError(f"no port with index {excited_port}")
    rhs = st.excitation(basis)[:, indices.index(excited_port)]
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


def _diagonal(st: Stamped, w: np.ndarray) -> np.ndarray:
    """Diagonal blocks D[F, h] = g + j*w*c + k/(j*w) + m_0 at angular frequencies w (F, H)."""
    w = w[:, :, None, None]
    d = np.empty(w.shape[:2] + (st.nu, st.nu), dtype=complex)
    np.divide(st.k, w, out=d.real)      # scratch: the real part is set last
    np.multiply(w, st.c, out=d.imag)
    d.imag -= d.real
    d.imag += st.m[1].imag
    d.real = st.g + st.m[1].real
    return d


def _coupling(st: Stamped) -> tuple[slice, slice]:
    """Rows (branch currents) and columns (branch charges) of the only block
    where m is nonzero."""
    return slice(st.nu - 2 * st.nb, st.nu - st.nb), slice(st.nu - st.nb, st.nu)


def _eliminate(st: Stamped, d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block-Thomas solve of the harmonic systems with diagonal blocks d (F, H, nu, nu).

    ``b`` (H, nu, P) holds the right-hand sides of every point; returns x
    (F, H, nu, P).  Row h reads D_h x_h + m[2] x_h-1 + m[0] x_h+1 = b_h.
    Forward elimination leaves x_h = Y_h - X_h x_h+1 with
    [X_h | Y_h] = (D_h - m[2] X_h-1)^-1 [m[0] | b_h - m[2] Y_h-1].  m[0] and
    m[2] are nonzero only in the (currents, charges) block, so X_h keeps the
    charge columns and each step updates only that block of D_h and the
    current rows of b_h.  d is left as it was given.
    No pivoting crosses blocks: the caller checks the residual.
    """
    n_f, size, nu = d.shape[:3]
    nb = st.nb
    cur, chg = _coupling(st)
    lower = st.m[2, cur, chg]
    saved = d[:, :, cur, chg].copy()         # the steps below overwrite this block
    s = np.zeros((n_f, size, nu, nb + b.shape[-1]), dtype=complex)   # [X_h | Y_h]
    s[:, :, cur, :nb] = st.m[0, cur, chg]                              # holds [m[0] | b_h] until solved
    s[:, :, :, nb:] = b
    for h in range(size):
        if h:
            t = lower @ s[:, h - 1, chg]
            d[:, h, cur, chg] -= t[:, :, :nb]
            s[:, h, cur, nb:] -= t[:, :, nb:]
        s[:, h] = np.linalg.solve(d[:, h], s[:, h])
    d[:, :, cur, chg] = saved
    x = s[:, :, :, nb:]
    for h in range(size - 2, -1, -1):
        x[:, h] -= s[:, h, :, :nb] @ x[:, h + 1, chg]
    return x


def _accepted(st: Stamped, d: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per point: x is finite and max|b - A x| <= RESIDUAL_BOUND of max|b| in
    every column, with A x formed blockwise: the diagonal blocks d, and the
    coupling terms on the (currents, charges) block of the stamps."""
    cur, chg = _coupling(st)
    r = d @ x
    np.subtract(b, r, out=r)
    r[:, 1:, cur] -= st.m[2, cur, chg] @ x[:, :-1, chg]
    r[:, :-1, cur] -= st.m[0, cur, chg] @ x[:, 1:, chg]
    resid = np.abs(r).max(axis=(1, 2))
    bound = RESIDUAL_BOUND * np.abs(b).max(axis=(0, 1))
    return np.all(np.isfinite(x), axis=(1, 2, 3)) & np.all(resid <= bound, axis=1)


def _port_waves(st: Stamped, basis: HarmonicBasis, freqs: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """Port-node solutions (F, H, ports, P) at one chunk of stimulus frequencies.

    Block elimination, then the residual check; a failed point is solved
    again on its dense harmonic matrix, and a chunk where LAPACK meets an
    exactly singular block one point at a time.  The work arrays die here.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d = _diagonal(st, TWO_PI * basis.mixing_freqs(freqs[:, None]))
        try:
            x = _eliminate(st, d, b)
        except np.linalg.LinAlgError:  # an exactly singular block
            if freqs.size > 1:
                return np.concatenate([_port_waves(st, basis, f, b) for f in freqs[:, None]])
            x = np.empty((1,) + b.shape, dtype=complex)
            ok = np.zeros(1, dtype=bool)
        else:
            ok = _accepted(st, d, b, x)
    for i in np.flatnonzero(~ok):
        x[i] = _solve(_lift(st, basis, float(freqs[i])),
                      b.reshape(-1, b.shape[-1])).reshape(b.shape)
    return x[:, :, st.port_rows]


def sparams(net: Netlist | Stamped, basis: HarmonicBasis, freqs, out=None) -> SParamGrid:
    """Multi-harmonic S-parameters over a stimulus frequency grid.

    ``net`` is a :class:`Netlist`, which is stamped here, or a
    :class:`Stamped` netlist at its present modulation; either must be static
    or modulated at basis.f_mod.  Chunks of frequency points are solved
    together by block elimination over the harmonics (:func:`_eliminate`),
    and every point's residual max|b - A x| is checked blockwise against
    RESIDUAL_BOUND.  A point that fails the check, comes out non-finite, or
    meets a singular block when solved alone is solved again on its dense
    harmonic matrix, which raises :class:`NumericallySingular` if it fails
    too.  Points are independent: each point's result does not depend on the
    grid around it, bit for bit, wherever the grid is cut.  ``out``, a
    complex (points, 2 n_harm + 1, ports, ports) array, receives the data.
    """
    st = net if isinstance(net, Stamped) else Stamped(net)
    if st.f_mod is not None and st.f_mod != basis.f_mod:
        raise ValueError(
            f"netlist modulation {st.f_mod} Hz does not match basis {basis.f_mod} Hz")
    freqs = np.asarray(list(freqs), dtype=float)
    check_grid(basis, freqs)
    nu, n_ports = st.nu, len(st.ports)
    b = st.excitation(basis).reshape(basis.size, nu, n_ports)
    chunk = max(1, CHUNK_VALUES // (basis.size * nu * (nu + st.nb + n_ports)))
    data = out if out is not None else np.empty(
        (freqs.size, basis.size, n_ports, n_ports), dtype=complex)
    for c0 in range(0, freqs.size, chunk):
        data[c0:c0 + chunk] = _port_waves(st, basis, freqs[c0:c0 + chunk], b)
    data /= np.sqrt(st.z0)[:, None]                     # (point, harmonic, q, p)
    diag = np.arange(n_ports)
    data[:, basis.n_harm, diag, diag] -= 1.0            # remove the incident waves
    return SParamGrid(frequencies=freqs, n_harm=basis.n_harm, z0=st.z0, data=data)


def check_grid(basis: HarmonicBasis, freqs: np.ndarray) -> None:
    """The stimulus checks :func:`sparams` makes of its whole grid (a float
    array) before it solves any point: ValueError for an empty grid or a
    frequency that is not positive, :class:`DegenerateStimulus` for the
    first point whose mixing frequency would vanish."""
    if freqs.size == 0:
        raise ValueError("need at least one stimulus frequency")
    if np.any(freqs <= 0.0):
        raise ValueError("stimulus frequencies must be positive")
    for f in freqs:
        _check_stimulus(float(f), basis.f_mod, basis.n_harm)


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
    st = Stamped(net)
    s_small = sparams(st, HarmonicBasis(st.f_mod, n_small), [f]).s0[0]
    s_large = sparams(st, HarmonicBasis(st.f_mod, n_large), [f]).s0[0]
    return float(np.max(np.abs(s_large - s_small)))
