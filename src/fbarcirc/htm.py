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
diagonal blocks of every harmonic are built in one pass, which forms per
harmonic only the entries where c or k is nonzero, then each harmonic takes
one small coupling product and one batched LAPACK solve, then
back-substitution.  The elimination does not pivot across blocks, so every
solve is checked: the residual max|b - A x| is formed blockwise from the
diagonal blocks and the coupling stamps, and a point above 1e-6 of
max|b|, or with a non-finite value, is solved again on its dense harmonic
matrix with LAPACK's pivoted LU (``numpy.linalg.solve``); a block that
LAPACK finds exactly singular leaves its own point non-finite, so a
point's bits never depend on its chunk.  The dense solve raises
NumericallySingular when it fails the same check.  :func:`assemble`
and :func:`solve` expose one point's dense matrix and solution for timing
probes.

A :class:`Stamped` netlist holds those blocks, and :func:`sparams` solves
a netlist or a Stamped one, so a caller stamps once however often it
solves.  The modulation enters the stamps only through the m blocks:
:meth:`Stamped.modulate` rewrites them from the branch depths, so the
tuner stamps its design once and solves every evaluation's depth on it, a
few points at a time: with one point of depths per stimulus frequency and a
basis of one f_mod per point, one elimination solves points that each have
their own modulation.  f_mod enters only through the basis.

What such a batch costs: on the differential circulator at N = 5 (nu = 17,
11 harmonic blocks), on one core of a 2-vCPU Xeon (AVX-512, numpy 2.4 with
OpenBLAS, one BLAS thread), a tuner batch of K points (remodulation,
:func:`sparams` and the metrics) costs about 250 us plus 155 us per point:
400 us at one point, 570 at two, 870 at four.  Its 11 zgesv calls take
about 100 us per point.  The rest is the numpy calls around them, each on a
few hundred values: the elimination's coupling products, subtractions and
views, the residual check, the diagonal blocks and the remodulation.  So
what does not change between calls is formed once per stamp (the
excitation with its residual bound, the sqrt(z0) scaling), and the
angular mixing frequencies of a grid are formed once, before it is cut
into chunks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .netlist import (GROUND, Capacitor, Inductor, ModulatedSeriesRlc, Netlist, Port,
                      Resistor)

TWO_PI = 2.0 * math.pi

# numpy.linalg.solve's gufunc, one LAPACK zgesv per matrix of a stack, without
# that function's checks and wrapping (a third of its cost on a small batch); it
# leaves the solution of an exactly singular matrix NaN, where solve raises
_gesv = _umath_linalg.solve

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
    """Mixing basis: frequencies f + n*f_mod for n in [-n_harm, n_harm], with
    one f_mod for every stimulus point or a tuple of one per point."""

    f_mod: float | tuple[float, ...]
    n_harm: int

    def __post_init__(self) -> None:
        for f_mod in _f_mods(self, 1):
            if not (math.isfinite(f_mod) and f_mod > 0.0):
                raise ValueError(f"f_mod must be positive, got {f_mod}")
        if self.n_harm < 1:
            raise ValueError(f"n_harm must be >= 1, got {self.n_harm}")

    @property
    def size(self) -> int:
        return 2 * self.n_harm + 1

    def mixing_freqs(self, f) -> np.ndarray:
        """(..., H) at stimulus f, or (F, H) at a column f (F, 1) of F points."""
        return f + np.multiply.outer(self.f_mod, np.arange(-self.n_harm, self.n_harm + 1))


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
    columns (see _coupling).  The stamp keeps each modulated branch's G_0 =
    1/c_m and phase rotor exp(j*phase) (phase 0 for a static branch), and
    ``m`` holds one or more points of branch depths on a leading point axis
    (:meth:`modulate`).  A netlist's stamp holds its own depths; f_mod lives
    only in the :class:`HarmonicBasis` it is solved on.
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
        self._reactive = np.nonzero((c != 0.0) | (k != 0.0))  # the entries that move with omega
        self.ports = net.ports
        self.port_rows = [row[p.node] for p in self.ports]  # block row of each port's node
        self.z0 = np.array([p.z0 for p in self.ports])  # reference impedance of each port
        self._sqrt_z0 = np.sqrt(self.z0)[:, None]  # turns port voltages into waves
        self._g0 = np.array([1.0 / el.branch.c_m for el in net.modulated])  # G_0 of each branch
        self._rotor = np.array([cmath.exp(1j * (0.0 if el.modulation is None else
                                                el.modulation.phase)) for el in net.modulated])
        self._excitations: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # by n_harm
        self.modulate([0.0 if el.modulation is None else el.modulation.depth
                       for el in net.modulated])

    def modulate(self, *points) -> None:
        """Write each modulated branch's elastance Fourier terms -G_-1, -G_0,
        -G_+1 into m, G_0 = 1/c_m and G_+1 = conj(G_-1) = depth/2 * exp(j*phase)/c_m,
        at one depth per branch, in element order, per point; one point holds
        for every stimulus frequency :func:`sparams` solves, K for K."""
        depth = np.array(points, dtype=float)
        if depth.ndim != 2 or depth.shape[1] != self.nb:
            raise ValueError(f"modulate needs one or more points of {self.nb} depths, "
                             f"got shape {depth.shape}")
        if not np.all((depth >= 0.0) & (depth < 1.0)):
            raise ValueError(f"modulation depth must lie in [0, 1), got {depth.tolist()}")
        cur, chg = _coupling(self)
        # where 1/c_m overflows, G_+-1 is inf or NaN, as Python's complex
        # arithmetic leaves it, but exactly 0 at a zero depth
        with np.errstate(invalid="ignore"):
            g1 = 0.5 * depth * np.where(depth == 0.0, 0.0, self._g0) * self._rotor
        g = np.stack([g1.conj(), np.broadcast_to(self._g0, g1.shape), g1], axis=1)
        # (points, 3, nu, nu): -G_-1, -G_0, -G_+1; m[:, d + 1] couples block h
        # to h - d; zero outside the (currents x charges) block
        self.m = np.zeros((len(depth), 3, self.nu, self.nu), dtype=complex)
        i = np.arange(self.nb)
        # 0 - G keeps a zero coefficient +0, as subtracting from a fresh stamp does
        self.m[:, :, cur.start + i, chg.start + i] = 0.0 - g

    def excitation(self, basis: HarmonicBasis) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_excitation` at ``basis`` as (harmonic, row, port) blocks,
        and the residual each port's column may leave, RESIDUAL_BOUND of its
        max|b|; both built once per harmonic order."""
        cached = self._excitations.get(basis.n_harm)
        if cached is None:
            b = _excitation(self, basis).reshape(basis.size, self.nu, -1)
            cached = self._excitations[basis.n_harm] = (
                b, RESIDUAL_BOUND * np.abs(b).max(axis=(0, 1)))
        return cached


def _lift(st: Stamped, m: np.ndarray, basis: HarmonicBasis, f: float) -> np.ndarray:
    """The harmonic system matrix at stimulus frequency f, on :func:`_diagonal`'s
    blocks, with one point's coupling stamps m (3, nu, nu)."""
    _check_stimulus(f, basis.f_mod, basis.n_harm)
    nu, size = st.nu, basis.size
    h = np.arange(size)
    a = np.zeros((size, nu, size, nu), dtype=complex)
    a[h, :, h, :] = _diagonal(st, TWO_PI * basis.mixing_freqs(f)[None], m)[0]
    a[h[1:], :, h[:-1], :] = m[2]
    a[h[:-1], :, h[1:], :] = m[0]
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
    a = _lift(st, st.m[0], basis, f)
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


def _diagonal(st: Stamped, w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Diagonal blocks D[F, h] = g + j*w*c + k/(j*w) + m_0 at angular frequencies
    w (F, H), with coupling stamps m (3, nu, nu) or (F, 3, nu, nu).  Only the
    entries where c or k is nonzero move with w.  Every other entry is
    g + m_0 at every harmonic: at a finite nonzero w its w*c - k/w is +0, so
    that sum keeps the bits of the whole formula."""
    m0 = m[..., 1, :, :]
    rows, cols = st._reactive
    d = np.empty(w.shape + (st.nu, st.nu), dtype=complex)
    d[...] = (st.g + m0)[..., None, :, :]
    w = w[..., None]
    d.imag[..., rows, cols] = (w * st.c[rows, cols] - st.k[rows, cols] / w) + m0.imag[
        ..., None, rows, cols]
    return d


def _coupling(st: Stamped) -> tuple[slice, slice]:
    """Rows (branch currents) and columns (branch charges) of the only block
    where m is nonzero."""
    return slice(st.nu - 2 * st.nb, st.nu - st.nb), slice(st.nu - st.nb, st.nu)


def _eliminate(st: Stamped, m: np.ndarray, d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block-Thomas solve of the harmonic systems with diagonal blocks d (F, H, nu, nu).

    ``m`` (F, 3, nu, nu) holds each point's coupling stamps, ``b`` (H, nu, P)
    the right-hand sides of every point; returns x (F, H, nu, P).  Row h of
    a point reads D_h x_h + m[2] x_h-1 + m[0] x_h+1 = b_h.
    Forward elimination leaves x_h = Y_h - X_h x_h+1 with
    [X_h | Y_h] = (D_h - m[2] X_h-1)^-1 [m[0] | b_h - m[2] Y_h-1].  m[0] and
    m[2] are nonzero only in the (currents, charges) block, so X_h keeps the
    charge columns and each step updates only that block of D_h and the
    current rows of b_h.  d is left as it was given.  The loops index views
    made once, harmonic first, and write each product into one buffer.
    No pivoting crosses blocks: the caller checks the residual.
    """
    n_f, size, nu = d.shape[:3]
    nb = st.nb
    cur, chg = _coupling(st)
    lower = m[:, 2, cur, chg]
    block = d[:, :, cur, chg]
    saved = block.copy()                     # the steps below overwrite this block
    s = np.zeros((n_f, size, nu, nb + b.shape[-1]), dtype=complex)   # [X_h | Y_h]
    s[:, :, cur, :nb] = m[:, None, 0, cur, chg]            # holds [m[0] | b_h] until solved
    s[:, :, :, nb:] = b
    x = s[:, :, :, nb:]
    d_h, s_h, block_h = d.swapaxes(0, 1), s.swapaxes(0, 1), block.swapaxes(0, 1)
    rhs_h, coupled_h = s[:, :, cur, nb:].swapaxes(0, 1), s[:, :, chg].swapaxes(0, 1)
    t = np.empty((n_f, nb, nb + b.shape[-1]), dtype=complex)
    t_x, t_y = t[:, :, :nb], t[:, :, nb:]
    for h in range(size):
        if h:
            np.matmul(lower, coupled_h[h - 1], out=t)
            block_h[h] -= t_x
            rhs_h[h] -= t_y
        _gesv(d_h[h], s_h[h], signature="DD->D", out=s_h[h])
    block[...] = saved
    x_h, xc_h, gain_h = x.swapaxes(0, 1), x[:, :, chg].swapaxes(0, 1), s[..., :nb].swapaxes(0, 1)
    u = np.empty((n_f, nu, b.shape[-1]), dtype=complex)
    for h in range(size - 2, -1, -1):
        np.matmul(gain_h[h], xc_h[h + 1], out=u)
        x_h[h] -= u
    return x


def _accepted(st: Stamped, m: np.ndarray, d: np.ndarray, b: np.ndarray,
              x: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Per point: max|b - A x| <= ``bound`` (RESIDUAL_BOUND of max|b|) in
    every column, with A x formed blockwise: the diagonal blocks d, and the
    coupling terms of each point's stamps m.  :meth:`Stamped.modulate` writes
    those only at (current i, charge i), so each term is the diagonal of its
    (currents, charges) block times the charge rows of x, elementwise.  A
    non-finite entry of x leaves its column's residual NaN or inf, so it
    fails."""
    cur, chg = _coupling(st)
    r = d @ x
    np.subtract(b, r, out=r)
    lower, upper = (m[:, k, cur, chg].diagonal(axis1=1, axis2=2)[:, None, :, None]
                    for k in (2, 0))
    r[:, 1:, cur] -= lower * x[:, :-1, chg]
    r[:, :-1, cur] -= upper * x[:, 1:, chg]
    return (np.abs(r) <= bound).reshape(len(r), -1).all(axis=1)


def _point(basis: HarmonicBasis, point: int) -> HarmonicBasis:
    """The basis of one point of a grid."""
    f_mod = basis.f_mod[point] if isinstance(basis.f_mod, tuple) else basis.f_mod
    return HarmonicBasis(f_mod, basis.n_harm)


def _f_mods(basis: HarmonicBasis, points: int) -> tuple:
    """Each point's f_mod, for a grid of ``points`` stimulus frequencies."""
    return basis.f_mod if isinstance(basis.f_mod, tuple) else (basis.f_mod,) * points


def _port_waves(st: Stamped, basis: HarmonicBasis, freqs: np.ndarray, w: np.ndarray,
                m: np.ndarray, b: np.ndarray, bound: np.ndarray, first: int) -> np.ndarray:
    """Port-node solutions (F, H, ports, P) at one chunk of stimulus frequencies,
    the grid's points first, first + 1, ... of ``basis``, with their angular
    mixing frequencies w (F, H) and coupling stamps m (F, 3, nu, nu), for the
    excitation b and residual bound of :meth:`Stamped.excitation`.

    Block elimination, then the residual check; a failed point, or one with
    an exactly singular block, is solved again on its dense harmonic matrix.
    The work arrays die here.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d = _diagonal(st, w, m)
        x = _eliminate(st, m, d, b)
        ok = _accepted(st, m, d, b, x, bound)
    for i in np.flatnonzero(~ok):
        x[i] = _solve(_lift(st, m[i], _point(basis, first + i), float(freqs[i])),
                      b.reshape(-1, b.shape[-1])).reshape(b.shape)
    return x[:, :, st.port_rows]


def sparams(net: Netlist | Stamped, basis: HarmonicBasis, freqs, out=None) -> SParamGrid:
    """Multi-harmonic S-parameters over a stimulus frequency grid.

    ``net`` is a :class:`Netlist`, which is stamped here and must be static
    or modulated at basis.f_mod, or a :class:`Stamped` netlist at its
    present depths, modulated at basis.f_mod.  A stamp with one point of
    depths per frequency and a basis with one f_mod per point solve a batch
    of points that each have their own modulation.  Chunks of frequency
    points are solved together by block elimination over the harmonics (:func:`_eliminate`),
    and every point's residual max|b - A x| is checked blockwise against
    RESIDUAL_BOUND.  A point that fails the check or comes out non-finite (as
    an exactly singular block leaves it) is solved again on its dense
    harmonic matrix, which raises :class:`NumericallySingular` if it fails
    too.  Points are independent: each point's result does not depend on the
    grid around it, bit for bit, wherever the grid is cut.  ``out``, a
    complex (points, 2 n_harm + 1, ports, ports) array, receives the data.
    """
    freqs = np.asarray(list(freqs), dtype=float)
    f_mods = _f_mods(basis, freqs.size)
    if isinstance(net, Netlist):
        own = {el.modulation.f_mod for el in net.modulated if el.modulation is not None}
        bad = [f_mod for f_mod in f_mods if own and f_mod not in own]
        if bad:
            raise ValueError(f"netlist modulation {own.pop()} Hz does not match basis {bad[0]} Hz")
    st = net if isinstance(net, Stamped) else Stamped(net)
    if len(st.m) not in (1, freqs.size) or len(f_mods) != freqs.size:
        raise ValueError(f"{freqs.size} stimulus frequencies need one modulation and f_mod "
                         f"for all or one each, got {len(st.m)} and {len(f_mods)}")
    check_grid(basis, freqs)
    nu, n_ports = st.nu, len(st.ports)
    m = np.broadcast_to(st.m, freqs.shape + st.m.shape[1:])
    w = TWO_PI * basis.mixing_freqs(freqs[:, None])
    b, bound = st.excitation(basis)
    chunk = max(1, CHUNK_VALUES // (basis.size * nu * (nu + st.nb + n_ports)))
    data = out if out is not None else np.empty(
        (freqs.size, basis.size, n_ports, n_ports), dtype=complex)
    for c0 in range(0, freqs.size, chunk):
        c = slice(c0, c0 + chunk)
        data[c] = _port_waves(st, basis, freqs[c], w[c], m[c], b, bound, c0)
    data /= st._sqrt_z0                                 # (point, harmonic, q, p)
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
    for f, f_mod in zip(freqs, _f_mods(basis, freqs.size)):
        _check_stimulus(float(f), f_mod, basis.n_harm)


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
    st, f_mod = Stamped(net), active[0].modulation.f_mod
    s_small = sparams(st, HarmonicBasis(f_mod, n_small), [f]).s0[0]
    s_large = sparams(st, HarmonicBasis(f_mod, n_large), [f]).s0[0]
    return float(np.max(np.abs(s_large - s_small)))
