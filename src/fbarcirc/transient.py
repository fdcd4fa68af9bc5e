"""Time-domain oracle for modulated netlists.

Fixed-step trapezoidal integration of the same circuits the harmonic engine
solves, plus least-squares extraction of steady-state mixing-product phasors
from the waveform tail.  The point of this module is cross-validation: the
integrator shares no code with the harmonic assembly, so agreement between
the two is strong evidence against stamp or convention bugs.

High-Q circuits at GHz carriers are impractical to integrate directly; use
:func:`fbarcirc.netlist.scale_frequency` to build a desk-scale replica with
identical dimensionless behavior first.
"""

from __future__ import annotations

import gzip
import math
from dataclasses import dataclass

import numpy as np

from .htm import HarmonicBasis, sparams
from .netlist import (Capacitor, Inductor, ModulatedSeriesRlc, Netlist, Port,
                      Resistor)

DIVERGENCE_FACTOR = 1e6
DIVERGENCE_CHECK_STEPS = 10_000


class StepTooLarge(ValueError):
    """Time step leaves fewer than 50 points per stimulus cycle."""


class Diverged(ArithmeticError):
    """Waveform magnitude exceeded the divergence guard."""


class IllConditionedBasis(ValueError):
    """Two extraction tones collide within the resolution of the window."""


@dataclass(frozen=True)
class TransientResult:
    """Per-node voltage waveforms on a uniform time grid."""

    dt: float
    duration: float
    samples: dict[str, np.ndarray]

    @property
    def times(self) -> np.ndarray:
        n = round(self.duration / self.dt)
        return np.arange(n + 1) * self.dt


@dataclass(frozen=True)
class PhasorSet:
    """Extracted phasors per harmonic index and the relative rms misfit."""

    entries: tuple[tuple[int, complex], ...]
    residual: float

    def phasor(self, n: int) -> complex:
        for k, v in self.entries:
            if k == n:
                return v
        raise KeyError(n)


def _solve_dense(a: list[list[float]], b: list[float]) -> list[float]:
    """In-place Gaussian elimination with partial pivoting for tiny systems."""
    n = len(b)
    for k in range(n):
        p = k
        best = abs(a[k][k])
        for i in range(k + 1, n):
            v = abs(a[i][k])
            if v > best:
                best = v
                p = i
        if best == 0.0:
            raise Diverged("singular transient system")
        if p != k:
            a[k], a[p] = a[p], a[k]
            b[k], b[p] = b[p], b[k]
        ak = a[k]
        pivot = ak[k]
        for i in range(k + 1, n):
            ai = a[i]
            m = ai[k] / pivot
            if m != 0.0:
                ai[k] = 0.0
                for j in range(k + 1, n):
                    ai[j] -= m * ak[j]
                b[i] -= m * b[k]
    x = [0.0] * n
    for k in range(n - 1, -1, -1):
        ak = a[k]
        s = b[k]
        for j in range(k + 1, n):
            s -= ak[j] * x[j]
        x[k] = s / ak[k]
    return x


def simulate(net: Netlist, tone: tuple[int, float, float], duration: float,
             dt: float) -> TransientResult:
    """Integrate the netlist driven by one port tone with the trapezoidal rule.

    ``tone`` is (port_index, frequency_hz, incident_wave_amplitude); the
    driven port carries a Thevenin source 2*sqrt(z0)*amplitude*cos(2*pi*f*t)
    so the incident wave matches the harmonic engine's normalization.  All
    ports are terminated in their reference impedance.

    Raises :class:`StepTooLarge` below 50 points per stimulus cycle and
    :class:`Diverged` when any node magnitude exceeds 1e6 times the source
    amplitude (checked every 10^4 steps).
    """
    port_index, f_stim, amplitude = tone
    if dt <= 0.0 or duration <= 0.0:
        raise ValueError("dt and duration must be positive")
    if dt > 1.0 / (50.0 * f_stim):
        raise StepTooLarge(f"dt={dt} gives fewer than 50 points per cycle at {f_stim} Hz")

    node_names = [n for n in sorted(net.nodes) if n != net.ground]
    # keep builder ordering stable: sort is deterministic, index by name
    nidx = {n: i for i, n in enumerate(node_names)}
    nn = len(node_names)
    branches = [el for el in net.elements if isinstance(el, ModulatedSeriesRlc)]
    nb = len(branches)
    nu = nn + 2 * nb

    def node_of(name: str) -> int | None:
        return None if name == net.ground else nidx[name]

    w_stim = 2.0 * math.pi * f_stim
    vs_amp = 0.0
    a0 = [[0.0] * nu for _ in range(nu)]

    def quad(ia, ib, g):
        if ia is not None:
            a0[ia][ia] += g
        if ib is not None:
            a0[ib][ib] += g
        if ia is not None and ib is not None:
            a0[ia][ib] -= g
            a0[ib][ia] -= g

    # Constant matrix entries and per-element integration metadata.
    caps = []        # (ia, ib, g_c) with state i_c
    inductors = []   # (ia, ib, g_l) with state i_l
    port_meta = []   # (ia, z0, vs_amp)
    for el in net.elements:
        if isinstance(el, Resistor):
            quad(node_of(el.node_a), node_of(el.node_b), 1.0 / el.ohms)
        elif isinstance(el, Capacitor):
            ia, ib = node_of(el.node_a), node_of(el.node_b)
            g = 2.0 * el.farads / dt
            quad(ia, ib, g)
            caps.append([ia, ib, g, 0.0])
        elif isinstance(el, Inductor):
            ia, ib = node_of(el.node_a), node_of(el.node_b)
            g = dt / (2.0 * el.henries)
            quad(ia, ib, g)
            inductors.append([ia, ib, g, 0.0])
        elif isinstance(el, Port):
            ia = node_of(el.node)
            if ia is None:
                raise ValueError(f"port {el.index} must not sit on the ground node")
            quad(ia, None, 1.0 / el.z0)
            amp = 2.0 * math.sqrt(el.z0) * amplitude if el.index == port_index else 0.0
            vs_amp = max(vs_amp, amp)
            if amp != 0.0:
                port_meta.append((ia, el.z0, amp))
    if not any(isinstance(el, Port) and el.index == port_index for el in net.elements):
        raise ValueError(f"no port with index {port_index}")

    branch_meta = []
    for bi, el in enumerate(branches):
        ia, ib = node_of(el.node_a), node_of(el.node_b)
        ci = nn + 2 * bi
        cu = ci + 1
        b = el.branch
        gl = 2.0 * b.l_m / dt
        dq = dt / (2.0 * b.c_m)
        if ia is not None:
            a0[ia][ci] += 1.0
        if ib is not None:
            a0[ib][ci] -= 1.0
        a0[ci][ci] = gl + b.r_m
        if ia is not None:
            a0[ci][ia] = -1.0
        if ib is not None:
            a0[ci][ib] = 1.0
        a0[cu][cu] = 1.0
        a0[cu][ci] = -dq
        mod = el.modulation
        if mod is None or mod.depth == 0.0:
            a0[ci][cu] = 1.0
            wm, depth, phase = 0.0, 0.0, 0.0
        else:
            wm = 2.0 * math.pi * mod.f_mod
            depth, phase = mod.depth, mod.phase
        # state: [i, u, hist_v]; hist_v = (v_ab - r*i - m(t)*u) at step n
        branch_meta.append([ia, ib, ci, cu, gl, dq, b.r_m, wm, depth, phase, 0.0, 0.0, 0.0])

    steps = round(duration / dt)
    volts = np.empty((steps + 1, nn))
    volts[0] = 0.0
    vprev = [0.0] * nn
    limit = DIVERGENCE_FACTOR * max(vs_amp, 1e-30)
    cos = math.cos

    def vdiff(vec, ia, ib):
        va = vec[ia] if ia is not None else 0.0
        vb = vec[ib] if ib is not None else 0.0
        return va - vb

    for k in range(1, steps + 1):
        t1 = k * dt
        a = [row[:] for row in a0]
        rhs = [0.0] * nu
        for ia, z0, amp in port_meta:
            rhs[ia] += amp * cos(w_stim * t1) / z0
        for c in caps:
            ia, ib, g, ic = c
            h = g * vdiff(vprev, ia, ib) + ic
            if ia is not None:
                rhs[ia] += h
            if ib is not None:
                rhs[ib] -= h
        for ind in inductors:
            ia, ib, g, il = ind
            h = il + g * vdiff(vprev, ia, ib)
            if ia is not None:
                rhs[ia] -= h
            if ib is not None:
                rhs[ib] += h
        for bm in branch_meta:
            ci, cu = bm[2], bm[3]
            if bm[8] != 0.0:  # depth
                a[ci][cu] = 1.0 + bm[8] * cos(bm[7] * t1 + bm[9])
            rhs[ci] = bm[4] * bm[10] + bm[12]   # gl*i_n + hist_v
            rhs[cu] = bm[11] + bm[5] * bm[10]   # u_n + dq*i_n

        y = _solve_dense(a, rhs)

        for c in caps:
            ia, ib, g, ic = c
            c[3] = g * (vdiff(y, ia, ib) - vdiff(vprev, ia, ib)) - ic
        for ind in inductors:
            ia, ib, g, il = ind
            ind[3] = il + g * (vdiff(y, ia, ib) + vdiff(vprev, ia, ib))
        for bm in branch_meta:
            ia, ib, ci, cu, gl, dq, r, wm, depth, phase = bm[:10]
            i_new = y[ci]
            u_new = y[cu]
            m_new = 1.0 + depth * cos(wm * t1 + phase) if depth != 0.0 else 1.0
            bm[10] = i_new
            bm[11] = u_new
            bm[12] = vdiff(y, ia, ib) - r * i_new - m_new * u_new
        for i in range(nn):
            vprev[i] = y[i]
        volts[k] = y[:nn]

        if k % DIVERGENCE_CHECK_STEPS == 0 or k == steps:
            block = volts[max(0, k - DIVERGENCE_CHECK_STEPS):k + 1]
            if not np.all(np.isfinite(block)) or np.max(np.abs(block)) > limit:
                raise Diverged(f"waveform exceeded {limit:.3e} V near step {k}")

    samples = {name: volts[:, i].copy() for name, i in nidx.items()}
    return TransientResult(dt=dt, duration=duration, samples=samples)


def extract_phasors(res: TransientResult, node: str, f: float, f_mod: float,
                    n_harm: int) -> PhasorSet:
    """Fit the waveform tail against tones at f + n*f_mod, n in [-N, N].

    The last 25% of the samples (past ring-up) are projected onto
    cos/sin pairs at each mixing frequency by linear least squares; the
    phasor P_n satisfies v(t) ~ sum_n Re[P_n exp(j*2*pi*(f+n*f_mod)*t)].
    ``residual`` is the rms of the unfitted remainder relative to the rms
    of the tail.  Raises :class:`IllConditionedBasis` when two tone
    frequencies fall within 1/window of each other.
    """
    if node not in res.samples:
        raise KeyError(f"no samples for node {node!r}")
    v = res.samples[node]
    times = res.times
    start = (v.size * 3) // 4
    tt = times[start:]
    vv = v[start:]
    window = float(tt[-1] - tt[0])
    if window <= 0.0:
        raise ValueError("empty fit window")

    ns = list(range(-n_harm, n_harm + 1))
    tone_freqs = [f + n * f_mod for n in ns]
    folded = sorted(abs(x) for x in tone_freqs)
    resolution = 1.0 / window
    for a, b in zip(folded, folded[1:]):
        if b - a < resolution:
            raise IllConditionedBasis(
                f"tones {a} and {b} Hz collide within 1/window = {resolution} Hz")
    if folded[0] < resolution:
        raise IllConditionedBasis("a tone sits within 1/window of DC")

    design = np.empty((tt.size, 2 * len(ns)))
    for i, fn in enumerate(tone_freqs):
        wt = 2.0 * math.pi * fn * tt
        design[:, 2 * i] = np.cos(wt)
        design[:, 2 * i + 1] = np.sin(wt)
    coef, *_ = np.linalg.lstsq(design, vv, rcond=None)
    fit = design @ coef
    rms_v = float(np.sqrt(np.mean(vv * vv)))
    rms_r = float(np.sqrt(np.mean((vv - fit) ** 2)))
    residual = rms_r / rms_v if rms_v > 0.0 else 0.0
    entries = tuple((n, complex(coef[2 * i], -coef[2 * i + 1]))
                    for i, n in enumerate(ns))
    return PhasorSet(entries=entries, residual=residual)


def _ring_up_time(net: Netlist) -> float:
    q_max = 0.0
    f_min = math.inf
    for el in net.modulated:
        q_max = max(q_max, min(el.branch.q, 1e4))
        f_min = min(f_min, el.branch.f_s)
    if not math.isfinite(f_min) or q_max == 0.0:
        return 0.0
    return 5.0 * q_max / (math.pi * f_min)


def cross_validate(net: Netlist, basis: HarmonicBasis, f: float,
                   ports: tuple[int, int] = (1, 2), pts_per_cycle: int = 400,
                   mod_periods: float = 22.0) -> float:
    """Max relative disagreement between the harmonic and transient engines.

    Excites port ``ports[0]`` and compares S^(n) at port ``ports[1]`` for
    n in {-1, 0, 1}.  Each harmonic's error is normalized by
    max(|S^(n)|, 0.05 * max_k |S^(k)|) so structurally tiny entries are
    measured against the dominant response instead of dividing by zero.

    The transient runs ``mod_periods`` modulation periods past ring-up at
    ``pts_per_cycle`` points per stimulus cycle; both significantly exceed
    the preconditions of :func:`simulate` by default.
    """
    p_in, q_out = ports
    port_map = {p.index: p for p in net.ports}
    if p_in not in port_map or q_out not in port_map:
        raise ValueError(f"ports {ports} not present in netlist")

    grid = sparams(net, basis, [f])
    qi, pi = q_out - 1, p_in - 1
    s_htm = np.array([grid.harmonic(n)[0, qi, pi] for n in (-1, 0, 1)])

    dt = 1.0 / (pts_per_cycle * f)
    duration = _ring_up_time(net) + mod_periods / basis.f_mod
    res = simulate(net, (p_in, f, 1.0), duration, dt)
    phasors = extract_phasors(res, port_map[q_out].node, f, basis.f_mod, basis.n_harm)
    sqrt_z0 = math.sqrt(port_map[q_out].z0)
    s_td = []
    for n in (-1, 0, 1):
        b = phasors.phasor(n) / sqrt_z0
        if q_out == p_in and n == 0:
            b -= 1.0
        s_td.append(b)
    s_td = np.array(s_td)

    floor = 0.05 * float(np.max(np.abs(s_htm)))
    denom = np.maximum(np.abs(s_htm), max(floor, 1e-12))
    return float(np.max(np.abs(s_td - s_htm) / denom))


def write_waveforms(res: TransientResult, path) -> None:
    """Dump waveforms as CSV (t_s, one column per node); gzip when path ends .gz."""
    path = str(path)
    nodes = sorted(res.samples)
    times = res.times
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "wt", encoding="utf-8") as fh:
        fh.write("t_s," + ",".join(f"v_{n}" for n in nodes) + "\n")
        cols = [res.samples[n] for n in nodes]
        for i, t in enumerate(times):
            fh.write(f"{float(t)!r}," + ",".join(repr(float(c[i])) for c in cols) + "\n")


def read_waveforms(path) -> TransientResult:
    """Read a waveform CSV produced by :func:`write_waveforms`."""
    path = str(path)
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        nodes = [h[2:] for h in header[1:]]
        rows = [list(map(float, line.strip().split(","))) for line in fh if line.strip()]
    arr = np.asarray(rows)
    times = arr[:, 0]
    dt = float(times[1] - times[0]) if times.size > 1 else 1.0
    samples = {n: arr[:, i + 1].copy() for i, n in enumerate(nodes)}
    return TransientResult(dt=dt, duration=float(times[-1]), samples=samples)
