"""Time-domain oracle for modulated netlists.

Fixed-step trapezoidal integration of the same circuits the harmonic engine
solves, plus least-squares extraction of steady-state mixing-product phasors
from the waveform tail.  The point of this module is cross-validation: the
integrator shares no code with the harmonic assembly, so agreement between
the two is strong evidence against stamp or convention bugs.

The netlist is stamped once into real matrices, ``C x' + G(t) x = u(t)``:
the unknowns are the non-ground node voltages, one current per inductor and
(i, u = q/c_m) per modulated branch, and only each modulated branch's
elastance factor m(t) = 1 + depth*cos(w_m t + phase) in G changes with time.
With K = 2C/dt and the history h = K x + C x', zero at t = 0 (no stored
charge or flux, and the source not averaged into the first step), one
trapezoidal step is

    x1 = A1^-1 (h0 + u1),   A1 = K + G(t1),   h1 = 2K x1 - h0.

Steps run in blocks: one batched LAPACK inverse of the block's step
matrices, then the recurrence h <- (2K A^-1 - I) h + 2K A^-1 u with one
small matrix-vector product per step, then the block's node voltages in
one batched product.

High-Q circuits at GHz carriers are impractical to integrate directly, so
the verify workflow builds each check circuit at its own frequency and
integrates the desk-scale replica :func:`fbarcirc.netlist.scale_frequency`
makes of it, whose dimensionless behavior is identical.
"""

from __future__ import annotations

import gzip
import io
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


def _stamp(net: Netlist, port_index: int, amplitude: float):
    """Node names and the real C, G and s of ``C x' + G(t) x = s*cos(w t)``.

    Unknowns: the node voltages (sorted by name), then one current per
    inductor, then (i, u) per modulated branch.  G holds m = 1 at every
    branch's (i, u) entry; each row (i, depth, w_m, phase) of the returned
    ``mod`` marks a branch whose entry is m(t) instead.
    """
    node_names = [n for n in sorted(net.nodes) if n != net.ground]
    nidx = {n: i for i, n in enumerate(node_names)}
    currents = [el for el in net.elements if isinstance(el, (Inductor, ModulatedSeriesRlc))]
    nu = len(nidx) + sum(2 if isinstance(el, ModulatedSeriesRlc) else 1 for el in currents)
    c = np.zeros((nu, nu))
    g = np.zeros((nu, nu))
    s = np.zeros(nu)
    mod = []

    def incidence(a: str, b: str) -> np.ndarray:
        e = np.zeros(nu)
        if a != net.ground:
            e[nidx[a]] += 1.0
        if b != net.ground:
            e[nidx[b]] -= 1.0
        return e

    for el in net.elements:
        if isinstance(el, Resistor):
            e = incidence(el.node_a, el.node_b)
            g += np.outer(e, e) / el.ohms
        elif isinstance(el, Capacitor):
            e = incidence(el.node_a, el.node_b)
            c += np.outer(e, e) * el.farads
        elif isinstance(el, Port):
            if el.node == net.ground:
                raise ValueError(f"port {el.index} must not sit on the ground node")
            e = incidence(el.node, net.ground)
            g += np.outer(e, e) / el.z0
            if el.index == port_index:
                s += e * (2.0 * math.sqrt(el.z0) * amplitude / el.z0)

    k = len(nidx)
    for el in currents:
        # current k leaves node_a and enters node_b; its row is l di/dt - v_ab (+ r i + m u) = 0
        e = incidence(el.node_a, el.node_b)
        g[:, k] += e
        g[k, :] -= e
        if isinstance(el, Inductor):
            c[k, k] = el.henries
            k += 1
        else:  # and the charge row c_m du/dt - i = 0
            b = el.branch
            c[k, k] = b.l_m
            g[k, k] = b.r_m
            g[k, k + 1] = 1.0
            c[k + 1, k + 1] = b.c_m
            g[k + 1, k] = -1.0
            m = el.modulation
            if m is not None and m.depth != 0.0:
                mod.append((k, m.depth, 2.0 * math.pi * m.f_mod, m.phase))
            k += 2
    return node_names, c, g, s, np.array(mod).reshape(-1, 4)


def simulate(net: Netlist, tone: tuple[int, float, float], duration: float,
             dt: float) -> TransientResult:
    """Integrate the netlist driven by one port tone with the trapezoidal rule.

    ``tone`` is (port_index, frequency_hz, incident_wave_amplitude); the
    driven port carries a Thevenin source 2*sqrt(z0)*amplitude*cos(2*pi*f*t)
    so the incident wave matches the harmonic engine's normalization.  All
    ports are terminated in their reference impedance.

    Raises :class:`StepTooLarge` below 50 points per stimulus cycle and
    :class:`Diverged` on a singular step matrix or when any node magnitude
    exceeds 1e6 times the source amplitude (checked every 10^4 steps).
    """
    port_index, f_stim, amplitude = tone
    if dt <= 0.0 or duration <= 0.0:
        raise ValueError("dt and duration must be positive")
    if dt > 1.0 / (50.0 * f_stim):
        raise StepTooLarge(f"dt={dt} gives fewer than 50 points per cycle at {f_stim} Hz")

    sources = [2.0 * math.sqrt(p.z0) * amplitude for p in net.ports if p.index == port_index]
    if not sources:
        raise ValueError(f"no port with index {port_index}")
    limit = DIVERGENCE_FACTOR * max(sources + [1e-30])

    node_names, c, g, s, mod = _stamp(net, port_index, amplitude)
    nn, nu = len(node_names), s.size
    rows = mod[:, 0].astype(int)
    k = 2.0 * c / dt
    a0 = k + g
    w_stim = 2.0 * math.pi * f_stim

    steps = round(duration / dt)
    volts = np.zeros((nn, steps + 1))
    h = np.zeros(nu)
    for first in range(1, steps + 1, DIVERGENCE_CHECK_STEPS):
        t = np.arange(first, min(first + DIVERGENCE_CHECK_STEPS, steps + 1)) * dt
        a = a0  # a static netlist has one step matrix, broadcast over the block
        if len(mod):
            a = np.repeat(a0[None], t.size, axis=0)
            a[:, rows, rows + 1] = 1.0 + mod[:, 1] * np.cos(np.outer(t, mod[:, 2]) + mod[:, 3])
        try:
            a_inv = np.linalg.inv(a)
        except np.linalg.LinAlgError as exc:
            raise Diverged("singular transient system") from exc
        if not np.all(np.isfinite(a_inv)):
            raise Diverged("singular transient system")
        u = np.outer(np.cos(w_stim * t), s)[:, :, None]
        step = (2.0 * k) @ a_inv
        drive = (step @ u)[:, :, 0]
        step -= np.eye(nu)
        hist = np.empty((t.size, nu))
        for m, f, out in zip(np.broadcast_to(step, (t.size, nu, nu)), drive, hist):
            out[:] = h
            h = m.dot(h)
            h += f
        block = (a_inv[..., :nn, :] @ (hist[:, :, None] + u))[:, :, 0]
        volts[:, first:first + t.size] = block.T
        if not np.all(np.isfinite(block)) or np.max(np.abs(block)) > limit:
            raise Diverged(f"waveform exceeded {limit:.3e} V near step {first + t.size - 1}")

    return TransientResult(dt=dt, duration=duration, samples=dict(zip(node_names, volts)))


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


def time_grid(net: Netlist, f: float, f_mod: float, pts_per_cycle: int,
              mod_periods: float) -> tuple[float, float]:
    """(dt, duration) of a cross-check run: ``pts_per_cycle`` steps per
    stimulus cycle, for five time constants of the highest-Q (capped at
    1e4), lowest-frequency branch plus ``mod_periods`` modulation periods."""
    q_max = 0.0
    f_min = math.inf
    for el in net.modulated:
        q_max = max(q_max, min(el.branch.q, 1e4))
        f_min = min(f_min, el.branch.f_s)
    ring_up = 5.0 * q_max / (math.pi * f_min) if math.isfinite(f_min) and q_max else 0.0
    return 1.0 / (pts_per_cycle * f), ring_up + mod_periods / f_mod


def cross_validate(net: Netlist, basis: HarmonicBasis, f: float,
                   ports: tuple[int, int] = (1, 2), pts_per_cycle: int = 400,
                   mod_periods: float = 22.0, waveforms_path=None) -> float:
    """Max relative disagreement between the harmonic and transient engines.

    Excites port ``ports[0]`` and compares S^(n) at port ``ports[1]`` for
    n in {-1, 0, 1}.  Each harmonic's error is normalized by
    max(|S^(n)|, 0.05 * max_k |S^(k)|) so structurally tiny entries are
    measured against the dominant response instead of dividing by zero.

    The transient runs ``mod_periods`` modulation periods past ring-up at
    ``pts_per_cycle`` points per stimulus cycle; both significantly exceed
    the preconditions of :func:`simulate` by default.  A ``waveforms_path``
    receives that run through :func:`write_waveforms`.
    """
    p_in, q_out = ports
    port_map = {p.index: p for p in net.ports}
    if p_in not in port_map or q_out not in port_map:
        raise ValueError(f"ports {ports} not present in netlist")

    grid = sparams(net, basis, [f])
    qi, pi = q_out - 1, p_in - 1
    s_htm = np.array([grid.harmonic(n)[0, qi, pi] for n in (-1, 0, 1)])

    dt, duration = time_grid(net, f, basis.f_mod, pts_per_cycle, mod_periods)
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
    if waveforms_path is not None:
        write_waveforms(res, waveforms_path)
    return float(np.max(np.abs(s_td - s_htm) / denom))


def write_waveforms(res: TransientResult, path) -> None:
    """Dump waveforms as CSV (t_s, one column per node); gzip when path ends .gz.

    The gzip member has mtime 0, so equal waveforms give equal bytes.  It uses
    level 1, as ``repr`` digits barely compress: level 9 is 10x slower for 8% less.
    """
    path = str(path)
    nodes = sorted(res.samples)
    cols = [res.times.tolist()] + [res.samples[n].tolist() for n in nodes]
    if path.endswith(".gz"):
        fh = io.TextIOWrapper(gzip.GzipFile(path, "wb", compresslevel=1, mtime=0),
                              encoding="utf-8")
    else:
        fh = open(path, "w", encoding="utf-8")
    with fh:
        fh.write("t_s," + ",".join(f"v_{n}" for n in nodes) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*cols))


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
