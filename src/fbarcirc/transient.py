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

The step matrices A_k change only through m(t), so they repeat with the
modulation.  :func:`simulate` rounds dt so that it divides the modulation
period into P whole steps (a dt from :func:`time_grid` already does), and
integrates the recurrence h <- (2K A^-1 - I) h + 2K A^-1 u over that one
period only, under the complex drive s*exp(j w t) whose real part is the
true drive: one batched LAPACK inverse per block of step matrices, and the
block's affine maps composed into the propagators Phi_j and forced
responses psi_j of the period.  Without modulation the step matrix never
changes, and a block of steps stands in for the period.  Every period,
the first included, starts from its boundary state, h_0 = 0 and
h_{p+1} = Phi_P h_p + exp(j w p P dt) psi_P, and its node voltages
Re(A_j^-1 (Phi_{j-1} h_p + exp(j w p P dt) (psi_{j-1} + s exp(j w j dt))))
come from batched products in memory-bounded blocks.

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
# values in one block's stack of step matrices; bounds the integrator's working memory
CHUNK_VALUES = 1 << 19


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
    branch's (i, u) entry; each row (i, depth, f_mod, phase) of the returned
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
                mod.append((k, m.depth, m.f_mod, m.phase))
            k += 2
    return node_names, c, g, s, np.array(mod).reshape(-1, 4)


def _inverses(a0: np.ndarray, mod: np.ndarray, t: np.ndarray) -> np.ndarray:
    """(K + G(t))^-1 at each time of ``t``; one inverse, broadcast, when G is static."""
    a = a0
    if len(mod):
        rows = mod[:, 0].astype(int)
        a = np.repeat(a0[None], t.size, axis=0)
        w_mod = 2.0 * math.pi * mod[:, 2]
        a[:, rows, rows + 1] = 1.0 + mod[:, 1] * np.cos(np.outer(t, w_mod) + mod[:, 3])
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise Diverged("singular transient system") from exc
    if not np.all(np.isfinite(a_inv)):
        raise Diverged("singular transient system")
    return np.broadcast_to(a_inv, (t.size,) + a0.shape)


def _chain(m: np.ndarray, drive: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Every state of ``S_j = m_j S_{j-1} + [0 | drive_j]`` from S_0 = ``state``.

    S is nu x (nu + 2): a propagator beside the real and imaginary parts of
    a forced response.  Blocks of about sqrt(n) steps run side by side from
    the identity, then the blocks are chained, so the Python loops take
    about 2*sqrt(n) turns instead of n.
    """
    n, nu = m.shape[:2]
    b = math.isqrt(n - 1) + 1
    nb = -(-n // b)
    pad = nb * b - n
    m = np.concatenate([m, np.broadcast_to(np.eye(nu), (pad, nu, nu))]).reshape(nb, b, nu, nu)
    drive = np.concatenate([drive, np.zeros((pad, nu, 2))]).reshape(nb, b, nu, 2)
    local = np.empty((nb, b, nu, nu + 2))
    s = np.broadcast_to(np.eye(nu, nu + 2), (nb, nu, nu + 2))
    for i in range(b):
        s = m[:, i] @ s
        s[:, :, nu:] += drive[:, i]
        local[:, i] = s
    enter = np.empty((nb, nu, nu + 2))
    for blk in range(nb):
        enter[blk] = state
        state = local[blk, -1, :, :nu] @ state
        state[:, nu:] += local[blk, -1, :, nu:]
    out = local[..., :nu] @ enter[:, None]
    out[..., nu:] += local[..., nu:]
    return out.reshape(nb * b, nu, nu + 2)[:n]


def simulate(net: Netlist, tone: tuple[int, float, float], duration: float,
             dt: float) -> TransientResult:
    """Integrate the netlist driven by one port tone with the trapezoidal rule.

    ``tone`` is (port_index, frequency_hz, incident_wave_amplitude); the
    driven port carries a Thevenin source 2*sqrt(z0)*amplitude*cos(2*pi*f*t)
    so the incident wave matches the harmonic engine's normalization.  All
    ports are terminated in their reference impedance.

    With modulation, ``dt`` is rounded to 1/(P*f_mod), P = round(1/(f_mod*dt)),
    so that one modulation period is P whole steps (a ``dt`` from
    :func:`time_grid` passes through unchanged); the result reports the step
    used.  Only one period of step matrices is inverted (see the module
    docstring).  Raises ``ValueError`` when the branches do not share one
    modulation frequency.

    Raises :class:`StepTooLarge` below 50 points per stimulus cycle at the
    step used, and :class:`Diverged` on a singular step matrix or when any
    node magnitude exceeds 1e6 times the source amplitude (checked on every
    block of samples).
    """
    port_index, f_stim, amplitude = tone
    if dt <= 0.0 or duration <= 0.0:
        raise ValueError("dt and duration must be positive")
    sources = [2.0 * math.sqrt(p.z0) * amplitude for p in net.ports if p.index == port_index]
    if not sources:
        raise ValueError(f"no port with index {port_index}")
    limit = DIVERGENCE_FACTOR * max(sources + [1e-30])

    node_names, c, g, s, mod = _stamp(net, port_index, amplitude)
    nn, nu = len(node_names), s.size
    chunk = max(64, CHUNK_VALUES // (nu * (nu + 2)))
    repeat = chunk  # a static step matrix repeats every step: one block is the repeat
    f_mods = np.unique(mod[:, 2])
    if f_mods.size > 1:
        raise ValueError(f"modulated branches must share one f_mod, got {f_mods.tolist()}")
    if f_mods.size:
        f_mod = float(f_mods[0])
        repeat = max(1, round(1.0 / (f_mod * dt)))  # steps in one modulation period
        dt = 1.0 / (repeat * f_mod)
    if dt > 1.0 / (50.0 * f_stim):
        raise StepTooLarge(f"dt={dt} gives fewer than 50 points per cycle at {f_stim} Hz")
    steps = round(duration / dt)
    if steps < 1:
        raise ValueError(f"duration {duration} is shorter than one step of {dt}")

    k = 2.0 * c / dt
    a0 = k + g
    w_stim = 2.0 * math.pi * f_stim
    r = min(repeat, steps)
    periods = -(-steps // r)

    def check(block: np.ndarray, last: int) -> None:
        if not np.all(np.isfinite(block)) or np.max(np.abs(block)) > limit:
            raise Diverged(f"waveform exceeded {limit:.3e} V near step {last}")

    # one repeat's maps from the boundary state: x = Re(X_j h_p + e_p Y_j)
    x_h = np.empty((nn, nu, r))
    y_e = np.empty((nn, r), complex)
    state = np.eye(nu, nu + 2)  # S_0 = [Phi_0 | psi_0] = [I | 0]
    with np.errstate(over="ignore", invalid="ignore"):
        for j0 in range(0, r, chunk):
            j = np.arange(j0 + 1, min(j0 + chunk, r) + 1)
            a_inv = _inverses(a0, mod, j * dt)
            z = np.exp(1j * w_stim * (j * dt))
            step = (2.0 * k) @ a_inv
            drive = (step @ s)[:, :, None] * np.stack([z.real, z.imag], -1)[:, None]
            states = _chain(step - np.eye(nu), drive, state)
            xs = a_inv[:, :nn] @ np.concatenate([state[None], states[:-1]])
            x_h[:, :, j0:j0 + j.size] = xs[..., :nu].transpose(1, 2, 0)
            y_e[:, j0:j0 + j.size] = (xs[..., nu] + 1j * xs[..., nu + 1]
                                      + (a_inv[:, :nn] @ s) * z[:, None]).T
            state[...] = states[-1]
        # Free the block, small arrays too: one left above its memory keeps the
        # allocator from returning that memory before the fill.
        del j, a_inv, z, step, drive, states, xs

        # period boundaries h_p from h_0 = 0, then every period's samples in blocks
        e = np.exp(1j * w_stim * ((np.arange(periods) * r) * dt))
        h = np.zeros((periods, nu), complex)
        for p in range(1, periods):
            h[p] = state[:, :nu] @ h[p - 1] + e[p - 1] * (state[:, nu] + 1j * state[:, nu + 1])
        volts = np.zeros((nn, periods * r + 1))
        grid = volts[:, 1:].reshape(nn, periods, r)  # sample p*r + j + 1 at [:, p, j]
        tail = steps - (periods - 1) * r  # samples in the last period
        per = max(1, chunk // r)  # periods per block
        for p0 in range(0, periods, per):
            p1 = min(p0 + per, periods)
            for j0 in range(0, r, chunk):
                j1 = min(j0 + chunk, r)
                block = h[p0:p1].real @ x_h[:, :, j0:j1]
                block += (e[p0:p1, None] * y_e[:, None, j0:j1]).real
                if p1 == periods:
                    block[:, -1, max(tail - j0, 0):] = 0.0  # past the end of the run
                grid[:, p0:p1, j0:j1] = block
                check(block, min((p1 - 1) * r + j1, steps))

    volts = volts[:, :steps + 1]
    return TransientResult(dt=dt, duration=duration, samples=dict(zip(node_names, volts)))


def extract_phasors(res: TransientResult, node: str, f: float, f_mod: float,
                    n_harm: int) -> PhasorSet:
    """Fit the waveform tail against tones at f + n*f_mod, n in [-N, N].

    The last 25% of the samples (past ring-up) are projected onto
    cos/sin pairs at each mixing frequency by linear least squares, solved
    through the normal equations accumulated over blocks of the tail; the
    phasor P_n satisfies v(t) ~ sum_n Re[P_n exp(j*2*pi*(f+n*f_mod)*t)].
    ``residual`` is the rms of the unfitted remainder relative to the rms
    of the tail.  Raises :class:`IllConditionedBasis` when two tone
    frequencies fall within 1/window of each other.
    """
    if node not in res.samples:
        raise KeyError(f"no samples for node {node!r}")
    v = res.samples[node]
    start = (v.size * 3) // 4
    window = (v.size - 1 - start) * res.dt
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

    tones = len(ns)
    cols = max(1, CHUNK_VALUES // (2 * tones))
    blocks = range(start, v.size, cols)

    def basis(first: int) -> tuple[np.ndarray, np.ndarray]:
        """cos rows, then sin rows, of every tone at the tail samples from
        ``first`` on, beside those samples; each tone is its lower neighbour
        times exp(j*2*pi*f_mod*t)."""
        t = np.arange(first, min(first + cols, v.size)) * res.dt
        shift = np.exp(2j * math.pi * f_mod * t)
        e = np.empty((tones, t.size), complex)
        e[0] = np.exp(2j * math.pi * tone_freqs[0] * t)
        for i in range(1, tones):
            np.multiply(e[i - 1], shift, out=e[i])
        return np.concatenate([e.real, e.imag]), v[first:first + t.size]

    gram = np.zeros((2 * tones, 2 * tones))
    proj = np.zeros(2 * tones)
    for first in blocks:
        d, vv = basis(first)
        gram += d @ d.T
        proj += d @ vv
    try:
        coef = np.linalg.solve(gram, proj)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedBasis("singular tone basis") from exc
    misfit = sum(float(np.sum((vv - coef @ d) ** 2)) for d, vv in map(basis, blocks))
    tail = v[start:]
    rms_v = float(np.sqrt(np.mean(tail * tail)))
    rms_r = math.sqrt(misfit / tail.size)
    residual = rms_r / rms_v if rms_v > 0.0 else 0.0
    entries = tuple((n, complex(coef[i], -coef[tones + i])) for i, n in enumerate(ns))
    return PhasorSet(entries=entries, residual=residual)


def time_grid(net: Netlist, f: float, f_mod: float, pts_per_cycle: int,
              mod_periods: float) -> tuple[float, float]:
    """(dt, duration) of a cross-check run: about ``pts_per_cycle`` steps per
    stimulus cycle, for five time constants of the highest-Q (capped at
    1e4), lowest-frequency branch plus ``mod_periods`` modulation periods.

    dt = 1/(P*f_mod) with P = round(pts_per_cycle*f/f_mod), so one modulation
    period is exactly P steps and :func:`simulate` integrates it only once;
    dt differs from 1/(pts_per_cycle*f) by less than 1/P relative."""
    q_max = 0.0
    f_min = math.inf
    for el in net.modulated:
        q_max = max(q_max, min(el.branch.q, 1e4))
        f_min = min(f_min, el.branch.f_s)
    ring_up = 5.0 * q_max / (math.pi * f_min) if math.isfinite(f_min) and q_max else 0.0
    steps_per_period = max(1, round(pts_per_cycle * f / f_mod))
    return 1.0 / (steps_per_period * f_mod), ring_up + mod_periods / f_mod


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
