"""Time-domain oracle for modulated netlists.

Fixed-step trapezoidal integration of the same circuits the harmonic engine
solves, and the mixing-product phasors of its periodic steady state.  The
point of this module is cross-validation: the integrator shares no code with
the harmonic assembly, so agreement between the two is strong evidence
against stamp or convention bugs.

The netlist is stamped once into real matrices, ``C x' + G(t) x = u(t)``:
the unknowns are the non-ground node voltages, one current per inductor and
(i, u = q/c_m) per modulated branch, and only each modulated branch's
elastance factor m(t) = 1 + depth*cos(w_m t + phase) in G changes with time.
With K = 2C/dt and the history h = K x + C x', zero at t = 0 (no stored
charge or flux, and the source not averaged into the first step), one
trapezoidal step is

    x1 = A1^-1 (h0 + u1),   A1 = K + G(t1),   h1 = 2K x1 - h0.

The step matrices A_j change only through m(t), so they repeat with the
modulation.  :func:`simulate` rounds dt so that it divides the modulation
period into P whole steps (a dt from :func:`time_grid` already does), and
integrates the recurrence h <- (2K A^-1 - I) h + 2K A^-1 u over that one
period only, under the complex drive s*exp(j w t) whose real part is the
true drive, in cache-sized blocks of steps; a period of at least
MIN_FORK_BLOCKS blocks is built on two CPUs where there are two, with the
bits of one (see :func:`_period`).  A block's step stack holds
each inverse beside its drive, [A_j^-1 | A_j^-1 s z_j]; its product with
[[S], [0 | I]] for the state S = [Phi_{j-1} | psi_{j-1}] of the period's
propagator and forced response gives the unknowns x_j, and 2K x_j - S the
next state.  Only the node rows of x_j are formed, never a state per step,
and they are stored only by a run that keeps its maps.
A run makes one LAPACK inverse, of A0 = K + G with every m = 1.
A_j differs from A0 only in one entry per modulated branch, an update of
rank k = the number of modulated branches, so a block's inverses follow
from A0^-1 by the Woodbury identity.  Its k x k systems lie within about
1e-6 of the identity on the verify circuits and are summed as a short
Neumann series, or solved in one batch where the series would need more
than SERIES_TERMS terms; either way the block's residual
max|A_j A_j^-1 - I| must stay within INVERSE_RESIDUAL_BOUND.  Without
modulation the step matrix never changes, and a block of steps stands in
for the period.  Every period, the first included, starts from its
boundary state, h_0 = 0 and h_{p+1} = Phi_P h_p + exp(j w p P dt) psi_P,
and its node voltages are Re(X_j h_p + e_p Y_j) with e_p = exp(j w p P dt)
and the maps X_j, Y_j of the one period.  :func:`simulate` returns those
maps of every node, unless the run keeps none, and the boundary states
(:class:`PeriodMaps`); one routine forms every node's samples from them a
period at a time (:func:`_period_blocks`), for the guard and the dump alike.
The divergence guard covers every node, with maps or without: a running
max|X_j| and max|Y_j| per node bound its samples.

One period also holds the steady state, which needs no ring-up and no fit.
Its boundary state h* repeats up to the drive's phase, h_p = E^p h* with
E = exp(j w P dt), so (E I - Phi_P) h* = psi_P, and its complex samples are
z_j = X_j h* + Y_j.  The phasor at f + n*f_mod is the DFT bin
P_n = sum_j z_j c_j,n = A_n h* + B_n with c_j,n = exp(-j (w dt + 2 pi n/P) j)/P
over j = 1 ... P, A_n = sum_j X_j c_j,n and B_n = sum_j Y_j c_j,n.  Every
run adds every node's rows into A_n and B_n, n = -1, 0, 1, one real GEMM
per block while the chain runs, so it needs no maps; the run then solves
for h* and checks the residual max|(E I - Phi_P) h* - psi_P| against
STEADY_RESIDUAL_BOUND times max|psi_P|.
Phi_P has multipliers of modulus 1 (+1 from floating nodes, -1 from the
trapezoid's algebraic unknowns) that E meets at half-integer f/f_mod, so the
residual, not a condition number, is what is checked: the drive does not
excite those modes.

High-Q circuits at GHz carriers are impractical to integrate directly, so
the verify workflow builds each check circuit at its own frequency and
integrates the desk-scale replica :func:`fbarcirc.netlist.scale_frequency`
makes of it, whose dimensionless behavior is identical.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import math
import mmap
from dataclasses import dataclass

import numpy as np

from . import fork
from .fileio import BLOCK_ROWS, atomic_open
from .htm import HarmonicBasis, sparams
from .netlist import (GROUND, Capacitor, Inductor, ModulatedSeriesRlc, Netlist, Port,
                      Resistor)
from .plan import (MAX_PERIOD_STEPS, MIN_PTS_PER_CYCLE, Diverged, RunTooLarge, StepTooLarge,
                   _steps, _too_coarse, time_grid)

DIVERGENCE_FACTOR = 1e6
# max|A_j A_j^-1 - I| accepted for any step matrix's computed inverse
INVERSE_RESIDUAL_BOUND = 1e-8
# max|(E I - Phi) h* - psi| / max|psi| accepted for the periodic steady state
STEADY_RESIDUAL_BOUND = 1e-10
# values in one block's stack of step matrices (1 MiB): small enough that a
# block's arrays stay in cache, and a bound on the integrator's working memory
CHUNK_VALUES = 1 << 17
# Blocks a modulation period must hold before a forked worker builds two in
# every three of them (see _period).  The fork, the copy-on-write faults and
# the reaping cost this process several ms: on 2 vCPUs, one period of the toy
# wye ran 7% slower with the worker at 8 blocks, as fast at 9, 2% faster at
# 10 and 11, 10% at 12 and 16% at 14.
MIN_FORK_BLOCKS = 10
# most terms of the Neumann series that replaces the Woodbury k x k solves
SERIES_TERMS = 4


@dataclass(frozen=True)
class PeriodMaps:
    """One modulation period's maps of a :func:`simulate` run, from which
    every sample of every node follows (:func:`_period_blocks`): sample
    i = p*r + j + 1 of node n (p = 0 ... periods-1, j = 0 ... r-1) is
    Re(X_j h_p + e_p Y_j)[n], and sample 0 is zero.  Row n of ``x`` and ``y``
    is the node ``nodes[n]``, in the netlist's sorted node order."""

    nodes: tuple[str, ...]
    x: np.ndarray       # (nodes, nu, r) real: X_j
    y: np.ndarray       # (nodes, r) complex: Y_j
    h: np.ndarray       # (periods, nu) complex: boundary states h_p
    e: np.ndarray       # (periods,) complex: e_p = exp(j w p r dt)
    steps: int
    limit: float        # the divergence guard on |sample|


@dataclass(frozen=True)
class TransientResult:
    """A :func:`simulate` run: the step ``dt`` it used, its ``duration``,
    every node's ``phasors`` P_-1, P_0, P_1 of the periodic steady state, and
    its :class:`PeriodMaps` (None for a run that keeps none), from which every
    node's samples at the times i*dt, i = 0 ... duration/dt, follow."""

    dt: float
    duration: float
    phasors: dict[str, np.ndarray]
    maps: PeriodMaps | None


def _stamp(net: Netlist, port_index: int):
    """Node names and the real C, G and s of ``C x' + G(t) x = s*cos(w t)``.

    Unknowns: the node voltages (sorted by name), then one current per
    inductor, then (i, u) per modulated branch.  G holds m = 1 at every
    branch's (i, u) entry; each row (i, depth, f_mod, phase) of the returned
    ``mod`` marks a branch whose entry is m(t) instead.
    """
    node_names = [n for n in sorted(net.nodes) if n != GROUND]
    nidx = {n: i for i, n in enumerate(node_names)}
    currents = [el for el in net.elements if isinstance(el, (Inductor, ModulatedSeriesRlc))]
    nu = len(nidx) + sum(2 if isinstance(el, ModulatedSeriesRlc) else 1 for el in currents)
    c = np.zeros((nu, nu))
    g = np.zeros((nu, nu))
    s = np.zeros(nu)
    mod = []

    def incidence(a: str, b: str) -> np.ndarray:
        e = np.zeros(nu)
        if a != GROUND:
            e[nidx[a]] += 1.0
        if b != GROUND:
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
            e = incidence(el.node, GROUND)
            g += np.outer(e, e) / el.z0
            if el.index == port_index:
                s += e * (2.0 * math.sqrt(el.z0) / el.z0)

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


def _check_residual(r: np.ndarray) -> None:
    """Raise :class:`Diverged` unless max|r| <= INVERSE_RESIDUAL_BOUND (NaN
    fails); r = A X - I, which this overwrites."""
    resid = float(np.max(np.abs(r, out=r)))
    if not resid <= INVERSE_RESIDUAL_BOUND:
        raise Diverged(f"step-matrix inverse residual max|A X - I| = {resid:.3e} "
                       f"exceeds {INVERSE_RESIDUAL_BOUND}")


class _StepInverses:
    """The step matrices' inverses (K + G(t))^-1 of one run, from one LAPACK
    inverse of A0 = K + G with every m = 1; A0^-1 itself when G is static.

    Only the k modulated entries (r, r+1) of ``mod``'s rows r change, so
    A_j = A0 + U D_j V^T with D_j = diag(depth*cos(w_m t_j + phase)), U and V
    the unit columns r and r+1, and by Woodbury
    A_j^-1 = A0^-1 - (A0^-1 U) W_j (V^T A0^-1), C = V^T A0^-1 U,
    W_j = (I + D_j C)^-1 D_j.  With rho = max depth * ||C||_inf, W_j is the
    series sum_{i<m} (-D_j C)^i D_j when rho^m <= 2^-53 for some
    m <= SERIES_TERMS (on the verify circuits rho is about 1e-6 and m = 3),
    else one batched k x k solve.  A call checks its block's residual
    max|A_j A_j^-1 - I| against INVERSE_RESIDUAL_BOUND either way; a singular
    A0 or step matrix, or a failed check, raises :class:`Diverged`.

    A block of n times has its inverses formed in ``out`` and its Woodbury
    correction and residual in ``scratch``, the caller's flat float buffers of
    at least nu*n*nu values (unread when G is static).
    """

    def __init__(self, a0: np.ndarray, mod: np.ndarray, out: np.ndarray, scratch: np.ndarray):
        nu = a0.shape[0]
        try:
            a0_inv = np.linalg.inv(a0)
        except np.linalg.LinAlgError as exc:
            raise Diverged("singular transient system") from exc
        _check_residual(a0 @ a0_inv - np.eye(nu))
        self.a0, self.a0_inv, self.mod, self.out, self.scratch = a0, a0_inv, mod, out, scratch
        if len(mod):
            self.rows = mod[:, 0].astype(int)
            self.cols = self.rows + 1
            self.u = a0_inv[:, self.rows]                # A0^-1 U
            self.v = a0_inv[self.cols]                   # V^T A0^-1
            self.c = self.v[:, self.rows]                # C
            rho = float(np.max(np.abs(mod[:, 1])) * np.max(np.sum(np.abs(self.c), axis=1)))
            # terms of the series, 0 for the solve
            self.terms = next((m for m in range(1, SERIES_TERMS + 1) if rho ** m <= 2.0 ** -53), 0)

    def _woodbury(self, d: np.ndarray) -> np.ndarray:
        """W_j = (I + D_j C)^-1 D_j for the columns d_j of ``d`` (k, n), as
        (k, n*k): row a holds (W_j)[a] side by side."""
        k, n = d.shape
        if not self.terms:
            try:
                w = np.linalg.solve(np.eye(k) + d.T[:, :, None] * self.c,
                                    d.T[:, :, None] * np.eye(k))
            except np.linalg.LinAlgError as exc:
                raise Diverged("singular transient system") from exc
            return w.transpose(1, 0, 2).reshape(k, n * k)
        # W_j = D_j sum_{i<m} (-C D_j)^i, held as [a, b, j] so that each term
        # is one GEMM of -C over the block
        term = total = np.eye(k)[:, :, None]
        for _ in range(1, self.terms):
            term = (-self.c @ (d[:, None] * term).reshape(k, k * n)).reshape(k, k, n)
            total = total + term
        return (d[:, None] * total).transpose(0, 2, 1).reshape(k, n * k)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """The inverses at the times ``t`` (as many as the buffers hold), shape
        (t.size, nu, nu); valid until the next call."""
        n, nu = t.size, self.a0.shape[0]
        if not len(self.mod):
            return np.broadcast_to(self.a0_inv, (n, nu, nu))
        mod, rows, k = self.mod, self.rows, self.rows.size
        d = mod[:, 1, None] * np.cos(np.outer(2.0 * math.pi * mod[:, 2], t) + mod[:, 3, None])
        # Row i of every step's inverse side by side, x_t[i, j] = (A_j^-1)[i],
        # so that the products below are GEMMs over the whole block.
        x_t = self.out[:nu * n * nu].reshape(nu, n, nu)
        r = self.scratch[:nu * n * nu].reshape(nu, n, nu)
        corr = np.matmul(self.u, self._woodbury(d), out=self.scratch[:nu * n * k].reshape(nu, n * k))
        np.matmul(corr.reshape(nu * n, k), -self.v, out=x_t.reshape(nu * n, nu))
        x_t += self.a0_inv[:, None]
        np.matmul(self.a0, x_t.reshape(nu, n * nu), out=r.reshape(nu, n * nu))
        for dr, row, col in zip(d, rows, self.cols):  # A_j A_j^-1
            r[row] += dr[:, None] * x_t[col]
        idx = np.arange(nu)
        r[idx, :, idx] -= 1.0
        _check_residual(r)
        return x_t.transpose(1, 0, 2)


def _local(step: np.ndarray, k2: np.ndarray, nr: int,
           out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The part of a block's chain that does not depend on its entry state:
    ``ends`` (nu, nb, nu + 2), each sub-block's last local state, and ``rows``
    (nb, b, nr, nu + 2), the first ``nr`` rows of every local P_j, for
    :func:`_lift`; both are views of the flat buffer ``out`` (see
    :func:`_parts`), which must not hold ``step``.

    The chain is S_j = k2 P_j - S_{j-1}, P_j = step_j [[S_{j-1}], [0 | I]].
    S is nu x (nu + 2): a propagator beside the real and imaginary parts of
    a forced response.  With step_j = [A_j^-1 | A_j^-1 s Re z_j, A_j^-1 s Im z_j]
    and k2 = 2K, P_j is the unknowns x_j and S_j = (2K A_j^-1 - I) S_{j-1} +
    [0 | 2K A_j^-1 s z_j].  nb sub-blocks of b, about sqrt(n), steps run side
    by side from the identity, a turn being one small product per sub-block
    and one GEMM of k2 over all of them.  So no state is kept per step, and
    the Python loops take about 2*sqrt(n) turns instead of n.
    """
    n, nu = step.shape[:2]
    b, nb = _sub_blocks(n)
    short = n - (nb - 1) * b  # steps of the last sub-block
    # every sub-block's local [[S], [0 | I]], a row of all of them at a time so
    # that one GEMM takes k2 P for all; two buffers used in turn, starting
    # from the one that leaves the last turn's states in local[0]
    local, ends, rows = _parts(out, n, nu, nr)
    local[...] = 0.0
    local[b % 2, :nu, :, :nu] = np.eye(nu)[:, None]
    local[:, nu, :, nu] = local[:, nu + 1, :, nu + 1] = 1.0
    p = np.empty((nu, nb, nu + 2))
    rows[-1, short:] = 0.0  # past the end of the last sub-block
    last = None  # the last sub-block's state, if it is short
    p_flat = p.reshape(nu, -1)
    turns = {}  # a turn's views, made once per buffer parity and count g of sub-blocks
    for i in range(b):  # step i of every sub-block that has one
        g = -(-(n - i) // b)
        if (i % 2, g) not in turns:
            now, nxt = local[(b + i) % 2], local[(b + i + 1) % 2]
            turns[i % 2, g] = (now[:, :g].transpose(1, 0, 2), p[:, :g].transpose(1, 0, 2),
                               nxt[:nu].reshape(nu, -1), nxt[:nu], now[:nu],
                               p[:nr, :g].transpose(1, 0, 2))
        now_g, p_g, nxt_flat, nxt_s, now_s, rows_g = turns[i % 2, g]
        if i == short:  # the short last sub-block is done; later turns overwrite its state
            last = now_s[:, -1].copy()
        np.matmul(step[i::b], now_g, out=p_g)
        np.matmul(k2, p_flat, out=nxt_flat)
        nxt_s -= now_s
        rows[:g, i] = rows_g
    if last is not None:
        ends[:, -1] = last
    return ends, rows


def _parts(out: np.ndarray, n: int, nu: int,
           nr: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The views (local, ends, rows) of the flat buffer in which
    :func:`_local` builds a block of ``n`` steps: its two local states
    (2, nu + 2, nb, nu + 2), the last turn's first, whose first nu rows are
    ``ends``, then ``rows``."""
    b, nb = _sub_blocks(n)
    local = out[:2 * (nu + 2) * nb * (nu + 2)].reshape(2, nu + 2, nb, nu + 2)
    rows = out[local.size:local.size + nb * b * nr * (nu + 2)].reshape(nb, b, nr, nu + 2)
    return local, local[0, :nu], rows


def _lift(ends: np.ndarray, rows: np.ndarray, state: np.ndarray, n: int,
          out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The last state of a block's chain of ``n`` steps from S_0 = ``state``,
    and the absolute rows of every P_j, node-major as (row, column, step),
    from its :func:`_local` parts.  The lifted rows and that copy of them are
    views of the flat buffer ``out``, which must not hold ``rows``."""
    nu, nb = ends.shape[:2]
    nr = rows.shape[2]
    # each sub-block's entry state S as [[S], [0 | I]]: one product with it
    # lifts the sub-block's local [Phi | psi] to the absolute state
    enter = np.zeros((nb, nu + 2, nu + 2))
    enter[:, nu:, nu:] = np.eye(2)
    for blk in range(nb):
        enter[blk, :nu] = state
        state = ends[:, blk] @ enter[blk]
    lifted = np.matmul(rows.reshape(nb, -1, nu + 2), enter,
                       out=out[:rows.size].reshape(nb, -1, nu + 2))
    xs = out[rows.size:rows.size + nr * (nu + 2) * n].reshape(nr, nu + 2, n)
    np.copyto(xs, lifted.reshape(-1, nr, nu + 2)[:n].transpose(1, 2, 0))
    return state, xs


def _sub_blocks(n: int) -> tuple[int, int]:
    """(b, nb): a block of ``n`` steps runs as nb sub-blocks of b steps, the
    last perhaps short."""
    b = math.isqrt(n - 1) + 1
    return b, -(-n // b)


def _period(a0: np.ndarray, mod: np.ndarray, s: np.ndarray, k2: np.ndarray, dt: float,
            w_stim: float, r: int, chunk: int, nr: int):
    """The blocks of ``chunk`` steps of a modulation period of ``r`` steps
    from S_0 = [I | 0], in order, as (j, z, state, rows): the block's steps
    j, the drive's phases z_j = exp(i w j dt), the chain's state after it,
    and the first ``nr`` rows of its P_j as (row, column, step); close it to
    stop early.

    A block's step stack [A_j^-1 | A_j^-1 s Re z_j, A_j^-1 s Im z_j] and its
    :func:`_local` parts do not depend on its entry state.  So with at least
    MIN_FORK_BLOCKS blocks a forked worker, where there is one, builds two
    blocks in every three into a ring of two shared slots, and this process
    builds the third and lifts every block in order: the same operations on
    the same inputs as one process, so the same bits, and the first failing
    block raises its error.

    A block goes through two buffers of the run, each sized to the largest
    of its uses, so that every circuit fits.  ``scratch`` holds the
    Woodbury correction and residual of its inverses, then its step stack,
    then, once :func:`_local` is done with the stack, its lifted rows and
    their node-major copy, the rows yielded, valid until the next block.
    ``held`` holds its inverses until the stack takes them, then its
    :func:`_local` parts; a worker's block builds those in its ring slot."""
    nu, m = s.size, s.size + 2
    starts = range(0, r, chunk)
    b, nb = _sub_blocks(chunk)  # no block of at most chunk steps needs more
    rows = nb * b * nr * m  # values of a block's node rows
    parts = 2 * m * nb * m + rows  # and of its _local parts
    held = np.empty(max(nu * chunk * nu if len(mod) else 0, parts))
    scratch = np.empty(max(nu * chunk * m, 2 * rows))
    inverses = _StepInverses(a0, mod, held, scratch)
    stack = scratch[:nu * chunk * m].reshape(nu, chunk, m)

    def phases(i: int) -> tuple[np.ndarray, np.ndarray]:
        j = np.arange(starts[i] + 1, min(starts[i] + chunk, r) + 1)
        return j, np.exp(1j * w_stim * (j * dt))

    def build(j: np.ndarray, z: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The :func:`_local` parts of the block of steps j, in ``out``."""
        # [A_j^-1 | A_j^-1 s Re z_j, A_j^-1 s Im z_j], row i of every step side by side
        step = stack[:, :j.size]
        step[:, :, :nu] = inverses(j * dt).transpose(1, 0, 2)
        a_s = step[:, :, :nu] @ s  # A_j^-1 s
        np.multiply(a_s, z.real, out=step[:, :, nu])
        np.multiply(a_s, z.imag, out=step[:, :, nu + 1])
        return _local(step.transpose(1, 0, 2), k2, nr, out)

    forking = len(starts) >= MIN_FORK_BLOCKS
    if forking:  # slot i % 3 - 1 holds worker block i's parts
        ring = fork.shared((2, parts), float)

    def serve(i: int) -> None:
        """In the worker: block i's parts into its slot."""
        build(*phases(i), ring[i % 3 - 1])

    def submit(i: int) -> None:
        if i < len(starts):
            pool[0].submit(i, f"steps {starts[i] + 1}..{min(starts[i] + chunk, r)} "
                              f"of the modulation period")

    state = np.eye(nu, m)  # S_0 = [Phi_0 | psi_0] = [I | 0]
    with fork.workers(serve, int(forking)) as pool:
        if pool:
            submit(1)
            submit(2)
        for i in range(len(starts)):
            j, z = phases(i)
            if pool and i % 3:
                pool[0].reply()
                state, xs = _lift(*_parts(ring[i % 3 - 1], j.size, nu, nr)[1:], state,
                                  j.size, scratch)
                submit(i + 3)  # into the slot just read
            else:
                state, xs = _lift(*build(j, z, held), state, j.size, scratch)
            yield j, z, state, xs


def simulate(net: Netlist, tone: tuple[int, float], duration: float,
             dt: float, keep_maps: bool = True) -> TransientResult:
    """Integrate the netlist driven by one port tone with the trapezoidal rule.

    ``tone`` is (port_index, frequency_hz); the driven port carries a
    Thevenin source 2*sqrt(z0)*cos(2*pi*f*t), a unit incident wave in the
    harmonic engine's normalization.  All ports are terminated in their
    reference impedance.

    With modulation, ``dt`` is rounded to 1/(P*f_mod), P = round(1/(f_mod*dt)),
    so that one modulation period is P whole steps (a ``dt`` from
    :func:`time_grid` passes through unchanged); the result reports the step
    used.  Only one period of step matrices is inverted (see the module
    docstring), and the result holds that period's maps of every node,
    unless ``keep_maps`` is false.

    The result's ``phasors``, solved once the guard has passed, map every node
    to its P_n at f + n*f_mod, n = -1, 0, 1, of the periodic steady state (see
    the module docstring), the same with maps or without and however short
    the run.

    Raises :class:`ValueError`, before any work, unless f, ``dt`` and
    ``duration`` are finite and positive and the port exists;
    :class:`RunTooLarge`, before any work, when a modulation period
    takes more than MAX_PERIOD_STEPS steps or a node more than MAX_SAMPLES
    samples; :class:`StepTooLarge` below MIN_PTS_PER_CYCLE points per stimulus
    cycle at the step used; and :class:`Diverged` on a singular step matrix, on a step
    matrix inverse whose residual exceeds INVERSE_RESIDUAL_BOUND, or when any
    node magnitude exceeds DIVERGENCE_FACTOR times the source amplitude
    2*sqrt(z0), and then on a singular steady-state system or one whose
    residual exceeds STEADY_RESIDUAL_BOUND.  For the guard,
    sum_u |Re h_p,u| max_j |X_j[n, u]| + max_j |Y_j[n]| bounds every sample of
    node n in period p; only when a bound exceeds the guard are the samples
    formed and checked, one period at a time.  A run without maps is then
    made again with them and checked as such a run is; that path is rare.
    """
    port_index, f_stim = tone
    if not all(0.0 < v < math.inf for v in (f_stim, dt, duration)):  # NaN fails
        raise ValueError(f"the stimulus frequency {f_stim}, dt {dt} and duration "
                         f"{duration} must be finite and positive")
    z0 = [p.z0 for p in net.ports if p.index == port_index]
    if not z0:
        raise ValueError(f"no port with index {port_index}")
    limit = DIVERGENCE_FACTOR * 2.0 * math.sqrt(z0[0])

    node_names, c, g, s, mod = _stamp(net, port_index)
    nn, nu = len(node_names), s.size
    chunk = max(64, CHUNK_VALUES // (nu * (nu + 2)))
    repeat = chunk  # a static step matrix repeats every step: one block is the repeat
    if len(mod):  # a Netlist's branches share one f_mod
        f_mod = float(mod[0, 2])
        per = 1.0 / (f_mod * dt)  # steps in one modulation period
        if not per <= MAX_PERIOD_STEPS:
            raise RunTooLarge(f"{per:.4g} steps per modulation period exceed "
                              f"MAX_PERIOD_STEPS = {MAX_PERIOD_STEPS}")
        repeat = max(1, round(per))
        dt = 1.0 / (repeat * f_mod)
    if _too_coarse(dt, f_stim):
        raise StepTooLarge(f"dt={dt} gives fewer than {MIN_PTS_PER_CYCLE} points per cycle "
                           f"at {f_stim} Hz")
    steps = round(_steps(duration, dt))
    if steps < 1:
        raise ValueError(f"duration {duration} is shorter than one step of {dt}")

    k = 2.0 * c / dt
    a0 = k + g
    w_stim = 2.0 * math.pi * f_stim
    # a steady state needs a whole modulation period, however short the run
    r = repeat if len(mod) else min(repeat, steps)
    periods = -(-steps // r)

    if keep_maps:
        # one repeat's maps of every node, x = Re(X_j h_p + e_p Y_j), outside the
        # heap: released there, they would leave more free memory at its top
        # than the allocator keeps, and the next run would fault it in again
        buf = mmap.mmap(-1, nn * r * (16 + 8 * nu), access=mmap.ACCESS_COPY)
        y_e = np.frombuffer(buf, complex, nn * r).reshape(nn, r)
        x_h = np.frombuffer(buf, float, offset=16 * nn * r).reshape(nn, nu, r)
    # every node's DFT bins n = -1, 0, 1 of the period, sum_j [X_j | Re Y_j,
    # Im Y_j][node] c_j,n, summed as real and imaginary parts side by side
    bins = np.zeros((nn * (nu + 2), 6))
    # every node's max_j |X_j| and max_j |Y_j|, for the guard
    x_max, y_max = np.zeros((nn, nu)), np.zeros(nn)
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = _period(a0, mod, s, 2.0 * k, dt, w_stim, r, min(chunk, r), nn)
        with contextlib.closing(blocks):  # its worker ends with it
            for j, z, state, xs in blocks:
                # a real GEMM: xs as (node, row) by step, c_j,n as (re, im) pairs
                bins += xs.reshape(-1, j.size) @ _dft_weights(z, j, r).view(float)
                y_blk = np.empty((nn, j.size), complex)
                y_blk.real, y_blk.imag = xs[:, nu], xs[:, nu + 1]
                # max|x| as max(max x, -min x), with no |x| formed
                x_max = np.maximum(x_max, np.maximum(np.max(xs[:, :nu], axis=2),
                                                     -np.min(xs[:, :nu], axis=2)))
                y_max = np.maximum(y_max, np.max(np.abs(y_blk), axis=1))
                if keep_maps:
                    x_h[:, :, j[0] - 1:j[-1]] = xs[:, :nu]
                    y_e[:, j[0] - 1:j[-1]] = y_blk
        # Free the block and the run's buffers, small arrays too: one left
        # above their memory keeps the allocator from returning that memory.
        del j, z, xs, y_blk, blocks

        # period boundaries h_p from h_0 = 0
        e = np.exp(1j * w_stim * ((np.arange(periods) * r) * dt))
        h = np.zeros((periods, nu), complex)
        for p in range(1, periods):
            h[p] = state[:, :nu] @ h[p - 1] + e[p - 1] * (state[:, nu] + 1j * state[:, nu + 1])
        # |sample| <= sum_u |Re h_p,u| max_j |X_j[n, u]| + max_j |Y_j[n]|, a bound
        # per node that needs no sample; the margin covers the rounding of the
        # bound and of the samples, and NaN fails it
        over = not np.max(np.abs(h.real) @ x_max.T + y_max) * (1.0 + 1e-12) <= limit
    maps = (PeriodMaps(nodes=tuple(node_names), x=x_h, y=y_e, h=h, e=e, steps=steps, limit=limit)
            if keep_maps else None)
    if over:
        if maps is None:  # a run with maps checks the samples
            simulate(net, tone, duration, dt)
        else:
            _check_samples(maps)
    phasors = _steady_phasors(tuple(node_names), state, bins.view(complex).reshape(nn, nu + 2, 3),
                              np.exp(1j * w_stim * (r * dt)))
    return TransientResult(dt, duration, phasors, maps)


def _dft_weights(z: np.ndarray, j: np.ndarray, r: int) -> np.ndarray:
    """c_j,n = exp(-i (w dt + 2 pi n / r) j) / r at the steps ``j`` of a period
    of ``r``, from the drive's phases z_j = exp(i w j dt); columns n = -1, 0, 1."""
    turn = np.exp((2j * math.pi / r) * j)
    return z.conj()[:, None] / r * np.stack([turn, np.ones(j.size), turn.conj()], axis=1)


def _steady_phasors(nodes: tuple, state: np.ndarray, bins: np.ndarray, phase: complex) -> dict:
    """{node: P_n} with P_n = A_n h* + B_n for bins[i] = [A_n | Re B_n, Im B_n]
    of nodes[i] and the steady boundary state h*, (E I - Phi) h* = psi with
    E = ``phase`` and the period's state [Phi | Re psi, Im psi]; a singular
    system, or a residual max|(E I - Phi) h* - psi| above STEADY_RESIDUAL_BOUND
    times max|psi| (NaN fails), raises :class:`Diverged`."""
    nu = state.shape[0]
    system = phase * np.eye(nu) - state[:, :nu]
    psi = state[:, nu] + 1j * state[:, nu + 1]
    try:
        h_star = np.linalg.solve(system, psi)
    except np.linalg.LinAlgError as exc:
        raise Diverged("singular steady-state system") from exc
    resid = float(np.max(np.abs(system @ h_star - psi)))
    scale = float(np.max(np.abs(psi)))
    if not resid <= STEADY_RESIDUAL_BOUND * scale:
        raise Diverged(f"steady-state residual max|(E I - Phi) h - psi| = {resid:.3e} exceeds "
                       f"{STEADY_RESIDUAL_BOUND} of max|psi| = {scale:.3e}")
    return {node: b[:nu].T @ h_star + b[nu] + 1j * b[nu + 1] for node, b in zip(nodes, bins)}


def _period_blocks(maps: PeriodMaps):
    """Every node's samples from the period maps, as (first sample, columns)
    blocks, columns[n] of ``maps.nodes[n]``: sample 0, then one period at a
    time in one reused buffer, Re h_p times X_j, one GEMV per node over the
    period's steps, plus Re(e_p Y_j), formed an eighth of a period at a time
    in a second buffer.  A GEMV's last bits depend on its column range, so
    every reader of the samples forms them here; the complex product is
    elementwise, so its parts keep the bits of one product over the period."""
    x, y, h, e = maps.x, maps.y, maps.h, maps.e
    yield 0, np.zeros((y.shape[0], 1))
    r = y.shape[1]
    buf = np.empty(y.shape)
    part = np.empty((y.shape[0], -(-r // 8)), dtype=complex)
    for p, start in enumerate(range(1, maps.steps + 1, r)):
        cols = buf[:, :min(r, maps.steps + 1 - start)]
        np.matmul(h[p].real, x[:, :, :cols.shape[1]], out=cols)
        for c in range(0, cols.shape[1], part.shape[1]):
            z = part[:, :min(part.shape[1], cols.shape[1] - c)]
            np.multiply(e[p], y[:, c:c + z.shape[1]], out=z)
            cols[:, c:c + z.shape[1]] += z.real
        yield start, cols


def _check_samples(maps: PeriodMaps) -> None:
    """Raise :class:`Diverged`, naming the first step that holds a non-finite
    sample or one above ``maps.limit``; the samples are read from the maps
    one period at a time (:func:`_period_blocks`), none held past it."""
    with np.errstate(over="ignore", invalid="ignore"):
        for first, cols in _period_blocks(maps):
            if not (np.max(cols) <= maps.limit and np.min(cols) >= -maps.limit):  # NaN fails
                step = first + int(np.argmax(np.any(~(np.abs(cols) <= maps.limit), axis=0)))
                raise Diverged(f"waveform exceeded {maps.limit:.3e} V near step {step}")


def cross_validate(net: Netlist, basis: HarmonicBasis, f: float,
                   ports: tuple[int, int] = (1, 2), pts_per_cycle: int = 400,
                   mod_periods: float = 22.0, waveforms_path=None) -> float:
    """Max relative disagreement between the harmonic and transient engines.

    Excites port ``ports[0]`` and compares S^(n) at port ``ports[1]`` for
    n in {-1, 0, 1}.  Each harmonic's error is normalized by
    max(|S^(n)|, 0.05 * max_k |S^(k)|) so structurally tiny entries are
    measured against the dominant response instead of dividing by zero.

    The transient's S^(n) come from the output port node's periodic steady
    state at ``pts_per_cycle`` points per stimulus cycle (the ``phasors`` of
    :func:`simulate`), which needs no ring-up and no fit.  The run still
    spans ``mod_periods`` modulation periods past ring-up, which the
    divergence guard checks and a dump holds.  It keeps no period maps, unless
    a ``waveforms_path`` asks for every node's waveform, which that path
    receives through :func:`write_waveforms`; the error is the same either way.
    """
    p_in, q_out = ports
    port_map = {p.index: p for p in net.ports}
    if p_in not in port_map or q_out not in port_map:
        raise ValueError(f"ports {ports} not present in netlist")

    # the run's step and size are checked before the harmonic solve
    dt, duration = time_grid(net, f, basis.f_mod, pts_per_cycle, mod_periods)
    grid = sparams(net, basis, [f])
    qi, pi = q_out - 1, p_in - 1
    s_htm = np.array([grid.harmonic(n)[0, qi, pi] for n in (-1, 0, 1)])

    res = simulate(net, (p_in, f), duration, dt, keep_maps=waveforms_path is not None)
    s_td = res.phasors[port_map[q_out].node] / math.sqrt(port_map[q_out].z0)
    if q_out == p_in:
        s_td[1] -= 1.0

    floor = 0.05 * float(np.max(np.abs(s_htm)))
    denom = np.maximum(np.abs(s_htm), max(floor, 1e-12))
    if waveforms_path is not None:
        write_waveforms(res, waveforms_path)
    return float(np.max(np.abs(s_td - s_htm) / denom))


def write_waveforms(res: TransientResult, path) -> None:
    """Dump every node's waveform as CSV (t_s, one column per node, in the
    maps' node order); gzip when path ends .gz.

    The gzip member has mtime 0, so equal waveforms give equal bytes.  It uses
    level 1, as ``repr`` digits barely compress: level 9 is 10x slower for 8% less.
    The samples are formed from the result's maps one period at a time
    (:func:`_period_blocks`) and written BLOCK_ROWS rows at a time through
    :func:`fbarcirc.fileio.atomic_open`, so a failed dump leaves no partial file.  A result without maps raises
    :class:`ValueError` before any file is made.
    """
    maps = res.maps
    if maps is None:
        raise ValueError("this run kept no maps, so it has no waveform to write: "
                         "simulate(keep_maps=True) keeps them")
    path = str(path)
    with atomic_open(path) as raw:
        # The gzip header names the final file, not the temp file.  Closing
        # the text layer flushes the compressor (a zlib sync flush) before its
        # trailer, as dumps always have, so the archive's bytes stay stable.
        gz = gzip.GzipFile(path, "wb", 1, raw, mtime=0) if path.endswith(".gz") else None
        with io.TextIOWrapper(gz or raw, encoding="utf-8") as fh:
            fh.write("t_s," + ",".join(f"v_{n}" for n in maps.nodes) + "\n")
            for first, cols in _period_blocks(maps):
                for b in range(0, cols.shape[1], BLOCK_ROWS):
                    t = (first + np.arange(b, min(b + BLOCK_ROWS, cols.shape[1]))) * res.dt
                    block = zip(t.tolist(), *(c[b:b + BLOCK_ROWS].tolist() for c in cols))
                    fh.writelines(",".join(map(repr, row)) + "\n" for row in block)
