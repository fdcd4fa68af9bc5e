"""Derivative-free tuning of modulation depth, modulation frequency and
stimulus frequency to maximize isolation under an insertion-loss cap.

The search is a deterministic Nelder-Mead simplex with bound clipping and a
hard evaluation budget, optionally restarted from a seeded low-discrepancy
sequence; a restart runs only after a start converges within the budget.
Every evaluation lands in the trace, so a run is reproducible from
(problem, seed) alone.  A run builds and stamps its circulator once
(:class:`htm.Stamped`); an evaluation remodulates it at each point's delta,
the one depth of every branch, and solves each point's f_op through
:func:`htm.sparams` on a basis of each point's f_mod, bit for bit what a
fresh build would give.  A simplex step solves its reflection
together with the point it will likely ask for next, the expansion or the
contraction, in one batch; the initial simplex and a shrink go as one batch
each, all through one batch hook (a test may pass a synthetic objective).
Only the points the search takes count against the budget or reach the
trace, which is that of one point at a time.  On the stock circulator a
batch of K points costs about 250 us plus 155 us per point, of which the
LAPACK solves are about 100 us per point (:mod:`htm` says where the rest
goes), and the search's own arithmetic about 3 ms of a 300-evaluation
tune: its convergence test reads the values first, in plain floats.  The
tuner returns only the search result; the metrics at the tuned point come
from simulating the emitted configuration (``fbarcirc tune`` does this, so
``simulate`` of that file reproduces them).
"""

from __future__ import annotations

import math

import numpy as np

from . import htm
from .fileio import atomic_write_text
from .htm import DegenerateStimulus, HarmonicBasis, NumericallySingular
from .metrics import _attenuation_db
from .netlist import build_circulator
from .plan import TuneFailed, TuneProblem
from .record import Record, replace

PENALTY_PER_DB = 100.0


class TuneResult(Record):
    """Best parameters found and the evaluation trace."""

    delta: float
    f_mod: float
    f_op: float
    trace: list[tuple[np.ndarray, float]]
    evaluations: int
    budget_exhausted: bool


def penalized_objective(ix_db: float, il_db: float, il_cap_db: float) -> float:
    """-ix + 100 per dB of insertion loss above the cap (lower is better)."""
    return -ix_db + PENALTY_PER_DB * max(0.0, il_db - il_cap_db)


def _stamped_box(problem: TuneProblem) -> htm.Stamped:
    """The problem's circulator, built and stamped once for every evaluation.
    Every point of the search box stamps the same structure; the box's lower
    corner is a valid modulation whatever the design's own delta."""
    return htm.Stamped(build_circulator(replace(problem.design, delta=problem.delta_bounds[0],
                                                f_mod=problem.f_mod_bounds[0])))


def _objectives(points, problem: TuneProblem, stamped: htm.Stamped) -> list:
    """The objective at each (delta, f_mod, f_op) point, solved as one batch on
    ``stamped``: a float, or the solver failure that makes the point +inf.  A
    failing batch is solved again a point at a time, so that a failure costs
    only its own point; each point's bits are its own either way."""
    deltas, f_mods, f_ops = np.array(points, dtype=float).T.tolist()
    stamped.modulate(*([delta] * stamped.nb for delta in deltas))
    try:
        grid = htm.sparams(stamped, HarmonicBasis(tuple(f_mods), problem.n_harm), f_ops)
    except (NumericallySingular, DegenerateStimulus) as exc:
        return [exc] if len(points) == 1 else [
            v for p in points for v in _objectives([p], problem, stamped)]
    # each point's |S_iso,in| and |S_thru,in| by scalar abs, with metrics_at's
    # bits; np.abs differs from it in the last bit on about a third of values
    d = problem.direction
    pairs = grid.s0[:, (d.isolated_port - 1, d.through_port - 1), d.in_port - 1].tolist()
    return [penalized_objective(_attenuation_db(abs(iso)), _attenuation_db(abs(thru)),
                                problem.il_cap_db) for iso, thru in pairs]


def _taken(params, value) -> float:
    """A point's objective as the search takes it: a failure, logged here, is +inf."""
    if isinstance(value, Exception):
        import logging  # here, so that a tune with no failure never loads it

        logging.getLogger(__name__).warning("objective failed at delta=%g f_mod=%g f_op=%g: %s",
                                            *(float(v) for v in params), value)
        return math.inf
    return value


class _BudgetExhausted(Exception):
    pass


def _nelder_mead(ev, x0: np.ndarray, steps: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, max_iter: int) -> None:
    """Minimize via reflect/expand/contract/shrink; points clipped to bounds.

    Evaluation, bookkeeping and stopping-by-budget live in ``ev(x, *ahead)``,
    which may solve the points ``ahead`` with x.  A step's look-ahead is the
    expansion or the contraction, whichever the last step needing a second
    point needed (at first the contraction); the initial simplex and a
    shrink each go as one batch.
    """
    dim = x0.size

    def clip(x):
        return np.minimum(np.maximum(x, lo), hi)

    simplex = [clip(x0)]
    for i in range(dim):
        p = x0.copy()
        p[i] += steps[i]
        simplex.append(clip(p))
    values = [ev(p, *simplex[i + 1:]) for i, p in enumerate(simplex)]
    expand = False

    for _ in range(max_iter):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        # the values' test first: it is plain floats, and rarely passes
        if (abs(values[-1] - values[0]) <= 1e-12 * (1.0 + abs(values[0]))
                and np.abs(simplex[-1] - simplex[0]).max()
                <= 1e-9 * (np.abs(simplex[0]).max() + 1e-30)):
            return
        # the bits of np.mean over the simplex's first axis, which sums it in order
        centroid = sum(simplex[1:-1], simplex[0]) / dim
        worst = simplex[-1]
        xr = clip(centroid + (centroid - worst))
        xe = clip(centroid + 2.0 * (centroid - worst))
        xc = clip(centroid + 0.5 * (worst - centroid))
        fr = ev(xr, xe if expand else xc)
        if fr < values[0]:
            expand = True
            fe = ev(xe)
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            expand = False
            fc = ev(xc)
            if fc < values[-1]:
                simplex[-1], values[-1] = xc, fc
            else:
                best = simplex[0]
                simplex[1:] = [clip(best + 0.5 * (p - best)) for p in simplex[1:]]
                values[1:] = [ev(p, *simplex[i + 2:]) for i, p in enumerate(simplex[1:])]


_LOW_DISCREPANCY_ALPHA = np.array([0.6180339887498949,   # 1/phi
                                   0.7548776662466927,   # 1/rho (plastic)
                                   0.5698402909980532])  # 1/rho^2


def tune(problem: TuneProblem, seed: int = 0, objectives=None) -> TuneResult:
    """Run the bounded simplex search; deterministic given (problem, seed).

    ``objectives(points) -> list[float | Exception]`` solves a batch of
    (delta, f_mod, f_op) points; by default it is :func:`_objectives` on the
    problem's circulator, stamped once for the whole run (a test may pass a
    synthetic one).  Returns the best point seen, never worse than the first
    evaluation; ``budget_exhausted`` flags a stop on budget rather than
    convergence.  Raises :class:`TuneFailed` when no evaluation returns a
    finite objective.  No metrics are computed here: the caller simulates
    the best point on whatever grid it reports.
    """
    lo, hi = problem.bounds
    span = hi - lo
    if objectives is None:
        stamped = _stamped_box(problem)
        objectives = lambda points: _objectives(points, problem, stamped)
    trace: list[tuple[np.ndarray, float]] = []
    solved: list[tuple[np.ndarray, object]] = []  # the last batch: each point and its value

    def ev(x: np.ndarray, *ahead: np.ndarray) -> float:
        # the objective at x, traced; the points ahead are solved with it
        if len(trace) >= problem.budget:
            raise _BudgetExhausted
        if not any(p is x for p, _ in solved):
            solved[:] = zip((x,) + ahead, objectives((x,) + ahead))
        v = _taken(x, next(v for p, v in solved if p is x))
        trace.append((x.copy(), v))
        return v

    exhausted = False
    try:
        for s in range(problem.starts):
            if s == 0:
                x0 = lo + 0.5 * span
            else:  # drawn here: a tune with no restart never imports numpy.random
                u0 = np.random.default_rng(seed).random(3)
                x0 = lo + ((u0 + s * _LOW_DISCREPANCY_ALPHA) % 1.0) * span
            _nelder_mead(ev, x0, 0.25 * span, lo, hi, max_iter=10 * problem.budget)
    except _BudgetExhausted:
        exhausted = True
    finite = [(v, i) for i, (_, v) in enumerate(trace) if v < math.inf]
    if not finite:
        raise TuneFailed(f"none of {len(trace)} evaluations returned a finite objective")

    delta, f_mod, f_op = (float(v) for v in trace[min(finite)[1]][0])
    return TuneResult(delta=delta, f_mod=f_mod, f_op=f_op, trace=trace,
                      evaluations=len(trace), budget_exhausted=exhausted)


def write_trace_csv(result: TuneResult, path) -> None:
    """eval_index, delta, f_mod_Hz, f_op_Hz, objective per evaluation."""
    lines = ["eval_index,delta,f_mod_hz,f_op_hz,objective"]
    for i, (x, v) in enumerate(result.trace):
        lines.append(f"{i},{float(x[0])!r},{float(x[1])!r},{float(x[2])!r},{float(v)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
