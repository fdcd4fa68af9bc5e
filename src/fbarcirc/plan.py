"""What a run of either engine is asked for, laid out and checked without
loading that engine: the transient oracle's time grid with its size rules
and errors, and the tuner's search problem with its failure.

A config checks both when it is built, which every workflow but ``fit`` and
``report`` does first; so they live here, where ``simulate`` can check them
without compiling :mod:`fbarcirc.transient`, and the command line maps
every error to its exit code without either engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import Direction
from .netlist import CirculatorDesign, Netlist

# Size bounds of one oracle run, checked before anything is allocated: the
# steps of one modulation period (whose maps are held, nodes x unknowns values
# per step) and the samples per node of the waveform.  The 800-points-per-cycle
# run of the differential replica needs 89,655 and 2.85M.
MAX_PERIOD_STEPS = 1 << 20
MAX_SAMPLES = 1 << 25
# fewest points per stimulus cycle of a run's step: simulate's and time_grid's floor
MIN_PTS_PER_CYCLE = 50


class StepTooLarge(ValueError):
    """Time step leaves fewer than MIN_PTS_PER_CYCLE points per stimulus cycle."""


class RunTooLarge(ValueError):
    """The run needs more steps per period or samples than the size bounds
    allow, or more points per stimulus cycle than it asked for."""


class Diverged(ArithmeticError):
    """Waveform magnitude exceeded the divergence guard."""


def _too_coarse(dt: float, f: float) -> bool:  # fewer than MIN_PTS_PER_CYCLE a cycle at f
    return dt > 1.0 / (MIN_PTS_PER_CYCLE * f)


def _steps(duration: float, dt: float) -> float:
    """duration/dt; :class:`RunTooLarge` above MAX_SAMPLES samples per node."""
    n = duration / dt
    if not n + 1.0 <= MAX_SAMPLES:
        raise RunTooLarge(f"{n + 1.0:.4g} samples per node exceed MAX_SAMPLES = {MAX_SAMPLES}")
    return n


def time_grid(net: Netlist, f: float, f_mod: float, pts_per_cycle: int,
              mod_periods: float) -> tuple[float, float]:
    """(dt, duration) of a cross-check run: about ``pts_per_cycle`` steps per
    stimulus cycle, for five time constants of the highest-Q (capped at
    1e4), lowest-frequency branch plus ``mod_periods`` modulation periods.

    dt = 1/(P*f_mod) with P = round(pts_per_cycle*f/f_mod), raised by the fewest steps
    that pass :func:`fbarcirc.transient.simulate`'s MIN_PTS_PER_CYCLE test where it rounds
    under it, so one modulation period is exactly P steps, integrated once, and dt differs
    from 1/(pts_per_cycle*f) by less than 1/P relative.  Raises :class:`StepTooLarge` below
    MIN_PTS_PER_CYCLE ``pts_per_cycle``; :class:`RunTooLarge` when P would exceed
    MAX_PERIOD_STEPS, or round to 0 (a step of a whole modulation period would take far
    more points per stimulus cycle than asked for), or the run exceed MAX_SAMPLES; and
    :class:`ValueError` unless ``f`` and ``f_mod`` are finite and positive."""
    if not (0.0 < f < math.inf and 0.0 < f_mod < math.inf):  # NaN fails
        raise ValueError(f"f = {f} Hz and f_mod = {f_mod} Hz must be finite and positive")
    if pts_per_cycle < MIN_PTS_PER_CYCLE:
        raise StepTooLarge(f"{pts_per_cycle} points per cycle are fewer than "
                           f"MIN_PTS_PER_CYCLE = {MIN_PTS_PER_CYCLE}")
    steps = pts_per_cycle * f / f_mod
    if not steps <= MAX_PERIOD_STEPS:  # also when it overflows, which round() would raise on
        raise RunTooLarge(f"{steps:.4g} steps per modulation period exceed "
                          f"MAX_PERIOD_STEPS = {MAX_PERIOD_STEPS}")
    if round(steps) < 1:
        raise RunTooLarge(f"f_mod = {f_mod} Hz is too fast for {pts_per_cycle} points per "
                          f"cycle at {f} Hz: a modulation period would hold {steps:.4g} "
                          f"steps, fewer than one")
    q_max, f_min = 0.0, math.inf
    for el in net.modulated:
        q_max = max(q_max, min(el.branch.q, 1e4))
        f_min = min(f_min, el.branch.f_s)
    ring_up = 5.0 * q_max / (math.pi * f_min) if math.isfinite(f_min) and q_max else 0.0
    p = round(steps)
    while _too_coarse(1.0 / (p * f_mod), f):  # P rounded down under the floor
        p += 1
    dt, duration = 1.0 / (p * f_mod), ring_up + mod_periods / f_mod
    _steps(duration, dt)
    return dt, duration


@dataclass(frozen=True)
class TuneProblem:
    """Search space and constraints for one tuning run, as RunConfig.tune_problem lays it out."""

    design: CirculatorDesign
    delta_bounds: tuple[float, float]
    f_mod_bounds: tuple[float, float]
    f_op_bounds: tuple[float, float]
    il_cap_db: float
    budget: int
    n_harm: int
    direction: Direction
    starts: int

    def __post_init__(self) -> None:
        for name, (lo, hi) in (("delta", self.delta_bounds),
                               ("f_mod", self.f_mod_bounds),
                               ("f_op", self.f_op_bounds)):
            if not lo < hi:
                raise ValueError(f"{name} bounds must be non-degenerate, got ({lo}, {hi})")
        if not (0.0 <= self.delta_bounds[0] and self.delta_bounds[1] < 1.0):
            raise ValueError(f"delta bounds must lie in [0, 1), got {self.delta_bounds}")
        if not (self.f_mod_bounds[0] > 0.0 and self.f_op_bounds[0] > 0.0):
            raise ValueError(f"f_mod and f_op bounds must be positive, got "
                             f"{self.f_mod_bounds} and {self.f_op_bounds}")
        if not math.isfinite(self.il_cap_db):
            raise ValueError(f"il_cap_db must be finite, got {self.il_cap_db}")
        if self.budget < 10:
            raise ValueError(f"budget must be at least 10, got {self.budget}")
        if self.starts < 1:
            raise ValueError(f"starts must be at least 1, got {self.starts}")

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([self.delta_bounds[0], self.f_mod_bounds[0], self.f_op_bounds[0]])
        hi = np.array([self.delta_bounds[1], self.f_mod_bounds[1], self.f_op_bounds[1]])
        return lo, hi


class TuneFailed(ArithmeticError):
    """No evaluation of a tune returned a finite objective."""
