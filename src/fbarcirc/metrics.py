"""Circulator figures of merit from multi-harmonic S-parameter grids.

All dB figures are reported as positive magnitudes: isolation
ix = -20*log10|S_isolated,in|, insertion loss il = -20*log10|S_through,in|,
return loss rl = -20*log10|S_in,in|.  Perfect nulls are capped at 200 dB and
sideband levels are floored at -200 dBc, its mirror: a sideband that cancels
exactly (the differential circulator's) shows solver round-off, about
-260 dBc, and the floor keeps that noise out of the reported figure.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from .htm import SParamGrid
from .record import Record

DB_CAP = 200.0
SIDEBAND_FLOOR_DBC = -200.0


class FrequencyOffGrid(ValueError):
    """Requested frequency is farther than half a grid step from any point."""


class Direction(NamedTuple):
    """Port roles for the figures of merit (1-based indices)."""

    in_port: int = 1
    through_port: int = 2
    isolated_port: int = 3


class CirculatorMetrics(Record):
    """Figures of merit at the operating point f_op (argmax of isolation)."""

    f_op: float
    ix_db: float
    il_db: float
    rl_db: float
    bw_hz: float | None
    sideband_worst_dbc: float

    def record(self) -> str:
        """Single-line machine-readable record with the documented key set."""
        return json.dumps({
            "f_op_hz": self.f_op,
            "ix_db": self.ix_db,
            "il_db": self.il_db,
            "rl_db": self.rl_db,
            "bw_hz": self.bw_hz,
            "sideband_dbc": self.sideband_worst_dbc,
        }, sort_keys=True)

    @staticmethod
    def from_record(line: str) -> "CirculatorMetrics":
        """Parse :meth:`record` output; ValueError unless every figure is a
        finite real number (``bw_hz`` may also be null)."""
        d = json.loads(line)

        def number(key: str, optional: bool = False) -> float | None:
            value = d[key]
            if value is None and optional:
                return None
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not math.isfinite(value):
                raise ValueError(f"{key} must be a finite number, got {value!r}")
            return float(value)

        return CirculatorMetrics(f_op=number("f_op_hz"), ix_db=number("ix_db"),
                                 il_db=number("il_db"), rl_db=number("rl_db"),
                                 bw_hz=number("bw_hz", optional=True),
                                 sideband_worst_dbc=number("sideband_dbc"))


def _attenuation_db(mag: float) -> float:
    """-20*log10(mag) with zero mapped to the 200 dB cap."""
    if mag <= 0.0:
        return DB_CAP
    return min(-20.0 * math.log10(mag), DB_CAP)


def _freq_index(grid: SParamGrid, f: float) -> int:
    """Nearest grid point; f must lie within half the grid step on its side of it."""
    freqs = grid.frequencies
    if freqs.size == 1:
        if freqs[0] != f:
            raise FrequencyOffGrid(f"single-point grid at {freqs[0]} Hz does not cover {f} Hz")
        return 0
    i = int(np.argmin(np.abs(freqs - f)))
    steps = np.diff(freqs)
    side = i if f >= freqs[i] else i - 1
    local = steps[min(max(side, 0), steps.size - 1)]
    if abs(freqs[i] - f) > 0.5 * local:
        raise FrequencyOffGrid(f"{f} Hz is more than half a grid step from the grid")
    return i


def metrics_at(grid: SParamGrid, f: float,
               direction: Direction = Direction()) -> tuple[float, float, float]:
    """(ix_db, il_db, rl_db) at the grid point nearest f."""
    i = _freq_index(grid, f)
    s0 = grid.s0[i]
    p_in = direction.in_port - 1
    ix = _attenuation_db(abs(s0[direction.isolated_port - 1, p_in]))
    il = _attenuation_db(abs(s0[direction.through_port - 1, p_in]))
    rl = _attenuation_db(abs(s0[p_in, p_in]))
    return ix, il, rl


def _isolation_curve(grid: SParamGrid, direction: Direction) -> np.ndarray:
    mags = np.abs(grid.s0[:, direction.isolated_port - 1, direction.in_port - 1])
    with np.errstate(divide="ignore"):
        ix = -20.0 * np.log10(mags)
    return np.minimum(np.nan_to_num(ix, posinf=DB_CAP), DB_CAP)


def operating_point(grid: SParamGrid, direction: Direction = Direction()) -> float:
    """Frequency of maximum isolation; lowest frequency wins ties."""
    ix = _isolation_curve(grid, direction)
    return float(grid.frequencies[int(np.argmax(ix))])


def bandwidth_at(grid: SParamGrid, threshold_db: float,
                 direction: Direction = Direction()) -> float | None:
    """Width of the contiguous interval around f_op where ix >= threshold.

    Edges are located by linear interpolation in (dB, Hz); intervals running
    into the grid boundary are clamped there.  Returns None when the
    threshold is never reached.
    """
    if grid.frequencies.size < 3:
        raise ValueError("need at least 3 grid frequencies")
    if threshold_db <= 0.0:
        raise ValueError("threshold must be a positive dB magnitude")
    ix = _isolation_curve(grid, direction)
    freqs = grid.frequencies
    i0 = int(np.argmax(ix))
    if ix[i0] < threshold_db:
        return None
    lo = i0
    while lo > 0 and ix[lo - 1] >= threshold_db:
        lo -= 1
    hi = i0
    while hi < ix.size - 1 and ix[hi + 1] >= threshold_db:
        hi += 1
    if lo > 0:
        f_lo = freqs[lo] + (threshold_db - ix[lo]) * (freqs[lo - 1] - freqs[lo]) / (ix[lo - 1] - ix[lo])
    else:
        f_lo = freqs[0]
    if hi < ix.size - 1:
        f_hi = freqs[hi] + (threshold_db - ix[hi]) * (freqs[hi + 1] - freqs[hi]) / (ix[hi + 1] - ix[hi])
    else:
        f_hi = freqs[-1]
    return float(f_hi - f_lo)


def sideband_scan(grid: SParamGrid, direction: Direction = Direction()) -> float:
    """Worst conversion product in dBc over the sweep, floored at SIDEBAND_FLOOR_DBC.

    For every stimulus frequency, each |S^(n)_q,in| with n != 0 is compared
    against the transmitted |S^(0)_through,in| at the same stimulus.
    """
    p_in = direction.in_port - 1
    thru = np.maximum(np.abs(grid.s0[:, direction.through_port - 1, p_in]), 1e-300)
    worst = SIDEBAND_FLOOR_DBC
    for n in range(-grid.n_harm, grid.n_harm + 1):
        if n == 0:
            continue
        mags = np.abs(grid.harmonic(n)[:, :, p_in])   # (F, q)
        for q in range(grid.ports):
            ratio = mags[:, q] / thru
            worst = max(worst, 20.0 * math.log10(max(float(np.max(ratio)), 1e-300)))
    return worst


def summarize(grid: SParamGrid, direction: Direction = Direction(),
              bw_threshold_db: float = 25.0) -> CirculatorMetrics:
    """Full figure-of-merit record at the grid's operating point."""
    f_op = operating_point(grid, direction)
    ix, il, rl = metrics_at(grid, f_op, direction)
    bw = bandwidth_at(grid, bw_threshold_db, direction) if grid.frequencies.size >= 3 else None
    return CirculatorMetrics(f_op=f_op, ix_db=ix, il_db=il, rl_db=rl, bw_hz=bw,
                             sideband_worst_dbc=sideband_scan(grid, direction))


def metrics_table(metrics: CirculatorMetrics) -> str:
    """Plain-text table of one metrics record."""
    rows = [
        ("f_op", f"{metrics.f_op / 1e6:.3f} MHz"),
        ("isolation", f"{metrics.ix_db:.2f} dB"),
        ("insertion loss", f"{metrics.il_db:.2f} dB"),
        ("return loss", f"{metrics.rl_db:.2f} dB"),
        ("bw @ threshold", "n/a" if metrics.bw_hz is None else f"{metrics.bw_hz / 1e6:.3f} MHz"),
        ("worst sideband", f"{metrics.sideband_worst_dbc:.1f} dBc"),
    ]
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)
