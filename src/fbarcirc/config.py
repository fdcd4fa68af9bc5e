"""Run configuration: flat ``key = value`` text with dotted section prefixes.

All physical quantities are SI base units (Hz, F, H, Ohm, seconds); no unit
suffixes are parsed.  ``#`` starts a comment.  Unknown keys are rejected so
typos fail loudly.  Example::

    design.topology = differential
    design.f_s = 2.65e9
    sweep.f_start = 2.6e9
    sweep.f_stop = 2.76e9
    sweep.points = 201
    basis.n_harm = 5
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bvd import ResonatorSpecs
from .metrics import Direction
from .netlist import CirculatorDesign, PhaseSequence, Topology


class ConfigError(ValueError):
    """Invalid or missing configuration entry; message carries the key path."""


_DEFAULTS: dict[str, object] = {
    "design.topology": "differential",
    "design.f_s": 2.65e9,
    "design.q": 700.0,
    "design.k_sq": 0.09,
    "design.c0": 1.0e-12,
    "design.delta": 0.0,
    "design.f_mod": 23.2e6,
    "design.z0": 50.0,
    "design.phase_sequence": "forward",
    "design.c0_to_ground": True,
    "sweep.f_start": 2.6e9,
    "sweep.f_stop": 2.76e9,
    "sweep.points": 201,
    "sweep.include": "",
    "basis.n_harm": 5,
    "metrics.in_port": 1,
    "metrics.through_port": 2,
    "metrics.isolated_port": 3,
    "metrics.bw_threshold_db": 25.0,
    "outputs.s3p": "sim.s3p",
    "outputs.harmonics": "harmonics.csv",
    "outputs.metrics": "metrics.json",
    "tuner.delta_max": 0.1,
    "tuner.f_mod_window": 0.4,
    "tuner.f_op_window": 0.02,
    "tuner.il_cap_db": 2.85,
    "tuner.budget": 300,
    "tuner.starts": 4,
    "tuner.metrics_span": 25.0e6,
    "tuner.metrics_points": 251,
    "verify.scale": 1000.0,
    "verify.q": 100.0,
    "verify.f_ratio": 1.0113,
    "verify.delta_single": 0.05,
    "verify.delta_wye": 0.02,
    "verify.pts_per_cycle": 400,
    "verify.pts_per_cycle_static": 800,
    "verify.mod_periods": 22.0,
    "verify.mod_periods_static": 8.0,
    "verify.gate_static": 1.0e-3,
    "verify.gate_single": 1.0e-2,
    "verify.gate_wye": 2.0e-2,
}


@dataclass
class RunConfig:
    """Parsed configuration: every key, defaults filled in."""

    values: dict[str, object]

    def _typed(self, key: str, caster, kind: str):
        raw = self.values[key]
        try:
            return caster(raw)
        except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
            raise ConfigError(f"{key}: expected {kind}, got {raw!r}") from exc

    def get_float(self, key: str) -> float:
        return self._typed(key, float, "number")

    def get_int(self, key: str) -> int:
        def cast(v):
            f = float(v)
            if f != int(f):
                raise ValueError(v)
            return int(f)
        return self._typed(key, cast, "integer")

    def get_bool(self, key: str) -> bool:
        def cast(v):
            if isinstance(v, bool):
                return v
            s = str(v).strip().lower()
            if s in ("true", "1", "yes"):
                return True
            if s in ("false", "0", "no"):
                return False
            raise ValueError(v)
        return self._typed(key, cast, "boolean")

    def get_str(self, key: str) -> str:
        return str(self.values[key])

    # Section builders -----------------------------------------------------

    def design(self) -> CirculatorDesign:
        topo_raw = self.get_str("design.topology")
        try:
            topology = Topology(topo_raw)
        except ValueError:
            raise ConfigError(f"design.topology: expected single_ended or differential, "
                              f"got {topo_raw!r}")
        seq_raw = self.get_str("design.phase_sequence")
        try:
            sequence = PhaseSequence(seq_raw)
        except ValueError:
            raise ConfigError(f"design.phase_sequence: expected forward or reverse, "
                              f"got {seq_raw!r}")
        try:
            specs = ResonatorSpecs(f_s=self.get_float("design.f_s"),
                                   q=self.get_float("design.q"),
                                   k_sq=self.get_float("design.k_sq"),
                                   c0=self.get_float("design.c0"))
            return CirculatorDesign(topology=topology, resonator=specs,
                                    delta=self.get_float("design.delta"),
                                    f_mod=self.get_float("design.f_mod"),
                                    z0=self.get_float("design.z0"),
                                    phase_sequence=sequence,
                                    c0_to_ground=self.get_bool("design.c0_to_ground"))
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"design: {exc}") from exc

    def sweep_frequencies(self) -> np.ndarray:
        f_start = self.get_float("sweep.f_start")
        f_stop = self.get_float("sweep.f_stop")
        points = self.get_int("sweep.points")
        include = self.get_str("sweep.include")
        try:
            extra = [float(t) for t in include.split(",") if t.strip()]
        except ValueError as exc:
            raise ConfigError(f"sweep.include: {exc}") from exc
        for key, f in ([("sweep.f_start", f_start), ("sweep.f_stop", f_stop)]
                       + [("sweep.include", f) for f in extra]):
            if not (math.isfinite(f) and f > 0.0):
                raise ConfigError(f"{key}: must be finite and positive, got {f}")
        if not f_start < f_stop:
            raise ConfigError(f"sweep.f_start: must be below sweep.f_stop "
                              f"({f_start} >= {f_stop})")
        if points < 2:
            raise ConfigError(f"sweep.points: need at least 2, got {points}")
        grid = np.linspace(f_start, f_stop, points)
        return np.union1d(grid, extra) if extra else grid

    def basis_f_mod(self) -> float:
        """Modulation frequency of the harmonic basis: always design.f_mod
        (the benchmark worker builds its basis from this)."""
        return self.get_float("design.f_mod")

    def direction(self) -> Direction:
        """Port roles of the 3-port circulator: each of 1..3, all distinct."""
        keys = ("metrics.in_port", "metrics.through_port", "metrics.isolated_port")
        roles = [self.get_int(key) for key in keys]
        for key, port in zip(keys, roles):
            if port not in (1, 2, 3):
                raise ConfigError(f"{key}: expected a port index 1..3, got {port}")
        if len(set(roles)) != 3:
            raise ConfigError(f"metrics: in, through and isolated ports must differ, "
                              f"got {roles}")
        return Direction(*roles)


def parse_config(text: str) -> RunConfig:
    """Parse config text; unknown keys, malformed lines and a bad
    metrics.bw_threshold_db raise ConfigError."""
    values = dict(_DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in values:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = value
    cfg = RunConfig(values=values)
    # checked here, so that a bad value fails every workflow before any work
    threshold = cfg.get_float("metrics.bw_threshold_db")
    if not (math.isfinite(threshold) and threshold > 0.0):
        raise ConfigError(f"metrics.bw_threshold_db: must be finite and positive, "
                          f"got {threshold}")
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form (sorted keys, repr values); reparses losslessly."""
    lines = []
    for key in sorted(cfg.values):
        v = cfg.values[key]
        if isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{key} = {v}")
    return "\n".join(lines) + "\n"
