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

:data:`SCHEMA` declares each key's default, kind and range.  A :class:`RunConfig`
checks every key and the facts that tie keys together when it is built, so
a bad value fails every workflow before any work, even one that never reads it.
"""

from __future__ import annotations

import itertools
import math
import os
from typing import NamedTuple

import numpy as np

from .bvd import ResonatorSpecs, bvd_from_specs
from .fileio import read_text
from .metrics import Direction
from .netlist import (CirculatorDesign, ModulationSpec, Netlist, PhaseSequence, Topology,
                      build_one_port, build_toy_wye, scale_frequency)
from .plan import TuneProblem, time_grid
from .record import Record, replace


class ConfigError(ValueError):
    """Invalid or missing configuration entry; message carries the key path."""


class Key(NamedTuple):
    """Default, kind (float, int, bool, an enum, ``list`` of frequencies or ``str``
    file name) and the interval a number, or each listed frequency, lies in."""

    default: object
    kind: type
    interval: str = "(-inf, inf)"


SCHEMA: dict[str, Key] = {
    "design.topology": Key("differential", Topology),
    "design.f_s": Key(2.65e9, float, "(0, inf)"),
    "design.q": Key(700.0, float, "(0, inf)"),
    "design.k_sq": Key(0.09, float, "(0, 1)"),
    "design.c0": Key(1.0e-12, float, "(0, inf)"),
    "design.delta": Key(0.0, float, "[0, 1)"),
    "design.f_mod": Key(23.2e6, float, "(0, inf)"),
    "design.z0": Key(50.0, float, "(0, inf)"),
    "design.phase_sequence": Key("forward", PhaseSequence),
    "design.c0_to_ground": Key(True, bool),
    "sweep.f_start": Key(2.6e9, float, "(0, inf)"),
    "sweep.f_stop": Key(2.76e9, float, "(0, inf)"),
    "sweep.points": Key(201, int, "[2, inf)"),
    "sweep.include": Key("", list, "(0, inf)"),
    "basis.n_harm": Key(5, int, "[1, inf)"),
    "metrics.in_port": Key(1, int, "[1, 3]"),
    "metrics.through_port": Key(2, int, "[1, 3]"),
    "metrics.isolated_port": Key(3, int, "[1, 3]"),
    "metrics.bw_threshold_db": Key(25.0, float, "(0, inf)"),
    "outputs.s3p": Key("sim.s3p", str),
    "outputs.harmonics": Key("harmonics.csv", str),
    "outputs.metrics": Key("metrics.json", str),
    "tuner.delta_max": Key(0.1, float, "(0, 1)"),
    "tuner.f_mod_window": Key(0.4, float, "(0, 1)"),
    "tuner.f_op_window": Key(0.02, float, "(0, 1)"),
    # 0.15 dB under a 3 dB budget: with the capped isolation term a perfect
    # null could otherwise buy a small cap violation more cheaply than staying feasible
    "tuner.il_cap_db": Key(2.85, float),
    "tuner.budget": Key(300, int, "[10, inf)"),
    "tuner.starts": Key(4, int, "[1, inf)"),
    "tuner.metrics_span": Key(25.0e6, float, "(0, inf)"),
    "tuner.metrics_points": Key(251, int, "[2, inf)"),
    "verify.scale": Key(1000.0, float, "(0, inf)"),
    "verify.q": Key(100.0, float, "(0, inf)"),
    "verify.f_ratio": Key(1.0113, float, "[0.5, 2]"),
    "verify.delta_single": Key(0.05, float, "[0, 1)"),
    "verify.delta_wye": Key(0.02, float, "[0, 1)"),
    "verify.pts_per_cycle": Key(400, int, "[1, inf)"),
    "verify.pts_per_cycle_static": Key(800, int, "[1, inf)"),
    "verify.mod_periods": Key(22.0, float, "(0, inf)"),
    "verify.mod_periods_static": Key(8.0, float, "(0, inf)"),
    "verify.gate_static": Key(1.0e-3, float, "[0, inf)"),
    "verify.gate_single": Key(1.0e-2, float, "[0, inf)"),
    "verify.gate_wye": Key(2.0e-2, float, "[0, inf)"),
}

MAX_SWEEP_SIZE = 1 << 16
"""Most points x (2*n_harm + 1) harmonics in one sweep; at the bound, simulate of
the tuned differential circulator takes about 4 s and 47 MB peak RSS (2 vCPUs)."""

# Files the workflows write under --out besides the outputs.* names.
FIXED_OUTPUTS = ("run.log", "trace.csv", "tuned_config.cfg", "verify_report.txt")

_PORT_KEYS = ("metrics.in_port", "metrics.through_port", "metrics.isolated_port")
_OUTPUT_KEYS = ("outputs.s3p", "outputs.harmonics", "outputs.metrics")
_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _integer(raw) -> int:
    f = float(raw)
    if f != int(f):  # int(inf) overflows, int(nan) raises
        raise ValueError(raw)
    return int(f)


def _file_name(raw) -> str:
    """A plain file name: not empty, ``.`` or ``..``, and no path separator."""
    name = str(raw)
    if name in ("", ".", "..") or "\0" in name or any(
            sep and sep in name for sep in (os.sep, os.altsep)):
        raise ValueError(raw)
    return name


# kind -> (parser, what the message says was expected)
_PARSERS = {float: (float, "number"), int: (_integer, "integer"),
            bool: (lambda raw: _BOOLEANS[str(raw).lower()], "true or false"),
            list: (lambda raw: [float(t) for t in str(raw).split(",") if t.strip()],
                   "comma-separated numbers"),
            str: (_file_name, "plain file name")}


def _within(value, interval: str) -> bool:
    """``value`` lies in ``interval``, written "(lo, hi)" with [ or ] for a
    closed end; nan lies in none."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo <= value if interval[0] == "[" else lo < value
    below = value <= hi if interval[-1] == "]" else value < hi
    return above and below


def _parse(key: str, spec: Key, raw):
    """The typed value of one key; ConfigError names the key."""
    parser, expected = _PARSERS.get(spec.kind) or (
        spec.kind, " or ".join(member.value for member in spec.kind))
    try:
        value = parser(raw)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from exc
    if spec.kind in (float, int, list):
        for v in value if spec.kind is list else [value]:
            if not _within(v, spec.interval):
                raise ConfigError(f"{key}: must lie in {spec.interval}, got {v}")
    return value


class RunConfig(Record):
    """Parsed configuration, every key filled in and checked on construction.
    Its one field, ``values``, holds the keys as written (what
    :func:`serialize_config` reproduces); ``typed``, derived from it on
    construction, holds them as checked (what the getters and section
    builders return)."""

    values: dict[str, object]

    def __post_init__(self) -> None:
        object.__setattr__(self, "typed", {key: _parse(key, spec, self.values[key])
                                           for key, spec in SCHEMA.items()})
        self._check_together()

    def _check_together(self) -> None:
        """The facts that tie keys together."""
        t = self.typed
        if not t["sweep.f_start"] < t["sweep.f_stop"]:
            raise ConfigError(f"sweep.f_start: must be below sweep.f_stop "
                              f"({t['sweep.f_start']} >= {t['sweep.f_stop']})")
        for keys, fixed in ((_PORT_KEYS, ()), (_OUTPUT_KEYS, FIXED_OUTPUTS)):
            names = [t[key] for key in keys] + list(fixed)
            if len(set(names)) != len(names):
                raise ConfigError(f"{', '.join(keys)}: must differ from each other, got {names}")
        harmonics = 2.0 * t["basis.n_harm"] + 1.0  # floats, so sizes read as 1e300 still format
        for key, points in (("sweep.points", float(t["sweep.points"] + len(t["sweep.include"]))),
                            ("tuner.metrics_points", float(t["tuner.metrics_points"] + 1))):
            if points * harmonics > MAX_SWEEP_SIZE:
                raise ConfigError(f"{key}, basis.n_harm: {points:.4g} points x {harmonics:.4g} "
                                  f"harmonics exceed MAX_SWEEP_SIZE = {MAX_SWEEP_SIZE}")
        # the harmonic engine rounds each stimulus over f_mod to an integer
        top = max(t["design.f_s"], t["sweep.f_stop"], *t["sweep.include"])
        if not math.isfinite(top / t["design.f_mod"]):
            raise ConfigError(f"design.f_mod: {top} Hz / f_mod {t['design.f_mod']} "
                              f"is not finite")
        # BVD elements in float range: the design's here, the verify replicas'
        # where their grids are checked
        try:
            bvd_from_specs(self.design().resonator)
        except ValueError as exc:
            raise ConfigError(f"design.f_s, design.q, design.k_sq, design.c0: element values "
                              f"leave float range ({exc})") from exc
        self.check_verify_grids(t["design.f_mod"])  # tune checks its f_mod box's ends
        # the tune's search box, checked where it is laid out
        try:
            problem = self.tune_problem()
        except ValueError as exc:
            raise ConfigError(f"tuner.delta_max, tuner.f_mod_window, tuner.f_op_window: "
                              f"no valid search box ({exc})") from exc
        # f_op +- span is the post-tune sweep: positive, and wider than a rounding step
        f_op_min, f_op_max = problem.f_op_bounds
        span = t["tuner.metrics_span"]
        if not (span < f_op_min and f_op_max - span < f_op_max + span):
            raise ConfigError(f"tuner.metrics_span: must be below the lowest f_op bound "
                              f"{f_op_min} and resolve the highest {f_op_max}, got {span}")

    def get_float(self, key: str) -> float:
        """The checked value of ``key``; get_int and get_bool are the same lookup."""
        return self.typed[key]

    get_int = get_bool = get_float

    def get_str(self, key: str) -> str:
        return str(self.values[key])

    # Section builders -----------------------------------------------------

    def design(self) -> CirculatorDesign:
        t = self.typed
        specs = ResonatorSpecs(f_s=t["design.f_s"], q=t["design.q"],
                               k_sq=t["design.k_sq"], c0=t["design.c0"])
        return CirculatorDesign(topology=t["design.topology"], resonator=specs,
                                delta=t["design.delta"], f_mod=t["design.f_mod"],
                                z0=t["design.z0"], phase_sequence=t["design.phase_sequence"],
                                c0_to_ground=t["design.c0_to_ground"])

    def sweep_frequencies(self) -> np.ndarray:
        t = self.typed
        grid = np.linspace(t["sweep.f_start"], t["sweep.f_stop"], t["sweep.points"])
        extra = t["sweep.include"]
        if not extra:
            return grid
        # np.union1d's values, by a sort and an adjacent-duplicate mask: only
        # copies, so the grid keeps its bits; np.union1d imports numpy.ma
        values = np.concatenate((grid, extra))
        values.sort()
        return values[np.concatenate(([True], values[1:] != values[:-1]))]

    def basis_f_mod(self) -> float:
        """Modulation frequency of the harmonic basis: always design.f_mod
        (the benchmark worker builds its basis from this)."""
        return self.typed["design.f_mod"]

    def direction(self) -> Direction:
        """Port roles of the 3-port circulator: each of 1..3, all distinct."""
        return Direction(*(self.typed[key] for key in _PORT_KEYS))

    def tune_problem(self) -> TuneProblem:
        """``tune``'s search problem: the design, basis.n_harm, the port roles and tuner.*."""
        t, design = self.typed, self.design()
        f_mod, f_s = design.f_mod, design.resonator.f_s
        w_mod, w_op = t["tuner.f_mod_window"], t["tuner.f_op_window"]
        return TuneProblem(design=design, delta_bounds=(0.0, t["tuner.delta_max"]),
                           f_mod_bounds=(f_mod * (1.0 - w_mod), f_mod * (1.0 + w_mod)),
                           f_op_bounds=(f_s * (1.0 - w_op), f_s * (1.0 + w_op)),
                           n_harm=t["basis.n_harm"], direction=self.direction(),
                           **{key: t[f"tuner.{key}"] for key in ("il_cap_db", "budget", "starts")})

    def check_verify_grids(self, *f_mods: float) -> None:
        """Each verify case's time grid, as the oracle lays it out and checks it, for the
        design at each modulation frequency of ``f_mods``, on cases built once; a
        ConfigError names the case's keys, or verify.q and verify.scale where the cases'
        element values leave float range."""
        try:
            cases, f, _ = self.verify_cases()
        except ValueError as exc:
            raise ConfigError(f"verify.q, verify.scale: element values leave float range "
                              f"({exc})") from exc
        for f_mod, (name, net, _, _, periods, ppc) in itertools.product(f_mods, cases):
            keys = ("verify.pts_per_cycle_static, verify.mod_periods_static" if name == "static"
                    else "verify.pts_per_cycle, verify.mod_periods")
            try:
                time_grid(net, f, f_mod / self.typed["verify.scale"], ppc, periods)
            except ValueError as exc:
                raise ConfigError(f"{keys}: {name} case at f_mod = {f_mod} Hz "
                                  f"({type(exc).__name__}: {exc})") from exc

    def verify_cases(self):
        """``verify``'s oracle circuits, built at the design's own frequency with
        Q = verify.q and replicated verify.scale times lower by scale_frequency:
        [(name, netlist, ports, gate, mod_periods, pts_per_cycle)], f, f_mod."""
        t, design = self.typed, self.design()
        scale = t["verify.scale"]
        branch = bvd_from_specs(replace(design.resonator, q=t["verify.q"])).branches[0]
        c0, z0 = design.resonator.c0, design.z0

        # Zero depth rather than None keeps the static netlist's f_mod equal to the basis's.
        def one_port(delta: float) -> Netlist:
            return scale_frequency(build_one_port(branch, c0, z0,
                                                  ModulationSpec(delta, design.f_mod, 0.0)), scale)

        def toy_wye(delta: float) -> Netlist:
            return scale_frequency(build_toy_wye(branch, c0, z0, (
                ModulationSpec(delta, design.f_mod, 0.0),
                ModulationSpec(delta, design.f_mod, math.pi / 2.0))), scale)

        ppc, periods = t["verify.pts_per_cycle"], t["verify.mod_periods"]
        return [
            ("static", one_port(0.0), (1, 1), t["verify.gate_static"],
             t["verify.mod_periods_static"], t["verify.pts_per_cycle_static"]),
            ("single-branch", one_port(t["verify.delta_single"]), (1, 1),
             t["verify.gate_single"], periods, ppc),
            ("toy-wye", toy_wye(t["verify.delta_wye"]), (1, 2), t["verify.gate_wye"],
             periods, ppc),
        ], t["verify.f_ratio"] * (design.resonator.f_s / scale), design.f_mod / scale


def parse_config(text: str) -> RunConfig:
    """Parse config text; a malformed line, an unknown key or a value that
    fails :data:`SCHEMA` or a cross-key fact raises ConfigError."""
    values = {key: spec.default for key, spec in SCHEMA.items()}
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
    return RunConfig(values=values)


def load_config(path) -> RunConfig:
    return parse_config(read_text(path, ConfigError))


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
