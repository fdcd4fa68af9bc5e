"""Command-line front end.

Five workflows: ``fit`` (resonator parameter extraction), ``simulate``
(S-parameter sweep with exports), ``verify`` (harmonic engine vs transient
oracle), ``tune`` (isolation optimization), and ``report`` (comparison
table against the measured hardware reference).

Exit codes: 0 success, 1 numerical or gate failure, 2 usage/config/parse
error.  Output files carry no timestamps (a sidecar run.log does), so
re-running a command with identical inputs reproduces identical bytes.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import replace

from .bvd import (DegenerateData, FitDiverged, LorentzianFit, MotionalBranch,
                  ParseError, ResonatorSpecs, bvd_from_specs, fit_lorentzian,
                  parallel_resonance, read_admittance_csv)
from .config import ConfigError, RunConfig, load_config, serialize_config
from .fileio import atomic_write_text, fingerprint
from .htm import (DegenerateStimulus, HarmonicBasis, NumericallySingular,
                  SingularStructure, sparams)
from .metrics import CirculatorMetrics, metrics_table, summarize
from .netlist import (ModulationSpec, Netlist, NetlistError, build_circulator,
                      build_one_port, build_toy_wye, scale_frequency, write_netlist)
from .transient import Diverged, IllConditionedBasis, StepTooLarge, cross_validate
from .tuner import TuneProblem, tune, write_trace_csv

# Measured hardware reference (differential FBAR circulator board) used by
# the report command as the comparison column.
HARDWARE_REFERENCE = {
    "f_op_hz": 2.68e9,
    "ix_db": 61.5,
    "il_db": 1.8,
    "bw_hz": 4.7e6,
}

USAGE_ERRORS = (ConfigError, ParseError, NetlistError, SingularStructure,
                DegenerateStimulus, FileNotFoundError, IsADirectoryError)
NUMERICAL_ERRORS = (FitDiverged, DegenerateData, NumericallySingular, Diverged,
                    StepTooLarge, IllConditionedBasis)


def _log(out_dir: str, message: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    with open(os.path.join(out_dir, "run.log"), "a", encoding="utf-8") as fh:
        fh.write(f"{stamp} {message}\n")


# --- fit -------------------------------------------------------------------

def cmd_fit(args) -> int:
    if args.mode == "specs":
        specs = ResonatorSpecs(f_s=args.f_s, q=args.q, k_sq=args.k_sq, c0=args.c0)
        try:
            model = bvd_from_specs(specs)
        except ValueError as exc:  # finite flags whose element values leave float range
            raise ConfigError(f"--f-s {args.f_s!r}, --q {args.q!r}, --k-sq {args.k_sq!r}, "
                              f"--c0 {args.c0!r}: no finite BVD elements ({exc})") from exc
        branch = model.branches[0]
        f_p = parallel_resonance(model)
        print(f"r_m = {branch.r_m:.6g} ohm")
        print(f"l_m = {branch.l_m:.6g} H")
        print(f"c_m = {branch.c_m:.6g} F")
        print(f"f_s = {branch.f_s:.6g} Hz")
        print(f"f_p = {f_p:.6g} Hz")
        if args.emit_netlist:
            net = build_one_port(branch, specs.c0, args.z0)
            atomic_write_text(args.emit_netlist, write_netlist(net))
            print(f"netlist written to {args.emit_netlist}")
        print(json.dumps({"r_m_ohm": branch.r_m, "l_m_h": branch.l_m,
                          "c_m_f": branch.c_m, "c0_f": specs.c0,
                          "f_s_hz": branch.f_s, "f_p_hz": f_p}, sort_keys=True))
        return 0
    if not args.input:
        raise ParseError("lorentzian mode needs an input CSV path")
    samples = read_admittance_csv(args.input)
    fit: LorentzianFit = fit_lorentzian(samples)
    print(f"f0 = {fit.f0:.6g} Hz")
    print(f"q  = {fit.q:.6g}")
    print(f"peak = {fit.peak:.6g} S, baseline = {fit.baseline:.6g} S")
    print(f"rms residual = {fit.residual:.3g} S")
    if args.emit_netlist:
        # peak admittance of a series branch is 1/r_m; q and f0 fix l_m, c_m
        r_m = 1.0 / fit.peak
        l_m = fit.q * r_m / (2.0 * math.pi * fit.f0)
        c_m = 1.0 / ((2.0 * math.pi * fit.f0) ** 2 * l_m)
        branch = MotionalBranch(r_m=r_m, l_m=l_m, c_m=c_m)
        net = build_one_port(branch, args.c0, args.z0)
        atomic_write_text(args.emit_netlist, write_netlist(net))
        print(f"netlist written to {args.emit_netlist}")
    print(json.dumps({"f0_hz": fit.f0, "q": fit.q, "peak_s": fit.peak,
                      "baseline_s": fit.baseline, "residual_s": fit.residual},
                     sort_keys=True))
    return 0


# --- simulate ---------------------------------------------------------------

def _basis(cfg: RunConfig, f_mod: float, n_harm: int | None = None) -> HarmonicBasis:
    """Harmonic basis of order ``n_harm`` (a positive --n-harm), else basis.n_harm."""
    try:
        return HarmonicBasis(f_mod, n_harm if n_harm is not None else cfg.get_int("basis.n_harm"))
    except ValueError as exc:
        raise ConfigError(f"basis.n_harm: {exc}") from exc


def _run_simulation(cfg: RunConfig, out_dir: str, n_harm: int | None = None) -> CirculatorMetrics:
    design = cfg.design()
    net = build_circulator(design)
    basis = _basis(cfg, design.f_mod, n_harm)
    freqs = cfg.sweep_frequencies()
    direction = cfg.direction()
    grid = sparams(net, basis, freqs)
    m = summarize(grid, direction, cfg.get_float("metrics.bw_threshold_db"))

    from .touchstone import write_harmonics_csv, write_s3p
    os.makedirs(out_dir, exist_ok=True)
    tag = f"config_fingerprint = {fingerprint(serialize_config(cfg))}"
    if grid.ports == 3:
        write_s3p(os.path.join(out_dir, cfg.get_str("outputs.s3p")),
                  grid.frequencies, grid.s0, float(grid.z0[0]), comments=(tag,))
    write_harmonics_csv(os.path.join(out_dir, cfg.get_str("outputs.harmonics")),
                        grid, comments=(tag,))
    atomic_write_text(os.path.join(out_dir, cfg.get_str("outputs.metrics")),
                      m.record() + "\n")
    return m


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    m = _run_simulation(cfg, args.out, n_harm=args.n_harm)
    _log(args.out, f"simulate config={args.config} fingerprint={fingerprint(serialize_config(cfg))}")
    print(metrics_table(m))
    print(m.record())
    return 0


# --- verify -----------------------------------------------------------------

def _verify_cases(cfg: RunConfig):
    """Desk-scale oracle circuits, each built at the design's own frequency with
    Q = verify.q and replicated verify.scale times lower by scale_frequency."""
    design = cfg.design()
    for key in ("verify.scale", "verify.q", "verify.f_ratio", "verify.pts_per_cycle",
                "verify.pts_per_cycle_static", "verify.mod_periods",
                "verify.mod_periods_static"):
        value = cfg.get_float(key)
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{key}: must be finite and positive, got {value}")
    scale = cfg.get_float("verify.scale")
    try:
        branch = bvd_from_specs(replace(design.resonator, q=cfg.get_float("verify.q"))).branches[0]
    except ValueError as exc:
        raise ConfigError(f"verify.q: {exc}") from exc
    c0, z0 = design.resonator.c0, design.z0

    def replica(net: Netlist) -> Netlist:
        try:
            return scale_frequency(net, scale)
        except ValueError as exc:  # element values or f_mod out of float range
            raise ConfigError(f"verify.scale: {exc}") from exc

    # Zero depth rather than None keeps the static netlist's f_mod equal to the basis's.
    def one_port(delta: float) -> Netlist:
        return replica(build_one_port(branch, c0, z0, ModulationSpec(delta, design.f_mod, 0.0)))

    def toy_wye(delta: float) -> Netlist:
        return replica(build_toy_wye(branch, c0, z0, (
            ModulationSpec(delta, design.f_mod, 0.0),
            ModulationSpec(delta, design.f_mod, math.pi / 2.0))))

    ppc = cfg.get_int("verify.pts_per_cycle")
    ppc_static = cfg.get_int("verify.pts_per_cycle_static")
    return [
        ("static", one_port(0.0), (1, 1), cfg.get_float("verify.gate_static"),
         cfg.get_float("verify.mod_periods_static"), ppc_static),
        ("single-branch", one_port(cfg.get_float("verify.delta_single")), (1, 1),
         cfg.get_float("verify.gate_single"), cfg.get_float("verify.mod_periods"), ppc),
        ("toy-wye", toy_wye(cfg.get_float("verify.delta_wye")), (1, 2),
         cfg.get_float("verify.gate_wye"), cfg.get_float("verify.mod_periods"), ppc),
    ], cfg.get_float("verify.f_ratio") * (design.resonator.f_s / scale), design.f_mod / scale


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    cases, f, f_mod = _verify_cases(cfg)
    basis = _basis(cfg, f_mod, args.n_harm)
    lines = []
    failed = False
    os.makedirs(args.out, exist_ok=True)
    for name, net, ports, gate, periods, ppc in cases:
        dump = (os.path.join(args.out, f"waveforms_{name}.csv.gz")
                if args.dump_waveforms else None)
        err = cross_validate(net, basis, f, ports=ports, pts_per_cycle=ppc,
                             mod_periods=periods, waveforms_path=dump)
        ok = err <= gate
        failed = failed or not ok
        line = f"{name:<14} error={err:.3e}  gate={gate:.1e}  {'PASS' if ok else 'FAIL'}"
        lines.append(line)
        print(line)
    atomic_write_text(os.path.join(args.out, "verify_report.txt"), "\n".join(lines) + "\n")
    _log(args.out, f"verify config={args.config} failed={failed}")
    return 1 if failed else 0


# --- tune -------------------------------------------------------------------

def _tune_problem(cfg: RunConfig) -> TuneProblem:
    design = cfg.design()
    settings = dict(budget=cfg.get_int("tuner.budget"),
                    il_cap_db=cfg.get_float("tuner.il_cap_db"),
                    n_harm=_basis(cfg, design.f_mod).n_harm,
                    delta_max=cfg.get_float("tuner.delta_max"),
                    f_mod_window=cfg.get_float("tuner.f_mod_window"),
                    f_op_window=cfg.get_float("tuner.f_op_window"),
                    starts=cfg.get_int("tuner.starts"),
                    direction=cfg.direction())
    try:
        return TuneProblem.default(design, **settings)
    except ValueError as exc:
        raise ConfigError(f"tuner: {exc}") from exc


def _metrics_grid(cfg: RunConfig, problem: TuneProblem) -> tuple[float, int]:
    """(half-span, points) of the post-tune grid, checked before any evaluation."""
    span = cfg.get_float("tuner.metrics_span")
    points = cfg.get_int("tuner.metrics_points")
    f_op_min = problem.f_op_bounds[0]
    if not (math.isfinite(span) and 0.0 < span < f_op_min):
        raise ConfigError(f"tuner.metrics_span: must be finite, positive and below the "
                          f"lowest f_op bound {f_op_min}, got {span}")
    if points < 2:
        raise ConfigError(f"tuner.metrics_points: must be at least 2, got {points}")
    return span, points


def emitted_config(cfg: RunConfig, delta: float, f_mod: float, f_op: float,
                   span: float, points: int) -> RunConfig:
    """Best-parameter configuration sweeping f_op +- ``span`` in ``points`` points
    plus f_op; its simulate run is the one source of the tuned metrics."""
    values = dict(cfg.values)
    values["design.delta"] = repr(delta)
    values["design.f_mod"] = repr(f_mod)
    values["sweep.f_start"] = repr(f_op - span)
    values["sweep.f_stop"] = repr(f_op + span)
    values["sweep.points"] = str(points)
    values["sweep.include"] = repr(f_op)
    return RunConfig(values=values)


def cmd_tune(args) -> int:
    cfg = load_config(args.config)
    problem = _tune_problem(cfg)
    span, points = _metrics_grid(cfg, problem)
    result = tune(problem, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    write_trace_csv(result, os.path.join(args.out, "trace.csv"))

    tuned = emitted_config(cfg, result.delta, result.f_mod, result.f_op, span, points)
    atomic_write_text(os.path.join(args.out, "tuned_config.cfg"), serialize_config(tuned))
    m = _run_simulation(tuned, args.out)
    _log(args.out, f"tune config={args.config} seed={args.seed} evals={result.evaluations}")

    if result.budget_exhausted:
        print(f"budget exhausted after {result.evaluations} evaluations; best point kept")
    else:
        print(f"converged after {result.evaluations} evaluations")
    print(f"delta = {result.delta!r}")
    print(f"f_mod = {result.f_mod!r}")
    print(f"f_op  = {result.f_op!r}")
    print(metrics_table(m))
    print(m.record())
    return 0


# --- report -----------------------------------------------------------------

def _fmt(value, scale=1.0, missing="n/a") -> str:
    if value is None:
        return missing
    return f"{value / scale:.2f}"


def cmd_report(args) -> int:
    records = []
    for path in args.records:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = CirculatorMetrics.from_record(fh.readline().strip())
        except (ValueError, KeyError, TypeError) as exc:
            raise ParseError(f"{path}: not a metrics record "
                             f"({type(exc).__name__}: {exc})") from exc
        records.append((os.path.basename(path), record))
    records.sort(key=lambda r: -r[1].ix_db)

    names = ["reference"] + [name for name, _ in records]
    rows = [
        ("frequency (MHz)", [_fmt(HARDWARE_REFERENCE["f_op_hz"], 1e6)]
         + [_fmt(m.f_op, 1e6) for _, m in records]),
        ("IX (dB)", [_fmt(HARDWARE_REFERENCE["ix_db"])] + [_fmt(m.ix_db) for _, m in records]),
        ("IL (dB)", [_fmt(HARDWARE_REFERENCE["il_db"])] + [_fmt(m.il_db) for _, m in records]),
        ("BW@25dB IX (MHz)", [_fmt(HARDWARE_REFERENCE["bw_hz"], 1e6)]
         + [_fmt(m.bw_hz, 1e6) for _, m in records]),
        ("sideband (dBc)", ["n/a"] + [_fmt(m.sideband_worst_dbc) for _, m in records]),
    ]
    widths = [max(len(r[0]) for r in rows)] + [
        max(len(names[c]), max(len(r[1][c]) for r in rows)) for c in range(len(names))]
    header = " | ".join(["metric".ljust(widths[0])]
                        + [n.ljust(widths[c + 1]) for c, n in enumerate(names)])
    print(header)
    print("-" * len(header))
    for label, cells in rows:
        print(" | ".join([label.ljust(widths[0])]
                         + [cells[c].ljust(widths[c + 1]) for c in range(len(cells))]))
    return 0


# --- entry ------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _open_interval(lo: float, hi: float):
    """argparse type: a float strictly between lo and hi (so never nan)."""
    def number(text: str) -> float:
        value = float(text)
        if not lo < value < hi:
            raise argparse.ArgumentTypeError(f"must lie in ({lo}, {hi}), got {value}")
        return value
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fbarcirc",
                                     description="Mechanically modulated circulator toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="derive resonator element values or fit a resonance")
    p_fit.add_argument("mode", choices=("specs", "lorentzian"))
    p_fit.add_argument("input", nargs="?", help="admittance CSV (lorentzian mode)")
    p_fit.add_argument("--f-s", type=_open_interval(0.0, math.inf), default=2.65e9, dest="f_s")
    p_fit.add_argument("--q", type=_open_interval(0.0, math.inf), default=700.0)
    p_fit.add_argument("--k-sq", type=_open_interval(0.0, 1.0), default=0.09, dest="k_sq")
    p_fit.add_argument("--c0", type=_open_interval(0.0, math.inf), default=1.0e-12)
    p_fit.add_argument("--z0", type=float, default=50.0)
    p_fit.add_argument("--emit-netlist", default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="sweep S-parameters and export files")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default="out")
    p_sim.add_argument("--n-harm", type=_positive_int, default=None, dest="n_harm")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="cross-check the harmonic engine against the transient oracle")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--out", default="out")
    p_ver.add_argument("--n-harm", type=_positive_int, default=None, dest="n_harm")
    p_ver.add_argument("--dump-waveforms", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_tune = sub.add_parser("tune", help="optimize modulation depth/frequency and operating point")
    p_tune.add_argument("--config", required=True)
    p_tune.add_argument("--out", default="out")
    p_tune.add_argument("--seed", type=int, default=0)
    p_tune.set_defaults(func=cmd_tune)

    p_rep = sub.add_parser("report", help="comparison table of metrics records")
    p_rep.add_argument("records", nargs="+")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
