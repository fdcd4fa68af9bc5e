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

import numpy as np

from .bvd import (BranchLabel, DegenerateData, FitDiverged, LorentzianFit,
                  MotionalBranch, ParseError, ResonatorSpecs, bvd_from_specs,
                  fit_lorentzian, parallel_resonance, read_admittance_csv)
from .config import ConfigError, RunConfig, load_config, serialize_config
from .fileio import atomic_write_text, fingerprint
from .htm import (DegenerateStimulus, HarmonicBasis, NumericallySingular,
                  SingularStructure, sparams)
from .metrics import CirculatorMetrics, metrics_table, summarize
from .netlist import (ModulationSpec, Netlist, NetlistError, build_circulator,
                      build_one_port, build_toy_wye, write_netlist)
from .transient import (Diverged, IllConditionedBasis, StepTooLarge, cross_validate,
                        simulate as transient_simulate, write_waveforms)
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
        model = bvd_from_specs(specs)
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
        branch = MotionalBranch(r_m=r_m, l_m=l_m, c_m=c_m, label=BranchLabel.BENDING_MODE)
        net = build_one_port(branch, args.c0, args.z0)
        atomic_write_text(args.emit_netlist, write_netlist(net))
        print(f"netlist written to {args.emit_netlist}")
    print(json.dumps({"f0_hz": fit.f0, "q": fit.q, "peak_s": fit.peak,
                      "baseline_s": fit.baseline, "residual_s": fit.residual},
                     sort_keys=True))
    return 0


# --- simulate ---------------------------------------------------------------

def _run_simulation(cfg: RunConfig, out_dir: str, n_harm: int | None = None) -> CirculatorMetrics:
    design = cfg.design()
    net = build_circulator(design)
    order = n_harm if n_harm is not None else cfg.get_int("basis.n_harm")
    basis = HarmonicBasis(cfg.basis_f_mod(), order)
    freqs = cfg.sweep_frequencies()
    grid = sparams(net, basis, freqs)
    m = summarize(grid, cfg.direction(), cfg.get_float("metrics.bw_threshold_db"))

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
    """Desk-scale oracle circuits per the frequency-scaled-replica recipe."""
    design = cfg.design()
    scale = cfg.get_float("verify.scale")
    specs = ResonatorSpecs(f_s=design.resonator.f_s / scale,
                           q=cfg.get_float("verify.q"),
                           k_sq=design.resonator.k_sq,
                           c0=design.resonator.c0 * scale)
    model = bvd_from_specs(specs)
    branch = model.branches[0]
    f_mod = design.f_mod / scale
    f = cfg.get_float("verify.f_ratio") * specs.f_s
    z0 = design.z0

    # Zero depth rather than None keeps the static netlist's f_mod equal to the basis's.
    def one_port(delta: float) -> Netlist:
        return build_one_port(branch, specs.c0, z0, ModulationSpec(delta, f_mod, 0.0))

    def toy_wye(delta: float) -> Netlist:
        return build_toy_wye(branch, specs.c0, z0, (ModulationSpec(delta, f_mod, 0.0),
                                                    ModulationSpec(delta, f_mod, math.pi / 2.0)))

    ppc = cfg.get_int("verify.pts_per_cycle")
    ppc_static = cfg.get_int("verify.pts_per_cycle_static")
    return [
        ("static", one_port(0.0), (1, 1), cfg.get_float("verify.gate_static"),
         cfg.get_float("verify.mod_periods_static"), ppc_static),
        ("single-branch", one_port(cfg.get_float("verify.delta_single")), (1, 1),
         cfg.get_float("verify.gate_single"), cfg.get_float("verify.mod_periods"), ppc),
        ("toy-wye", toy_wye(cfg.get_float("verify.delta_wye")), (1, 2),
         cfg.get_float("verify.gate_wye"), cfg.get_float("verify.mod_periods"), ppc),
    ], f, f_mod


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    cases, f, f_mod = _verify_cases(cfg)
    order = args.n_harm if args.n_harm is not None else cfg.get_int("basis.n_harm")
    basis = HarmonicBasis(f_mod, order)
    lines = []
    failed = False
    for name, net, ports, gate, periods, ppc in cases:
        err = cross_validate(net, basis, f, ports=ports,
                             pts_per_cycle=ppc, mod_periods=periods)
        ok = err <= gate
        failed = failed or not ok
        line = f"{name:<14} error={err:.3e}  gate={gate:.1e}  {'PASS' if ok else 'FAIL'}"
        lines.append(line)
        print(line)
        if args.dump_waveforms:
            dt = 1.0 / (ppc * f)
            from .transient import _ring_up_time
            duration = _ring_up_time(net) + periods / f_mod
            res = transient_simulate(net, (ports[0], f, 1.0), duration, dt)
            os.makedirs(args.out, exist_ok=True)
            write_waveforms(res, os.path.join(args.out, f"waveforms_{name}.csv.gz"))
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "verify_report.txt"), "\n".join(lines) + "\n")
    _log(args.out, f"verify config={args.config} failed={failed}")
    return 1 if failed else 0


# --- tune -------------------------------------------------------------------

def _tune_problem(cfg: RunConfig) -> TuneProblem:
    design = cfg.design()
    window = cfg.get_float("tuner.f_mod_window")
    f_op_window = cfg.get_float("tuner.f_op_window")
    f_s = design.resonator.f_s
    return TuneProblem(
        design=design,
        delta_bounds=(0.0, cfg.get_float("tuner.delta_max")),
        f_mod_bounds=(design.f_mod * (1.0 - window), design.f_mod * (1.0 + window)),
        f_op_bounds=(f_s * (1.0 - f_op_window), f_s * (1.0 + f_op_window)),
        il_cap_db=cfg.get_float("tuner.il_cap_db"),
        budget=cfg.get_int("tuner.budget"),
        n_harm=cfg.get_int("basis.n_harm"),
        direction=cfg.direction(),
        starts=cfg.get_int("tuner.starts"),
        metrics_span=cfg.get_float("tuner.metrics_span"),
        metrics_points=cfg.get_int("tuner.metrics_points"))


def emitted_config(cfg: RunConfig, delta: float, f_mod: float, f_op: float,
                   span: float, points: int) -> RunConfig:
    """Best-parameter configuration whose simulate run reproduces the
    tuner's achieved metrics bit for bit."""
    values = dict(cfg.values)
    values["design.delta"] = repr(delta)
    values["design.f_mod"] = repr(f_mod)
    values["basis.f_mod"] = None
    values["sweep.f_start"] = repr(f_op - span)
    values["sweep.f_stop"] = repr(f_op + span)
    values["sweep.points"] = str(points)
    values["sweep.include"] = repr(f_op)
    out = RunConfig(values=values)
    out.text = serialize_config(out)
    return out


def cmd_tune(args) -> int:
    cfg = load_config(args.config)
    problem = _tune_problem(cfg)
    result = tune(problem, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    write_trace_csv(result, os.path.join(args.out, "trace.csv"))

    tuned = emitted_config(cfg, result.delta, result.f_mod, result.f_op,
                           problem.metrics_span, problem.metrics_points)
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
        with open(path, "r", encoding="utf-8") as fh:
            line = fh.readline().strip()
        records.append((os.path.basename(path), CirculatorMetrics.from_record(line)))
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fbarcirc",
                                     description="Mechanically modulated circulator toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="derive resonator element values or fit a resonance")
    p_fit.add_argument("mode", choices=("specs", "lorentzian"))
    p_fit.add_argument("input", nargs="?", help="admittance CSV (lorentzian mode)")
    p_fit.add_argument("--f-s", type=float, default=2.65e9, dest="f_s")
    p_fit.add_argument("--q", type=float, default=700.0)
    p_fit.add_argument("--k-sq", type=float, default=0.09, dest="k_sq")
    p_fit.add_argument("--c0", type=float, default=1.0e-12)
    p_fit.add_argument("--z0", type=float, default=50.0)
    p_fit.add_argument("--emit-netlist", default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="sweep S-parameters and export files")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default="out")
    p_sim.add_argument("--n-harm", type=int, default=None, dest="n_harm")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="cross-check the harmonic engine against the transient oracle")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--out", default="out")
    p_ver.add_argument("--n-harm", type=int, default=None, dest="n_harm")
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
