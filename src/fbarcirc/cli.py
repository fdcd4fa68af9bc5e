"""Command-line front end.

Five workflows: ``fit`` (resonator parameter extraction), ``simulate``
(S-parameter sweep with exports), ``verify`` (harmonic engine vs transient
oracle), ``tune`` (isolation optimization), and ``report`` (comparison
table against the measured hardware reference).

Exit codes: 0 success, 1 numerical, gate or worker failure, 2
usage/config/parse error.  Output files carry no timestamps (a sidecar run.log does), so
re-running a command with identical inputs reproduces identical bytes on one
numpy/BLAS build and CPU kernel.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import math
import os
import shutil
import sys
import tempfile

# tuner loads with this module, though only tune runs it, as perfbench's
# tracer (perfbench/spans.py) looks up every layer it wraps among the loaded
# modules.  It costs little: config has loaded what it imports, and it
# imports logging only to log a failed objective.
from . import fork, tuner
from .bvd import (DegenerateData, FitDiverged, LorentzianFit, MotionalBranch,
                  ParseError, ResonatorSpecs, bvd_from_specs, fit_lorentzian,
                  parallel_resonance, read_admittance_csv)
from .config import SCHEMA, ConfigError, RunConfig, _parse, load_config, serialize_config
from .fileio import atomic_open, atomic_write_text, fingerprint
from .htm import (DegenerateStimulus, HarmonicBasis, NumericallySingular, SParamGrid,
                  Stamped, check_grid, sparams)
from .metrics import CirculatorMetrics, metrics_table, summarize
from .netlist import NetlistError, build_circulator, build_one_port, write_netlist
from .plan import Diverged, RunTooLarge, StepTooLarge, TuneFailed
from .touchstone import harmonics_header, write_harmonics_rows, write_s3p

# Measured hardware reference (differential FBAR circulator board) used by
# the report command as the comparison column.
HARDWARE_REFERENCE = {
    "f_op_hz": 2.68e9,
    "ix_db": 61.5,
    "il_db": 1.8,
    "bw_hz": 4.7e6,
}

# Stimulus points a sweep worker's slice must hold.  A worker costs the
# parent about 4.5 ms on 2 vCPUs: 1.1 ms in fork (a 38 MB process) and
# 3.4 ms of copy-on-write faults on its own slice, against about 0.75 ms to
# solve a point and format its harmonics.csv lines.  Measured splits: 26
# points as 13 + 13 ran 2% slower than one process, 52 as 26 + 26 17% faster.
MIN_SLICE_POINTS = 16


# Exit 2, as does an OSError that names a path (missing, unwritable, too
# long); one that names none, such as a failed memory map, surfaces as it is.
USAGE_ERRORS = (ConfigError, ParseError, NetlistError, DegenerateStimulus, RunTooLarge)
NUMERICAL_ERRORS = (FitDiverged, DegenerateData, NumericallySingular, Diverged,
                    StepTooLarge, TuneFailed, fork.WorkerLost)


def _log(out_dir: str, message: str) -> None:
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

def _run_simulation(cfg: RunConfig, out_dir: str) -> CirculatorMetrics:
    """Sweep ``cfg``'s design and write simulate's three exports to ``out_dir``.

    The grid is cut into balanced contiguous slices, at most one per CPU and
    none under MIN_SLICE_POINTS, solved into one S block that all processes
    share, with their harmonics.csv lines in unlinked temp files.  A forked
    worker solves each slice after the first, and this process every slice
    without a worker.  The files are those of one sparams call over the grid,
    and a failure raises what it raises: the stimulus checks first, then the
    first failing slice's error.  No worker or temp file outlives this."""
    design = cfg.design()
    net = build_circulator(design)
    basis = HarmonicBasis(design.f_mod, cfg.get_int("basis.n_harm"))
    freqs = cfg.sweep_frequencies()
    direction = cfg.direction()
    check_grid(basis, freqs)
    stamped = Stamped(net)  # the workers inherit it
    n = freqs.size
    count = max(1, min(len(fork.cpus()), n // MIN_SLICE_POINTS))
    parts = [slice(k * n // count, (k + 1) * n // count) for k in range(count)]
    shape = (n, basis.size, len(stamped.ports), len(stamped.ports))
    data = fork.shared(shape, complex)
    grid = SParamGrid(frequencies=freqs, n_harm=basis.n_harm, z0=stamped.z0, data=data)
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(tempfile.TemporaryFile()) for _ in parts]

        def solve(k: int) -> None:
            """Slice k into its rows of ``data`` and ``files[k]``."""
            write_harmonics_rows(files[k], sparams(stamped, basis, freqs[parts[k]],
                                                   out=data[parts[k]]))
            files[k].flush()

        with fork.workers(solve, count - 1) as pool:
            for k, worker in enumerate(pool, 1):
                worker.submit(k, f"stimulus points {parts[k].start}..{parts[k].stop - 1}")
            for k in range(count):  # in grid order, so the first failing slice raises
                pool[k - 1].reply() if 0 < k <= len(pool) else solve(k)
        m = summarize(grid, direction, cfg.get_float("metrics.bw_threshold_db"))
        tag = f"config_fingerprint = {fingerprint(serialize_config(cfg))}"
        write_s3p(os.path.join(out_dir, cfg.get_str("outputs.s3p")),
                  grid.frequencies, grid.s0, float(grid.z0[0]), comments=(tag,))
        with atomic_open(os.path.join(out_dir, cfg.get_str("outputs.harmonics"))) as fh:
            fh.write(harmonics_header(grid.z0, comments=(tag,)))
            for rows in files:
                rows.seek(0)
                shutil.copyfileobj(rows, fh)  # in 64 KiB blocks
    atomic_write_text(os.path.join(out_dir, cfg.get_str("outputs.metrics")),
                      m.record() + "\n")
    return m


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    os.makedirs(args.out, exist_ok=True)  # after the config's checks, before any work
    m = _run_simulation(cfg, args.out)
    _log(args.out, f"simulate config={args.config} fingerprint={fingerprint(serialize_config(cfg))}")
    print(metrics_table(m))
    print(m.record())
    return 0


# --- verify -----------------------------------------------------------------

def cmd_verify(args) -> int:
    from .transient import cross_validate  # only verify loads the oracle

    cfg = load_config(args.config)
    os.makedirs(args.out, exist_ok=True)  # after the config's checks, before any work
    cases, f, f_mod = cfg.verify_cases()
    basis = HarmonicBasis(f_mod, cfg.get_int("basis.n_harm"))
    lines = []
    failed = False
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

def emitted_config(cfg: RunConfig, delta: float, f_mod: float, f_op: float) -> RunConfig:
    """Best-parameter configuration sweeping f_op +- tuner.metrics_span in
    tuner.metrics_points points plus f_op; its simulate run is the one source
    of the tuned metrics.  Building it checks it like any loaded config."""
    span = cfg.get_float("tuner.metrics_span")
    values = dict(cfg.values)
    values["design.delta"] = repr(delta)
    values["design.f_mod"] = repr(f_mod)
    values["sweep.f_start"] = repr(f_op - span)
    values["sweep.f_stop"] = repr(f_op + span)
    values["sweep.points"] = str(cfg.get_int("tuner.metrics_points"))
    values["sweep.include"] = repr(f_op)
    return RunConfig(values=values)


def cmd_tune(args) -> int:
    cfg = load_config(args.config)
    problem = cfg.tune_problem()
    # the ends bound the f_mods tune may emit: P falls as f_mod rises, and
    # ring_up*P*f_mod moves by < ring_up*f_mod
    cfg.check_verify_grids(*problem.f_mod_bounds)
    os.makedirs(args.out, exist_ok=True)  # after the config's checks, before any work
    result = tuner.tune(problem, seed=args.seed)
    tuner.write_trace_csv(result, os.path.join(args.out, "trace.csv"))

    tuned = emitted_config(cfg, result.delta, result.f_mod, result.f_op)
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

def _int_from(lo: int):
    """argparse type: an integer no less than lo."""
    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {value}")
        return value
    return integer


def _key_flag(key: str) -> dict:
    """argparse keywords of a flag with config key ``key``'s default, parser and range."""
    def value(text: str):
        try:
            return _parse(key, SCHEMA[key], text)
        except ConfigError as exc:  # a usage error, exit 2
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return {"type": value, "default": SCHEMA[key].default}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fbarcirc",
                                     description="Mechanically modulated circulator toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="derive resonator element values or fit a resonance")
    p_fit.add_argument("mode", choices=("specs", "lorentzian"))
    p_fit.add_argument("input", nargs="?", help="admittance CSV (lorentzian mode)")
    for name in ("f_s", "q", "k_sq", "c0", "z0"):
        p_fit.add_argument("--" + name.replace("_", "-"), dest=name, **_key_flag(f"design.{name}"))
    p_fit.add_argument("--emit-netlist", default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="sweep S-parameters and export files")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default="out")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="cross-check the harmonic engine against the transient oracle")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--out", default="out")
    p_ver.add_argument("--dump-waveforms", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_tune = sub.add_parser("tune", help="optimize modulation depth/frequency and operating point")
    p_tune.add_argument("--config", required=True)
    p_tune.add_argument("--out", default="out")
    p_tune.add_argument("--seed", type=_int_from(0), default=0)
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
    except (*USAGE_ERRORS, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is None:
            raise
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
