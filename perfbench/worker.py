"""One workload process: set up, then call the workflow in a closed loop.

Usage: ``worker.py setup|run SPEC.json RESULT.json``.  ``run.py`` starts
this as a fresh interpreter with the BLAS thread count pinned, so each
process pays the imports once and its peak RSS is the workload's alone.
``setup`` stops after set-up; ``run`` also loops over workflow calls,
checks every call's outputs outside the timed region, and in traced mode
alternates plain and traced calls and probes ``htm.assemble``/``solve``.
"""

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402
from calibrate import SpeedProbe, calibrated  # noqa: E402
from spans import OBSERVERS, Tracer, layer_metrics  # noqa: E402

PROBE_REPEATS = 15
# Reference-kernel period during plain calls: about 1% of the call's time.
SPEED_INTERVAL_S = 0.05
# |S| entries related by the 1->2->3 rotation agree to this relative size.
CIRCULANT_RTOL = 1e-9
PASSIVITY_TOL = 1e-9


def setup(spec: dict):
    """Set-up as a user pays it: imports, config load, first netlist build."""
    import numpy  # noqa: F401
    import fbarcirc.cli  # noqa: F401  (imports every layer but touchstone)
    import fbarcirc.touchstone  # noqa: F401
    from fbarcirc.config import load_config
    from fbarcirc.netlist import build_circulator

    build_circulator(load_config(spec["config_path"]).design())
    return time.perf_counter() - _T0


class Workload:
    """Workflow call, output check and probe case for one named workload."""

    def __init__(self, spec: dict):
        import fbarcirc.cli
        import fbarcirc.config
        import fbarcirc.transient

        self.spec = spec
        self.name = spec["workload"]
        self.cli = fbarcirc.cli
        self.config = fbarcirc.config
        self.transient = fbarcirc.transient
        self.steps: list[int] = []
        if self.name == "oracle":
            self._count_steps()

    def _count_steps(self) -> None:
        # The oracle's work count is its integration steps, which only the
        # transient result knows; the tracer's observer reads them from it.
        # The counter keeps the original's name and module, so the tracer
        # treats it as transient.simulate itself.
        original = self.transient.simulate
        count = OBSERVERS["transient.simulate"]

        @functools.wraps(original)
        def simulate(*args, **kwargs):
            res = original(*args, **kwargs)
            self.steps.append(count(args, kwargs, res))
            return res

        self.transient.simulate = simulate

    def toy_wye(self, cfg):
        """Desk-scale two-resonator wye of the verify workflow, public API only."""
        from fbarcirc.bvd import ResonatorSpecs, bvd_from_specs
        from fbarcirc.htm import HarmonicBasis
        from fbarcirc.netlist import (Capacitor, ModulatedSeriesRlc, ModulationSpec,
                                      Netlist, Port)

        design = cfg.design()
        scale = cfg.get_float("verify.scale")
        specs = ResonatorSpecs(f_s=design.resonator.f_s / scale, q=cfg.get_float("verify.q"),
                               k_sq=design.resonator.k_sq, c0=design.resonator.c0 * scale)
        branch = bvd_from_specs(specs).branches[0]
        f_mod = design.f_mod / scale
        delta = cfg.get_float("verify.delta_wye")
        net = Netlist((
            ModulatedSeriesRlc("x1", "p1", "cm", branch, ModulationSpec(delta, f_mod, 0.0)),
            ModulatedSeriesRlc("x2", "p2", "cm", branch,
                               ModulationSpec(delta, f_mod, math.pi / 2.0)),
            Capacitor("c1", "p1", "0", specs.c0),
            Capacitor("c2", "p2", "0", specs.c0),
            Port(1, "p1", design.z0), Port(2, "p2", design.z0),
        ))
        basis = HarmonicBasis(f_mod, cfg.get_int("basis.n_harm"))
        return net, basis, cfg.get_float("verify.f_ratio") * specs.f_s

    def call(self, out_dir: str):
        """The timed workflow call; returns what the check needs."""
        cfg_path = self.spec["config_path"]
        if self.name == "sweep":
            return self.cli.main(["simulate", "--config", cfg_path, "--out", out_dir])
        if self.name == "tune":
            return self.cli.main(["tune", "--config", cfg_path, "--out", out_dir,
                                  "--seed", str(self.spec["tune_seed"])])
        cfg = self.config.load_config(cfg_path)
        net, basis, f = self.toy_wye(cfg)
        return self.transient.cross_validate(
            net, basis, f, ports=(1, 2), pts_per_cycle=cfg.get_int("verify.pts_per_cycle"),
            mod_periods=cfg.get_float("verify.mod_periods"))

    def check(self, out_dir: str, returned) -> dict:
        """Output values of one call; raises CheckFailed on a wrong output."""
        if self.name == "oracle":
            gate = self.config.load_config(self.spec["config_path"]).get_float("verify.gate_wye")
            err = float(returned)
            _require(math.isfinite(err) and err <= gate, f"oracle_err {err!r} above gate {gate}")
            return {"work": self.steps[-1], "oracle_err": err}
        _require(returned == 0, f"workflow exit code {returned}")
        with open(os.path.join(out_dir, "metrics.json"), "rb") as fh:
            metrics_bytes = fh.read()
        record = json.loads(metrics_bytes)
        if self.name == "sweep":
            points, ix = self._check_sweep(os.path.join(out_dir, "harmonics.csv"))
            return {"work": points, "ix_db": ix}
        return self._check_tune(out_dir, metrics_bytes, record)

    def _check_sweep(self, path: str) -> tuple[int, float]:
        """Stimulus point count and isolation in dB at the operating point.

        metrics.json reports the grid's best isolation instead, which moves
        with the seed's grid shift.
        """
        import numpy as np

        with open(path, "r", encoding="utf-8") as fh:
            rows = [line for line in fh if line[:1].isdigit()]
        arr = np.loadtxt(rows, delimiter=",")
        freqs = np.unique(arr[:, 0])
        n_harm = int(arr[:, 1].max())
        _require(freqs.size == self.spec["points"],
                 f"{freqs.size} stimulus points, expected {self.spec['points']}")
        s = np.zeros((freqs.size, 2 * n_harm + 1, 3, 3), dtype=complex)
        fi = np.searchsorted(freqs, arr[:, 0])
        idx = (fi, arr[:, 1].astype(int) + n_harm, arr[:, 2].astype(int) - 1,
               arr[:, 3].astype(int) - 1)
        s[idx] = arr[:, 4] + 1j * arr[:, 5]
        power = np.sum(np.abs(s) ** 2, axis=(1, 2))            # (F, p)
        _require(power.max() <= 1.0 + PASSIVITY_TOL,
                 f"column power {power.max()!r} exceeds 1 + {PASSIVITY_TOL}")
        s0 = s[:, n_harm]
        rotated = s0[:, [1, 2, 0]][:, :, [1, 2, 0]]            # S[(q+1)%3, (p+1)%3]
        scale = np.maximum(np.abs(s0), np.abs(rotated))
        asym = float(np.max(np.abs(s0 - rotated) / np.maximum(scale, 1e-300)))
        _require(asym <= CIRCULANT_RTOL, f"circulant asymmetry {asym:.3e}")
        at = np.flatnonzero(freqs == workloads.F_OP)
        _require(at.size == 1, "operating point missing from the grid")
        ix = -20.0 * math.log10(abs(s0[at[0], 2, 0]))
        il = -20.0 * math.log10(abs(s0[at[0], 1, 0]))
        for name, got, want in (("ix_db", ix, workloads.SWEEP_IX_DB),
                                ("il_db", il, workloads.SWEEP_IL_DB)):
            _require(abs(got - want) <= workloads.SWEEP_DB_TOL,
                     f"{name} at f_op {got!r}, expected {want!r}")
        return int(freqs.size), ix

    def _check_tune(self, out_dir: str, metrics_bytes: bytes, record: dict) -> dict:
        if self.spec["acceptance"]:
            _require(record["ix_db"] >= workloads.TUNE_MIN_IX_DB,
                     f"ix_db {record['ix_db']} below {workloads.TUNE_MIN_IX_DB}")
            _require(record["il_db"] <= workloads.TUNE_MAX_IL_DB,
                     f"il_db {record['il_db']} above {workloads.TUNE_MAX_IL_DB}")
        # Documented contract: simulating the emitted config reproduces
        # metrics.json byte for byte.
        again = os.path.join(out_dir, "resimulate")
        code = self.cli.main(["simulate", "--config", os.path.join(out_dir, "tuned_config.cfg"),
                              "--out", again])
        _require(code == 0, f"re-simulate exit code {code}")
        with open(os.path.join(again, "metrics.json"), "rb") as fh:
            _require(fh.read() == metrics_bytes, "re-simulated metrics.json differs")
        with open(os.path.join(out_dir, "trace.csv"), "r", encoding="utf-8") as fh:
            evaluations = sum(1 for _ in fh) - 1
        return {"work": evaluations, "ix_db": record["ix_db"]}

    def probe_case(self):
        from fbarcirc.htm import HarmonicBasis
        from fbarcirc.netlist import build_circulator

        cfg = self.config.load_config(self.spec["config_path"])
        if self.name == "oracle":
            return self.toy_wye(cfg)
        design = cfg.design()
        net = build_circulator(design)
        basis = HarmonicBasis(cfg.basis_f_mod(), cfg.get_int("basis.n_harm"))
        # sweep: the operating point; tune: the centre of the f_op search range.
        f = workloads.F_OP if self.name == "sweep" else design.resonator.f_s
        return net, basis, f


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def probe(wl: Workload) -> dict:
    """Median cost of the public assemble and solve on the workload's netlist."""
    from fbarcirc.htm import assemble, solve

    net, basis, f = wl.probe_case()
    t_asm, t_sol = [], []
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        system = assemble(net, basis, f)
        t_asm.append(time.perf_counter() - t)
        t = time.perf_counter()
        solve(system)
        t_sol.append(time.perf_counter() - t)
    return {"htm.dim": system.dimension,
            "htm.assemble_ms": 1e3 * statistics.median(t_asm),
            "htm.solve_ms": 1e3 * statistics.median(t_sol)}


def environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {k: {f: v.get(f) for f in ("name", "version", "openblas configuration")}
            for k, v in deps.items() if k in ("blas", "lapack")}
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def run(spec: dict, speed: SpeedProbe) -> dict:
    wl = Workload(spec)
    tracer = Tracer()
    traced_mode = spec["trace"] == 1
    calls = []
    loop_start = time.perf_counter()
    while True:
        traced = traced_mode and len(calls) % 2 == 1
        out_dir = os.path.join(spec["work_dir"], f"call{len(calls)}")
        os.makedirs(out_dir)
        lo = len(tracer.spans)
        if traced:
            tracer.install()
        else:
            speed.start(SPEED_INTERVAL_S)
        c0 = time.process_time()
        t0 = time.perf_counter()
        error = None
        try:
            if traced:
                returned = tracer.span("cli", "workflow", wl.call, out_dir)
            else:
                returned = wl.call(out_dir)
        except Exception as exc:  # a crashing call is a failed call, not a dead run
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        record = {"traced": traced}
        if traced:
            tracer.uninstall()
        else:
            busy, kernel_s = speed.stop()
            wall -= busy
            cpu -= busy
            record["cal_wall_s"] = calibrated(wall, kernel_s)
            record["kernel_s"] = kernel_s
        record.update(wall_s=wall, cpu_s=cpu)
        if not calls:
            # Later calls only add heap fragmentation, and their number
            # varies with the host's speed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if error is None:
            try:
                record.update(wl.check(out_dir, returned))
            except Exception as exc:  # any unreadable or wrong output fails the call
                error = f"{type(exc).__name__}: {exc}"
        record["error"] = error
        if traced:
            record["layers"] = layer_metrics(tracer.spans, lo, len(tracer.spans))
        del tracer.spans[lo:]
        calls.append(record)
        shutil.rmtree(out_dir, ignore_errors=True)
        if len({c["traced"] for c in calls}) < (2 if traced_mode else 1):
            continue
        if spec["quick"]:
            break
        # Start another call only if at least half of one still fits, so a
        # run lasts `seconds` give or take half a call.
        mean_call = statistics.fmean(c["wall_s"] for c in calls)
        if time.perf_counter() - loop_start + 0.5 * mean_call >= spec["seconds"]:
            break
    result = {"calls": calls, "env": environment(), "peak_rss_mb": peak_rss_mb}
    if traced_mode:
        result["probe"] = probe(wl)
    return result


def main(argv) -> int:
    mode, spec_path, result_path = argv
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    setup_s = setup(spec)
    speed = SpeedProbe()
    _, kernel_s = speed.stop()  # no region is running: times the kernel right after set-up
    result = {} if mode == "setup" else run(spec, speed)
    result.update(setup_s=setup_s, cal_setup_s=calibrated(setup_s, kernel_s))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
