import contextlib
import errno
import gzip
import importlib
import json
import math
import os
import pkgutil
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fbarcirc
import fbarcirc.cli
import fbarcirc.fork
import fbarcirc.transient
import fbarcirc.tuner
from fbarcirc import replace
from fbarcirc.cli import main
from fbarcirc.config import SCHEMA, ConfigError, load_config, parse_config, serialize_config
from fbarcirc.fileio import atomic_open, fingerprint
from fbarcirc.htm import HarmonicBasis, NumericallySingular, sparams
from fbarcirc.metrics import summarize
from fbarcirc.netlist import GROUND, build_circulator, read_netlist, write_netlist
from fbarcirc.touchstone import harmonics_header, read_s3p, write_harmonics_rows, write_s3p
from fbarcirc.transient import time_grid

from conftest import assert_no_worker_left, count_stamps, toy_wye_net

REPO = Path(__file__).resolve().parent.parent
TUNED_FIXTURE = REPO / "configs" / "differential_tuned.cfg"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def counting(monkeypatch, module, name, record):
    """Wrap ``module.name`` so each call appends ``record(args)`` to the returned list."""
    calls = []
    real = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(record(args))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def bending_csv(path, n=128, noise=0.0, constant=False):
    f0, q, r = 11.6e6, 100.0, 50.0
    w0 = 2 * math.pi * f0
    l = q * r / w0
    c = 1.0 / (w0 * w0 * l)
    gamma = f0 / (2 * q)
    freqs = np.linspace(f0 - 5 * gamma, f0 + 5 * gamma, n)
    x = 2 * math.pi * freqs * l - 1.0 / (2 * math.pi * freqs * c)
    y = 1.0 / (r + 1j * x)
    if constant:
        y = np.full_like(y, 0.02 + 0j)
    rows = ["f_hz,re_s,im_s"]
    rng = np.random.default_rng(0)
    for f, v in zip(freqs, y):
        re = float(v.real) + noise * rng.standard_normal()
        rows.append(f"{float(f)!r},{float(re)!r},{float(v.imag)!r}")
    path.write_text("\n".join(rows) + "\n")


class TestFit:
    def test_specs_mode_matches_closed_forms(self, capsys, tmp_path):
        nl = tmp_path / "one_port.net"
        code, out, _ = run(capsys, "fit", "specs", "--f-s", "2.65e9", "--q", "700",
                           "--k-sq", "0.09", "--c0", "1e-12",
                           "--emit-netlist", str(nl))
        assert code == 0
        rec = last_json(out)
        assert rec["c_m_f"] == pytest.approx(8.016621123349801e-14, rel=1e-12)
        assert rec["l_m_h"] == pytest.approx(4.499426446738658e-08, rel=1e-12)
        assert rec["r_m_ohm"] == pytest.approx(1.0702490696191644, rel=1e-12)
        net = read_netlist(nl.read_text())
        assert len(net.elements) == 3

    def test_flag_defaults_are_the_design_keys(self):
        args = fbarcirc.cli.build_parser().parse_args(["fit", "specs"])
        for name in ("f_s", "q", "k_sq", "c0", "z0"):
            assert getattr(args, name) == SCHEMA[f"design.{name}"].default, name

    def test_lorentzian_mode(self, capsys, tmp_path):
        csv = tmp_path / "bending.csv"
        bending_csv(csv)
        nl = tmp_path / "bending.net"
        code, out, _ = run(capsys, "fit", "lorentzian", str(csv),
                           "--emit-netlist", str(nl))
        assert code == 0
        rec = last_json(out)
        assert rec["f0_hz"] == pytest.approx(11.6e6, rel=1e-3)
        assert rec["q"] == pytest.approx(100.0, rel=2e-2)
        branch = read_netlist(nl.read_text()).modulated[0].branch
        assert branch.r_m == pytest.approx(50.0, rel=5e-2)
        assert branch.f_s == pytest.approx(11.6e6, rel=1e-3)

    def test_lorentzian_netlist_round_trips(self, capsys, tmp_path, monkeypatch):
        # the emitted one-port is its own text: reading it back gives an equal object
        csv = tmp_path / "bending.csv"
        bending_csv(csv)
        emitted = counting(monkeypatch, fbarcirc.cli, "write_netlist", lambda args: args[0])
        code, _, _ = run(capsys, "fit", "lorentzian", str(csv),
                         "--emit-netlist", str(tmp_path / "bending.net"))
        assert code == 0 and len(emitted) == 1
        assert read_netlist(write_netlist(emitted[0])) == emitted[0]

    def test_empty_file_exit_2(self, capsys, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("")
        code, _, err = run(capsys, "fit", "lorentzian", str(csv))
        assert code == 2
        assert "ParseError" in err

    def test_degenerate_data_exit_1(self, capsys, tmp_path):
        csv = tmp_path / "flat.csv"
        bending_csv(csv, constant=True)
        code, _, err = run(capsys, "fit", "lorentzian", str(csv))
        assert code == 1
        assert "DegenerateData" in err

    def test_missing_input_exit_2(self, capsys):
        code, _, err = run(capsys, "fit", "lorentzian")
        assert code == 2

    @pytest.mark.parametrize("z0", ["-3", "0", "nan", "inf"])
    def test_z0_out_of_range_exit_2(self, capsys, tmp_path, z0):
        # refused at parse time: nothing is printed and no netlist written
        nl = tmp_path / "x.net"
        code, out, err = run(capsys, "fit", "specs", "--z0", z0, "--emit-netlist", str(nl))
        assert (code, out) == (2, "")
        assert "--z0" in err and "Traceback" not in err
        assert not nl.exists()

    def test_lorentzian_dip_exit_1(self, capsys, tmp_path):
        # |Y| dips at 2.65 GHz: the fit's peak is not positive, so there is no
        # resonance to report and no motional branch to emit
        csv, nl = tmp_path / "dip.csv", tmp_path / "dip.net"
        gamma = 1e6
        rows = ["f_hz,re_s"] + [
            f"{f!r},{0.02 - 0.019 * gamma / math.hypot(f - 2.65e9, gamma)!r}"
            for f in np.linspace(2.6e9, 2.7e9, 41).tolist()]
        csv.write_text("\n".join(rows) + "\n")
        code, out, err = run(capsys, "fit", "lorentzian", str(csv), "--emit-netlist", str(nl))
        assert (code, out) == (1, "")
        assert err.startswith("DegenerateData: ") and "Traceback" not in err
        assert not nl.exists()

    def test_non_utf8_csv_exit_2(self, capsys, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_bytes(b"f_hz,re_s\n1e6,\xff\n")
        code, _, err = run(capsys, "fit", "lorentzian", str(csv))
        assert code == 2
        assert err.startswith(f"ParseError: {csv}: not UTF-8 text")
        assert "Traceback" not in err

    def test_netlist_into_a_missing_directory_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "net.txt"
        code, _, err = run(capsys, "fit", "specs", "--emit-netlist", str(target))
        assert code == 2
        assert err.startswith("FileNotFoundError: ") and str(target) in err
        assert ".tmp_" not in err and "Traceback" not in err
        assert not (tmp_path / "missing").exists()

    def test_netlist_onto_a_directory_exit_2(self, capsys, tmp_path):
        target = tmp_path / "sub"
        target.mkdir()
        code, _, err = run(capsys, "fit", "specs", "--emit-netlist", str(target))
        assert code == 2
        assert err == f"IsADirectoryError: [Errno {errno.EISDIR}] Is a directory: '{target}'\n"
        assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []


SPLITTER_CFG = """design.topology = differential
design.delta = 0.0
sweep.f_start = 2.6e9
sweep.f_stop = 2.76e9
sweep.points = 2
basis.n_harm = 2
"""


class TestSimulate:
    def test_splitter_outputs(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SPLITTER_CFG)
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        rec = last_json(out)
        assert rec["ix_db"] == pytest.approx(rec["il_db"], abs=1e-9)
        freqs, s, z0 = read_s3p(out_dir / "sim.s3p")
        assert freqs.size == 2  # 2-point sweep, one body line each
        assert np.max(np.abs(s - np.transpose(s, (0, 2, 1)))) <= 1e-9
        assert (out_dir / "harmonics.csv").exists()
        assert "config_fingerprint" in (out_dir / "harmonics.csv").read_text().splitlines()[0]

    def test_idempotent_outputs(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SPLITTER_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "simulate", "--config", str(cfg), "--out", str(a))[0] == 0
        assert run(capsys, "simulate", "--config", str(cfg), "--out", str(b))[0] == 0
        for name in ("sim.s3p", "harmonics.csv", "metrics.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_outputs_take_the_umask(self, capsys, tmp_path, umask):
        # the same mode as run.log, which a plain open creates
        umask(0o022)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SPLITTER_CFG)
        out_dir = tmp_path / "out"
        assert run(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir))[0] == 0
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out_dir.iterdir()}
        assert modes == dict.fromkeys(["run.log", "sim.s3p", "harmonics.csv", "metrics.json"],
                                      0o644)

    def test_bad_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("design.bogus = 1\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "ConfigError" in err

    @pytest.mark.parametrize("command", ["simulate", "verify", "tune"])
    def test_non_utf8_config_exit_2(self, capsys, tmp_path, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe")
        code, _, err = run(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith(f"ConfigError: {cfg}: not UTF-8 text")
        assert "Traceback" not in err

    def test_missing_config_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "--config", str(tmp_path / "nope.cfg"),
                           "--out", str(tmp_path / "o"))
        assert code == 2

    def test_shipped_tuned_fixture_circulates(self, capsys, tmp_path):
        code, out, _ = run(capsys, "simulate", "--config", str(TUNED_FIXTURE),
                           "--out", str(tmp_path / "out"))
        assert code == 0
        rec = last_json(out)
        assert rec["ix_db"] >= 40.0
        assert rec["il_db"] <= 3.0


VERIFY_CFG = """design.topology = differential
verify.q = 20
verify.pts_per_cycle = 200
basis.n_harm = 4
"""


class TestVerify:
    def test_gates_pass_on_fast_circuit(self, capsys, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(VERIFY_CFG)
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "verify", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        assert out.count("PASS") == 3
        report = (out_dir / "verify_report.txt").read_text()
        assert report.count("PASS") == 3

    def test_shipped_tuned_report(self, capsys, tmp_path):
        # the oracle at the shipped settings: these bytes must not move
        code, _, _ = run(capsys, "verify", "--config", str(TUNED_FIXTURE),
                         "--out", str(tmp_path / "out"))
        assert code == 0
        assert (tmp_path / "out" / "verify_report.txt").read_text() == (
            "static         error=5.202e-04  gate=1.0e-03  PASS\n"
            "single-branch  error=2.778e-03  gate=1.0e-02  PASS\n"
            "toy-wye        error=1.584e-03  gate=2.0e-02  PASS\n")

    def test_dump_waveforms(self, capsys, tmp_path, monkeypatch):
        # 50 points per cycle keeps the dumps small; the gates fail at that step
        cfg = tmp_path / "v.cfg"
        cfg.write_text(VERIFY_CFG + "verify.pts_per_cycle = 50\nverify.pts_per_cycle_static = 50\n"
                       "verify.mod_periods = 5\nverify.mod_periods_static = 5\n")
        out_dir = tmp_path / "out"
        calls = counting(monkeypatch, fbarcirc.transient, "simulate", lambda args: args[0])
        code, _, _ = run(capsys, "verify", "--config", str(cfg), "--out", str(out_dir),
                         "--dump-waveforms")
        assert code == 1
        cases, f, f_mod = load_config(cfg).verify_cases()
        assert len(calls) == len(cases)  # the dump reuses the cross-check's integration
        assert sorted(p.name for p in out_dir.glob("waveforms_*")) == sorted(
            f"waveforms_{name}.csv.gz" for name, *_ in cases)
        for name, net, _, _, periods, ppc in cases:
            dt, duration = time_grid(net, f, f_mod, ppc, periods)
            path = out_dir / f"waveforms_{name}.csv.gz"
            with gzip.open(path, "rt") as fh:
                header = fh.readline().strip().split(",")
            assert header == ["t_s"] + [f"v_{node}" for node in sorted(net.nodes - {GROUND})]
            assert np.loadtxt(path, delimiter=",", skiprows=1).shape == (
                round(duration / dt) + 1, len(header))

    def test_steady_residual_above_the_bound_exits_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(fbarcirc.transient, "STEADY_RESIDUAL_BOUND", 1e-30)
        cfg = tmp_path / "v.cfg"
        cfg.write_text(VERIFY_CFG)
        code, _, err = run(capsys, "verify", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("Diverged: steady-state residual")

    def test_replica_matches_full_frequency_circuit(self, tmp_path):
        # S of the desk replica at f equals S of the circuit at its own frequency at f*scale
        cfg_path = tmp_path / "v.cfg"
        cfg_path.write_text(VERIFY_CFG)
        cfg = load_config(cfg_path)
        design, scale = cfg.design(), cfg.get_float("verify.scale")
        cases, f, f_mod = cfg.verify_cases()
        replica = next(net for name, net, *_ in cases if name == "toy-wye")
        full = toy_wye_net(replace(design.resonator, q=cfg.get_float("verify.q")),
                           cfg.get_float("verify.delta_wye"), design.f_mod, z0=design.z0)
        n_harm = cfg.get_int("basis.n_harm")
        s_rep = sparams(replica, HarmonicBasis(f_mod, n_harm), [f]).data
        s_full = sparams(full, HarmonicBasis(design.f_mod, n_harm), [f * scale]).data
        assert np.max(np.abs(s_rep - s_full)) <= 1e-9 * np.max(np.abs(s_full))

    def test_zero_gate_fails(self, capsys, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(VERIFY_CFG + "verify.gate_static = 0\nverify.mod_periods = 6\n")
        code, out, _ = run(capsys, "verify", "--config", str(cfg),
                           "--out", str(tmp_path / "out"))
        assert code == 1
        assert "FAIL" in out


class TestRunSizeGuard:
    """An oracle run over the size bounds fails the config check at load,
    before the output directory is made or any case solves."""

    @staticmethod
    def refuse_work(monkeypatch):
        for module in (fbarcirc.cli, fbarcirc.transient):
            monkeypatch.setattr(module, "sparams", refuse)
        monkeypatch.setattr(fbarcirc.transient, "cross_validate", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)

    # a tune's metrics span must lie below f_s, so the tiny f_s comes with a tiny span
    @pytest.mark.parametrize("text", ["design.f_s = 0.5\ntuner.metrics_span = 0.1\n",
                                      "design.f_mod = 0.5\n",
                                      "verify.pts_per_cycle_static = 1e308\n"],
                             ids=["f-s-tiny", "f-mod-tiny", "pts-per-cycle-overflow"])
    def test_oversized_oracle_run_exits_2_before_integrating(self, capsys, tmp_path,
                                                             monkeypatch, text):
        # each asks a transient run for GiBs of samples or a period of 1e12
        # steps; the config check must stop it before anything is solved
        self.refuse_work(monkeypatch)
        cfg = tmp_path / "v.cfg"
        cfg.write_text(VERIFY_CFG + text)
        code, _, err = run(capsys, "verify", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        # the static case is checked first
        assert err.startswith("ConfigError: verify.pts_per_cycle_static, ")
        assert "(RunTooLarge: " in err
        assert not (tmp_path / "o").exists()

    def test_modulation_faster_than_the_step_exits_2_before_any_solve(self, capsys, tmp_path,
                                                                       monkeypatch):
        # a modulation period shorter than one requested step: rounding P up to
        # one step per period would ask for about 4e5 points per cycle
        self.refuse_work(monkeypatch)
        cfg = tmp_path / "v.cfg"
        cfg.write_text(FUZZ_CFG + "design.f_mod = 1e15\n")
        with time_cap(10):
            code, _, err = run(capsys, "verify", "--config", str(cfg),
                               "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith("ConfigError: verify.pts_per_cycle_static, "
                              "verify.mod_periods_static: static case at f_mod = "
                              "1000000000000000.0 Hz (RunTooLarge: f_mod = ") and "100 points per cycle" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, keys", [
        ("verify.mod_periods_static", "verify.pts_per_cycle_static, verify.mod_periods_static"),
        ("verify.mod_periods", "verify.pts_per_cycle, verify.mod_periods")])
    def test_too_many_samples_exits_2_before_any_solve(self, capsys, tmp_path, monkeypatch,
                                                       key, keys):
        # 1e6 modulation periods are about 1e11 samples per node; no case
        # solves, not even those before the oversized one
        self.refuse_work(monkeypatch)
        cfg = tmp_path / "v.cfg"
        cfg.write_text(VERIFY_CFG + f"{key} = 1e6\n")
        with time_cap(10):
            code, _, err = run(capsys, "verify", "--config", str(cfg),
                               "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith(f"ConfigError: {keys}: ") and "exceed MAX_SAMPLES" in err
        assert not (tmp_path / "o").exists()

    def test_samples_over_the_bound_at_the_box_low_end_exit_2_before_any_objective(
            self, capsys, tmp_path, monkeypatch):
        # 600 periods fit MAX_SAMPLES at design.f_mod, where simulate and
        # verify run, but not at 0.6 x f_mod, where tune may emit its config
        monkeypatch.setattr(fbarcirc.tuner, "_objectives", refuse)
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TUNE_CFG + "verify.mod_periods = 600\n")
        load_config(str(cfg))
        code, _, err = run(capsys, "tune", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith("ConfigError: verify.pts_per_cycle, verify.mod_periods: "
                              "single-branch case at f_mod = 13920000.0 Hz (RunTooLarge: ")
        assert "exceed MAX_SAMPLES" in err
        assert not (tmp_path / "o").exists()

TUNE_CFG = """design.topology = differential
design.delta = 0.01
tuner.budget = 10
tuner.starts = 1
tuner.metrics_points = 5
tuner.metrics_span = 2e6
"""


class TestTune:
    def test_budget_run_artifacts(self, capsys, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TUNE_CFG)
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "tune", "--config", str(cfg), "--seed", "1",
                           "--out", str(out_dir))
        assert code == 0  # budget exhaustion is not an error
        assert "budget exhausted" in out
        trace = (out_dir / "trace.csv").read_text().splitlines()
        assert len(trace) == 11
        assert (out_dir / "tuned_config.cfg").exists()
        assert (out_dir / "metrics.json").exists()

    def test_negative_seed_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TUNE_CFG)
        code, _, err = run(capsys, "tune", "--config", str(cfg), "--seed", "-1",
                           "--out", str(tmp_path / "out"))
        assert code == 2
        assert "--seed: must be an integer >= 0, got -1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_seed_repeat_byte_identical_trace(self, capsys, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TUNE_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "tune", "--config", str(cfg), "--seed", "7", "--out", str(a))[0] == 0
        assert run(capsys, "tune", "--config", str(cfg), "--seed", "7", "--out", str(b))[0] == 0
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()

    def test_metrics_grid_solved_once(self, capsys, tmp_path, monkeypatch, cpus):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TUNE_CFG)
        out_dir = tmp_path / "out"
        cpus(1)  # the tuned sweep in this process, where the counters are
        # the search solves its points in batches on the tune's stamped design
        points = [counting(monkeypatch, fbarcirc.htm, "sparams", lambda args: np.size(args[2])),
                  counting(monkeypatch, fbarcirc.cli, "sparams", lambda args: len(args[2]))]
        assert run(capsys, "tune", "--config", str(cfg), "--seed", "1", "--out", str(out_dir))[0] == 0
        grid = load_config(out_dir / "tuned_config.cfg").sweep_frequencies()
        # the initial simplex, then each step's reflection with its likely
        # next point: 10 points, each of them taken
        assert points[0] == [4, 2, 2, 2]
        assert points[1] == [grid.size]

    def test_no_finite_evaluation_exits_1(self, capsys, tmp_path):
        # element values this extreme make every one-point solve non-finite
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TUNE_CFG.replace("tuner.budget = 10", "tuner.budget = 12")
                       + "design.k_sq = 1e-300\nbasis.n_harm = 1\n")
        code, _, err = run(capsys, "tune", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("TuneFailed: ") and "12 evaluations" in err
        assert "Traceback" not in err

    def test_grids_at_the_floor_tune_and_the_emitted_config_verifies(self, capsys, tmp_path):
        # at 50 points per cycle, round(50 f/f_mod) falls under the floor at
        # some f_mod of the box, the tuned one among them; time_grid raises P
        # there, so the config tunes and its oracle runs every case (whose
        # gates fail at that step)
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TUNE_CFG + "verify.pts_per_cycle = 50\nverify.pts_per_cycle_static = 50\n")
        out_dir = tmp_path / "out"
        assert run(capsys, "tune", "--config", str(cfg), "--seed", "0", "--out", str(out_dir))[0] == 0
        code, out, err = run(capsys, "verify", "--config", str(out_dir / "tuned_config.cfg"),
                             "--out", str(tmp_path / "verify"))
        assert (code, err) == (1, "")
        assert out.count("FAIL") == 3

    def test_interrupted_search_leaves_the_out_dir_empty(self, tmp_path, monkeypatch, cpus):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(fbarcirc.tuner, "_objectives", interrupted)
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TUNE_CFG)
        forks = cpus(2)
        with pytest.raises(KeyboardInterrupt):
            main(["tune", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert forks == []  # the search runs in this process
        assert list((tmp_path / "out").iterdir()) == []  # made before the work, left empty

    def test_verify_cases_built_once_for_both_box_ends(self, capsys, tmp_path, monkeypatch):
        # the load checks the design's f_mod, then one call checks both ends of
        # the f_mod box on the same three netlists
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TUNE_CFG)
        builds = counting(monkeypatch, fbarcirc.config, "scale_frequency", lambda args: args[1])
        before_search = []
        search = fbarcirc.tuner.tune

        def counted(*args, **kwargs):
            before_search.append(len(builds))
            return search(*args, **kwargs)

        monkeypatch.setattr(fbarcirc.tuner, "tune", counted)
        assert run(capsys, "tune", "--config", str(cfg), "--out", str(tmp_path / "out"))[0] == 0
        assert before_search == [6]

    def test_emitted_config_checked_at_its_own_f_mod(self, capsys, tmp_path):
        # 1124 periods fit MAX_SAMPLES across the box of f_mod = 60 MHz, not
        # across the wider box of the tuned f_mod under it; tune checks only
        # its own box, and the emitted config loads at its tuned f_mod
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TUNE_CFG + "design.f_mod = 60e6\nverify.mod_periods = 1124\n")
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "tune", "--config", str(cfg), "--seed", "0",
                           "--out", str(out_dir))
        assert (code, err) == (0, "")
        tuned = load_config(str(out_dir / "tuned_config.cfg"))
        low = tuned.tune_problem().f_mod_bounds[0]
        with pytest.raises(ConfigError, match="exceed MAX_SAMPLES"):
            tuned.check_verify_grids(low)

    def test_emitted_config_reproduces_metrics(self, capsys, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TUNE_CFG)
        out_dir = tmp_path / "out"
        assert run(capsys, "tune", "--config", str(cfg), "--seed", "3", "--out", str(out_dir))[0] == 0
        resim = tmp_path / "resim"
        code, out, _ = run(capsys, "simulate", "--config", str(out_dir / "tuned_config.cfg"),
                           "--out", str(resim))
        assert code == 0
        assert (out_dir / "metrics.json").read_bytes() == (resim / "metrics.json").read_bytes()


def sweep_cfg(tmp_path, points: int, extra: str = "") -> Path:
    """The shipped tuned design sweeping ``points`` points (plus its f_op when
    that is off the grid), with ``extra`` config lines."""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(TUNED_FIXTURE.read_text() + f"sweep.points = {points}\n" + extra)
    return cfg


def serial_exports(cfg_path: Path, out_dir: Path) -> None:
    """simulate's three exports of ``cfg_path`` from one sparams call over the
    whole grid, through the public writers: what an unsplit run writes."""
    cfg = load_config(cfg_path)
    design = cfg.design()
    basis = HarmonicBasis(design.f_mod, cfg.get_int("basis.n_harm"))
    grid = sparams(build_circulator(design), basis, cfg.sweep_frequencies())
    tag = f"config_fingerprint = {fingerprint(serialize_config(cfg))}"
    out_dir.mkdir()
    write_s3p(out_dir / "sim.s3p", grid.frequencies, grid.s0, float(grid.z0[0]), comments=(tag,))
    with atomic_open(out_dir / "harmonics.csv") as fh:
        fh.write(harmonics_header(grid.z0, comments=(tag,)))
        write_harmonics_rows(fh, grid)
    m = summarize(grid, cfg.direction(), cfg.get_float("metrics.bw_threshold_db"))
    (out_dir / "metrics.json").write_text(m.record() + "\n")


class TestSweepWorkers:
    """simulate splits its grid over forked workers in balanced contiguous
    slices, cut anywhere (the engine's chunks are 13 points here), and writes
    the bytes, raises the errors and leaves the files of one unsplit call."""

    @pytest.mark.parametrize("n_cpus, points, min_slice, forks", [
        (1, 53, None, 0), (2, 53, None, 1), (3, 53, None, 2),
        (2, 39, None, 1),  # slices of 19 and 20 points
        (3, 27, 1, 2),  # slices of 9, 9 and 9 points
    ])
    def test_simulate_outputs_match_one_call(self, capsys, tmp_path, monkeypatch, cpus,
                                             n_cpus, points, min_slice, forks):
        if min_slice is not None:
            monkeypatch.setattr(fbarcirc.cli, "MIN_SLICE_POINTS", min_slice)
        cfg = sweep_cfg(tmp_path, points)
        assert load_config(cfg).sweep_frequencies().size == points
        serial_exports(cfg, tmp_path / "serial")
        seen = cpus(n_cpus)
        stamps = count_stamps(monkeypatch)
        out_dir = tmp_path / "out"
        with time_cap(60):
            assert run(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir))[0] == 0
        assert len(seen) == forks
        assert len(stamps) == 1  # the workers inherit the parent's
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "harmonics.csv", "metrics.json", "run.log", "sim.s3p"]
        for name in ("sim.s3p", "harmonics.csv", "metrics.json"):
            assert (out_dir / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
        assert_no_worker_left()

    def test_cpu_set_without_an_affinity_call_or_fork(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert fbarcirc.fork.cpus() == [0, 1, 2]
        monkeypatch.delattr(os, "fork")
        assert fbarcirc.fork.cpus() == [0]

    def test_tune_outputs_do_not_depend_on_the_cpus(self, capsys, tmp_path, monkeypatch, cpus):
        # the tuned config sweeps 26 points and its f_op: slices of 9, 9 and 9
        monkeypatch.setattr(fbarcirc.cli, "MIN_SLICE_POINTS", 1)
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TUNE_CFG + "tuner.metrics_points = 26\n")
        names = ("trace.csv", "tuned_config.cfg", "sim.s3p", "harmonics.csv", "metrics.json")
        outputs = []
        # the search forks no worker; the tuned sweep forks one per CPU after the first
        for n_cpus, forks in ((1, 0), (2, 1), (3, 3)):
            seen = cpus(n_cpus)
            out_dir = tmp_path / f"cpus{n_cpus}"
            with time_cap(120):
                assert run(capsys, "tune", "--config", str(cfg), "--seed", "0",
                           "--out", str(out_dir))[0] == 0
            assert len(seen) == forks  # counted since the first run
            outputs.append([(out_dir / name).read_bytes() for name in names])
            assert_no_worker_left()
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.parametrize("n_cpus, points", [
        (2, 39),  # slices 0..18 and 19..38
        (3, 53),  # slices 0..16, 17..34 and 35..52
    ])
    def test_dense_fallback_of_a_chunk_keeps_its_bits(self, capsys, tmp_path, monkeypatch, cpus,
                                                      n_cpus, points):
        # a singular block at point 14 (points 13..25 in one chunk) sends it
        # alone to the dense solve, whose last bits differ from the block
        # solve's; the cuts split that chunk, and every point keeps the bits
        # of one call
        cfg = sweep_cfg(tmp_path, points)
        bad = load_config(cfg).sweep_frequencies()[14]
        port_waves, gesv = fbarcirc.htm._port_waves, fbarcirc.htm._gesv

        def one_singular_chunk(st, basis, freqs, *rest):
            def singular(a, b, **kwargs):
                a = a.copy()
                a[freqs == bad] = 0.0
                return gesv(a, b, **kwargs)

            monkeypatch.setattr(fbarcirc.htm, "_gesv", singular)
            return port_waves(st, basis, freqs, *rest)

        monkeypatch.setattr(fbarcirc.htm, "_port_waves", one_singular_chunk)
        serial_exports(cfg, tmp_path / "serial")
        seen = cpus(n_cpus)
        with time_cap(60):
            assert run(capsys, "simulate", "--config", str(cfg),
                       "--out", str(tmp_path / "out"))[0] == 0
        assert len(seen) == n_cpus - 1
        for name in ("sim.s3p", "harmonics.csv", "metrics.json"):
            assert ((tmp_path / "out" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes())

    def test_mask_shrunk_before_the_forks_keeps_the_bytes(self, capsys, tmp_path, monkeypatch,
                                                          cpus):
        # the mask holds 3 CPUs when the grid is cut and 2 when the workers
        # fork: the slice no worker took is solved here
        cfg = sweep_cfg(tmp_path, 53)
        serial_exports(cfg, tmp_path / "serial")
        seen = cpus(2)
        masks = iter([{0, 1, 2}])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: next(masks, {0, 1}))
        out_dir = tmp_path / "out"
        with time_cap(60):
            assert run(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir))[0] == 0
        assert len(seen) == 1
        for name in ("sim.s3p", "harmonics.csv", "metrics.json"):
            assert (out_dir / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
        assert_no_worker_left()

    @pytest.mark.parametrize("call, failing", [("fork", 1), ("fork", 2), ("pipe", 1), ("pipe", 2)],
                             ids=["first-fork", "second-fork", "first-pipe", "second-pipe"])
    def test_failed_fork_leaves_the_work_here(self, capsys, tmp_path, monkeypatch, cpus,
                                              call, failing):
        # at 3 CPUs, simulate of 53 points forks twice, and tune twice for its
        # 53-point re-simulation, none for its search; fork number ``failing``
        # of each run raises as a full process table makes it, or the second
        # pipe of worker number ``failing`` as a full fd table does
        getaffinity = os.sched_getaffinity
        before = getaffinity(0)
        sim_cfg, tune_cfg = sweep_cfg(tmp_path, 53), tmp_path / "t.cfg"
        tune_cfg.write_text(TUNE_CFG + "tuner.metrics_points = 52\n")
        seen = cpus(1)
        counted, calls = getattr(os, call), []

        def failing_call():
            calls.append(None)
            if call == "fork" and len(calls) == failing:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            if call == "pipe" and len(calls) == 2 * failing:
                raise OSError(errno.EMFILE, "Too many open files")
            return counted()

        monkeypatch.setattr(os, call, failing_call)
        forks = failing - 1
        for argv, names in (
                (["simulate", "--config", str(sim_cfg)],
                 ("sim.s3p", "harmonics.csv", "metrics.json")),
                (["tune", "--config", str(tune_cfg), "--seed", "0"],
                 ("trace.csv", "tuned_config.cfg", "sim.s3p", "harmonics.csv", "metrics.json"))):
            one, three = tmp_path / f"{argv[0]}1", tmp_path / f"{argv[0]}3"
            cpus(1)
            assert run(capsys, *argv, "--out", str(one))[0] == 0
            cpus(3)
            calls.clear()
            seen.clear()
            fds = len(os.listdir("/proc/self/fd"))
            with time_cap(120):
                assert run(capsys, *argv, "--out", str(three))[0] == 0
            assert len(seen) == forks and len(calls) > forks
            assert len(os.listdir("/proc/self/fd")) == fds
            assert_no_worker_left()
            assert getaffinity(0) == (({0, 1, 2} & before) or before)
            for name in names:
                assert (three / name).read_bytes() == (one / name).read_bytes()

    def _fail(self, capsys, tmp_path, cpus, cfg, n_cpus):
        cpus(n_cpus)
        out_dir = tmp_path / f"cpus{n_cpus}"
        with time_cap(60):
            code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir))
        assert_no_worker_left()
        # as an unsplit run: no output before every point solves, in the
        # directory made before any work
        assert list(out_dir.iterdir()) == []
        return code, err

    @pytest.mark.parametrize("checked_first", [True, False], ids=["checked", "in-worker"])
    def test_degenerate_stimulus_in_a_worker_slice_exits_2(self, capsys, tmp_path, monkeypatch,
                                                           cpus, checked_first):
        # 86 x f_mod lies above the sweep, so it ends the last slice; the
        # whole grid's stimulus checks come first, and without them the
        # worker's own sparams raises the same error
        f_mod = load_config(TUNED_FIXTURE).design().f_mod
        cfg = sweep_cfg(tmp_path, 39, f"basis.n_harm = 86\nsweep.include = {86 * f_mod!r}\n")
        if not checked_first:
            monkeypatch.setattr(fbarcirc.cli, "check_grid", lambda basis, freqs: None)
        serial = self._fail(capsys, tmp_path, cpus, cfg, 1)
        assert serial[0] == 2 and serial[1].startswith("DegenerateStimulus: stimulus ")
        assert self._fail(capsys, tmp_path, cpus, cfg, 2) == serial

    def test_singular_point_in_a_worker_slice_exits_1(self, capsys, tmp_path, monkeypatch, cpus):
        # points 20 and up fail, in the second slice (17..34) and the third:
        # the error is the one point 20 raises, as in an unsplit call
        cfg = sweep_cfg(tmp_path, 53)
        bad = load_config(cfg).sweep_frequencies()[20]

        def failing(net, basis, freqs, out=None):
            hit = [f for f in freqs if f >= bad]
            if hit:
                raise NumericallySingular(f"no solution at {hit[0]!r} Hz")
            return sparams(net, basis, freqs, out=out)

        monkeypatch.setattr(fbarcirc.cli, "sparams", failing)
        serial = self._fail(capsys, tmp_path, cpus, cfg, 1)
        assert serial == (1, f"NumericallySingular: no solution at {bad!r} Hz\n")
        assert self._fail(capsys, tmp_path, cpus, cfg, 3) == serial

    def test_killed_worker_exits_1(self, capsys, tmp_path, monkeypatch, cpus):
        parent = os.getpid()

        def killed(net, basis, freqs, out=None):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return sparams(net, basis, freqs, out=out)

        monkeypatch.setattr(fbarcirc.cli, "sparams", killed)
        code, err = self._fail(capsys, tmp_path, cpus, sweep_cfg(tmp_path, 39), 2)
        assert code == 1
        assert err == ("WorkerLost: the worker for stimulus points 19..38 was killed by "
                       "SIGKILL without a result\n")

    def test_interrupt_kills_and_reaps_the_workers(self, capsys, tmp_path, monkeypatch, cpus):
        parent = os.getpid()

        def interrupted(net, basis, freqs, out=None):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # a worker still busy when the parent stops

        monkeypatch.setattr(fbarcirc.cli, "sparams", interrupted)
        cpus(3)
        with time_cap(30), pytest.raises(KeyboardInterrupt):  # the workers are killed
            main(["simulate", "--config", str(sweep_cfg(tmp_path, 53)),
                  "--out", str(tmp_path / "out")])
        assert_no_worker_left()
        assert list((tmp_path / "out").iterdir()) == []  # made before the work, left empty


class TestReport:
    def test_single_record(self, capsys, tmp_path):
        rec = tmp_path / "m.json"
        rec.write_text(json.dumps({"f_op_hz": 2.676e9, "ix_db": 51.0, "il_db": 2.9,
                                   "rl_db": 7.8, "bw_hz": 1.4e6, "sideband_dbc": -240.0}) + "\n")
        code, out, _ = run(capsys, "report", str(rec))
        assert code == 0
        assert "reference" in out
        assert "61.50" in out and "2680.00" in out and "1.80" in out and "4.70" in out
        assert "51.00" in out

    def test_two_records_sorted_by_ix(self, capsys, tmp_path):
        recs = []
        for name, ix in (("low.json", 20.0), ("high.json", 55.0)):
            p = tmp_path / name
            p.write_text(json.dumps({"f_op_hz": 2.68e9, "ix_db": ix, "il_db": 2.0,
                                     "rl_db": 8.0, "bw_hz": None, "sideband_dbc": -200.0}) + "\n")
            recs.append(str(p))
        code, out, _ = run(capsys, "report", *recs)
        assert code == 0
        header = out.splitlines()[0]
        assert header.index("high.json") < header.index("low.json")

    def test_zero_records_usage_error(self, capsys):
        code, _, _ = run(capsys, "report")
        assert code == 2


# Small enough that every workflow finishes in milliseconds.
FUZZ_CFG = """design.delta = 0.01
sweep.points = 5
basis.n_harm = 1
tuner.budget = 12
tuner.metrics_points = 5
tuner.metrics_span = 2e6
verify.q = 20
verify.pts_per_cycle = 100
verify.pts_per_cycle_static = 100
verify.mod_periods = 2
verify.mod_periods_static = 2
"""


def refuse(*args, **kwargs):
    raise AssertionError("work started")


class CaseTimedOut(Exception):
    pass


@contextlib.contextmanager
def time_cap(seconds: int):
    """Raise CaseTimedOut in the block after ``seconds`` (no pytest-timeout here)."""
    def expire(signum, frame):
        raise CaseTimedOut(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# where each workflow's work starts: simulate's sweep, tune's search and
# verify's cross-checks, read where the command calls them
WORK = ((fbarcirc.cli, "sparams"), (fbarcirc.tuner, "tune"),
        (fbarcirc.transient, "cross_validate"))


class TestConfigCheckedAtLoad:
    @pytest.mark.parametrize("command", ["simulate", "tune"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_bw_threshold_exits_2_before_any_work(self, capsys, tmp_path, monkeypatch,
                                                      command, value):
        monkeypatch.setattr(fbarcirc.cli, "sparams", refuse)
        monkeypatch.setattr(fbarcirc.tuner, "tune", refuse)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TUNE_CFG + f"metrics.bw_threshold_db = {value}\n")
        out_dir = tmp_path / "o"
        code, _, err = run(capsys, command, "--config", str(cfg), "--out", str(out_dir))
        assert code == 2
        assert "ConfigError: metrics.bw_threshold_db" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["simulate", "tune", "verify"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "1e300", "1e-300",
                                       "x", "0.5"])
    @pytest.mark.parametrize("key", sorted(SCHEMA))
    def test_no_value_of_any_key_ends_in_a_traceback(self, capsys, tmp_path, monkeypatch,
                                                     key, value, command):
        # No value here is a large finite size: one that passed the load-time
        # bounds would really be allocated.  Those bounds are tested on
        # parse_config alone (tests/test_config.py).
        text = FUZZ_CFG + f"{key} = {value}\n"
        try:
            parse_config(text)
            rejected = False
        except ConfigError:
            rejected = True
        if rejected:
            for module, name in WORK:
                monkeypatch.setattr(module, name, refuse)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        with time_cap(10):
            code, _, err = run(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if rejected:
            assert code == 2 and err.startswith("ConfigError: ")

    @pytest.mark.parametrize("text, named", [
        ("outputs.s3p =\n", "outputs.s3p"),
        ("outputs.metrics = .\n", "outputs.metrics"),
        ("outputs.s3p = metrics.json\n", "outputs.s3p, outputs.harmonics, outputs.metrics: "
                                         "must differ"),
    ], ids=["empty", "dot", "same-as-metrics"])
    def test_output_names_are_distinct_plain_file_names(self, capsys, tmp_path, monkeypatch,
                                                        text, named):
        monkeypatch.setattr(fbarcirc.cli, "sparams", refuse)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(FUZZ_CFG + text)
        out_dir = tmp_path / "o"
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(out_dir))
        assert code == 2
        assert err.startswith(f"ConfigError: {named}")
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["simulate", "tune", "verify"])
    def test_out_naming_a_file_exits_2_before_any_work(self, capsys, tmp_path, monkeypatch,
                                                       command):
        for module, name in WORK:
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(fbarcirc.tuner, "_objectives", refuse)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(FUZZ_CFG)
        out = tmp_path / "o"
        out.write_text("a file\n")
        code, _, err = run(capsys, command, "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert err == f"FileExistsError: [Errno {errno.EEXIST}] File exists: '{out}'\n"
        assert out.read_text() == "a file\n"


# raised only by library calls that no workflow makes
LIBRARY_ONLY = ("TouchstoneError", "FrequencyOffGrid")


class TestEntry:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_os_error_without_a_path_surfaces(self, monkeypatch):
        # an OSError that names a path is a usage error; one that names none
        # is no fault of the command line
        def fail(args):
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(fbarcirc.cli, "cmd_report", fail)
        with pytest.raises(OSError) as info:
            main(["report", "any.json"])
        assert info.value.errno == errno.ENOMEM and info.value.filename is None

    def test_every_exception_has_one_exit_code(self):
        # a public exception class missing from both maps would end a
        # workflow in a traceback instead of exit 1 or 2
        found = [obj for info in pkgutil.iter_modules(fbarcirc.__path__)
                 for name, obj in vars(importlib.import_module(f"fbarcirc.{info.name}")).items()
                 if isinstance(obj, type) and issubclass(obj, BaseException)
                 and not name.startswith("_") and obj.__module__ == f"fbarcirc.{info.name}"]
        for cls in found:
            homes = [cls in fbarcirc.cli.USAGE_ERRORS, cls in fbarcirc.cli.NUMERICAL_ERRORS,
                     cls.__name__ in LIBRARY_ONLY]
            assert sum(homes) == 1, cls.__name__
        # the scan sees every mapped fbarcirc class and every library-only one
        mapped = fbarcirc.cli.USAGE_ERRORS + fbarcirc.cli.NUMERICAL_ERRORS
        assert {c for c in mapped if c.__module__.startswith("fbarcirc.")} <= set(found)
        assert set(LIBRARY_ONLY) <= {cls.__name__ for cls in found}

    def test_console_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "fbarcirc.cli", "fit", "specs"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "r_m" in proc.stdout


def loaded_by(code: str) -> set:
    """The modules a fresh interpreter holds after running ``code``: the
    suite's own has imported every module already."""
    proc = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


class TestStartUp:
    """A command loads only the modules that it runs."""

    def test_import_fbarcirc_loads_no_module_of_it(self):
        assert {m for m in loaded_by("import fbarcirc") if m.startswith("fbarcirc")} == {
            "fbarcirc"}

    @pytest.mark.parametrize("command", ["simulate", "report", "fit"])
    def test_simulate_report_and_fit_leave_the_oracle_and_logging_unloaded(self, tmp_path,
                                                                          command):
        cfg, record = tmp_path / "c.cfg", tmp_path / "metrics.json"
        cfg.write_text(FUZZ_CFG)
        record.write_text(RECORD)
        argv = {"simulate": ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")],
                "report": ["report", str(record)], "fit": ["fit", "specs"]}[command]
        mods = loaded_by(f"from fbarcirc.cli import main\nassert main({argv!r}) == 0")
        assert "fbarcirc.cli" in mods
        assert not {"fbarcirc.transient", "gzip", "logging", "dataclasses"} & mods

    def test_tune_leaves_the_oracle_unloaded(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TUNE_CFG)
        argv = ["tune", "--config", str(cfg), "--out", str(tmp_path / "o")]
        mods = loaded_by(f"from fbarcirc.cli import main\nassert main({argv!r}) == 0")
        assert "fbarcirc.tuner" in mods
        assert not {"fbarcirc.transient", "gzip", "dataclasses"} & mods

    def test_every_public_name_resolves_to_its_defining_module(self):
        for name in fbarcirc.__all__:
            obj = getattr(fbarcirc, name)
            if name == "__version__":
                assert isinstance(obj, str)
                continue
            home = importlib.import_module(obj.__module__)
            assert home.__name__.startswith("fbarcirc.") and getattr(home, name) is obj, name
        assert set(fbarcirc.__all__) <= set(dir(fbarcirc))
        namespace = {}
        exec("from fbarcirc import *", namespace)
        assert {name: namespace[name] for name in fbarcirc.__all__} == {
            name: getattr(fbarcirc, name) for name in fbarcirc.__all__}
        with pytest.raises(AttributeError, match="no attribute 'tuned'"):
            fbarcirc.tuned


SHORT_CSV ="f_hz,re_s\n" + "".join(f"{1e6 + k * 1e3!r},0.0{k}\n" for k in range(7))
UNSORTED_CSV = "f_hz,re_s\n" + "".join(f"{1e6 - k * 1e3!r},0.0{k}\n" for k in range(9))
PEAK_ROWS = [f"{1e6 + k * 1e3!r},{0.01 + 0.1 / (1 + (k - 4.5) ** 2)!r}" for k in range(9)]


def peak_csv(fifth: str) -> str:
    """A nine-sample resonance whose fifth sample is ``fifth``."""
    return "f_hz,re_s\n" + "\n".join(PEAK_ROWS[:4] + [fifth] + PEAK_ROWS[5:]) + "\n"


NAN_Y_CSV, NAN_F_CSV, INF_Y_CSV = (peak_csv(row) for row in ("1004000.0,nan", "nan,0.1",
                                                              "1004000.0,inf"))
EXISTS = f"FileExistsError: [Errno {errno.EEXIST}] File exists: 'INPUT'"
TOO_LONG = f"OSError: [Errno {errno.ENAMETOOLONG}] File name too long: 'INPUT{'a' * 300}'\n"


RECORD = ('{"bw_hz": null, "f_op_hz": 2680000000.0, "il_db": 2.5, "ix_db": 51.0, '
          '"rl_db": 20.0, "sideband_dbc": -40.0}\n')


class TestInvalidSettings:
    @pytest.mark.parametrize("command, extra_args, text, named", [
        ("simulate", [], "basis.n_harm = 0\n", "basis.n_harm"),
        ("tune", [], "basis.n_harm = 0\n", "basis.n_harm"),
        ("tune", [], "tuner.budget = 5\n", "budget"),
        ("tune", [], "tuner.delta_max = 1.5\n", "tuner.delta_max"),
        ("verify", [], "verify.scale = 0\n", "verify.scale"),
        ("verify", [], "verify.scale = -1\n", "verify.scale"),
        ("verify", [], "verify.q = 0\n", "verify.q"),
        ("verify", [], "verify.q = 1e-310\n", "verify.q"),
        ("verify", [], "verify.scale = 1e-300\n", "verify.scale"),
        ("verify", [], "verify.scale = 1e300\n", "verify.scale"),
        ("verify", [], "verify.pts_per_cycle = 0\n", "verify.pts_per_cycle"),
        ("simulate", [], "metrics.in_port = 7\n", "metrics.in_port"),
        ("simulate", [], "metrics.in_port = 0\n", "metrics.in_port"),
        ("tune", [], "metrics.isolated_port = 1\n", "must differ"),
        ("tune", [], "tuner.metrics_points = 1\n", "tuner.metrics_points"),
        ("tune", [], "tuner.metrics_span = 0\n", "tuner.metrics_span"),
        ("tune", [], "tuner.metrics_span = -1e6\n", "tuner.metrics_span"),
        ("tune", [], "tuner.metrics_span = nan\n", "tuner.metrics_span"),
        ("tune", [], "tuner.metrics_span = 1e10\n", "tuner.metrics_span"),
        ("tune", [], "tuner.il_cap_db = nan\n", "il_cap_db"),
        ("simulate", [], "sweep.include = nan\n", "sweep.include"),
        ("simulate", [], "sweep.include = inf\n", "sweep.include"),
        ("simulate", [], "sweep.f_stop = inf\n", "sweep.f_stop"),
        ("simulate", [], "sweep.include = -5e9\n", "sweep.include"),
        ("simulate", [], "sweep.f_start = -1e9\n", "sweep.f_start"),
        ("fit", ["specs", "--q", "-5"], "", "--q"),
        ("fit", ["specs", "--k-sq", "1.5"], "", "--k-sq"),
        ("fit", ["specs", "--f-s", "0"], "", "--f-s"),
        ("fit", ["specs", "--c0", "nan"], "", "--c0"),
        ("fit", ["lorentzian", "INPUT"], SHORT_CSV, "at least 8 samples"),
        ("fit", ["lorentzian", "INPUT"], UNSORTED_CSV, "strictly increasing"),
        ("report", ["INPUT"], "not json\n", "INPUT: not a metrics record"),
        ("report", ["INPUT"], '{"ix_db": 51.0}\n', "INPUT: not a metrics record"),
        ("report", ["INPUT"], RECORD.replace('"ix_db": 51.0', '"ix_db": null'),
         "INPUT: not a metrics record (ValueError: ix_db"),
        ("report", ["INPUT"], RECORD.replace('"ix_db": 51.0', '"ix_db": "x"'),
         "INPUT: not a metrics record (ValueError: ix_db"),
        ("fit", ["specs", "--f-s", "1e300"], "", "--f-s 1e+300"),
        ("fit", ["specs", "--f-s", "1e-300"], "", "--f-s 1e-300"),
        ("simulate", [], "sweep.points = inf\n", "sweep.points"),
        ("simulate", [], "basis.n_harm = 1e400\n", "basis.n_harm"),
        ("tune", [], "tuner.budget = inf\n", "tuner.budget"),
        ("simulate", ["--out", "INPUT/out"], "", "Not a directory: 'INPUT/out'"),
        ("fit", ["specs", "--emit-netlist", "INPUT/x"], "", "Not a directory: 'INPUT/x'"),
        ("simulate", ["--n-harm", "3"], "", "unrecognized arguments: --n-harm 3"),
        ("verify", ["--n-harm", "3"], "", "unrecognized arguments: --n-harm 3"),
        ("simulate", [], "verify.pts_per_cycle = 10\n",
         "ConfigError: verify.pts_per_cycle, verify.mod_periods: single-branch case at "
         "f_mod = 23200000.0 Hz (StepTooLarge: 10 points per cycle are fewer than MIN_PTS_PER_CYCLE = 50)"),
        ("verify", [], "verify.pts_per_cycle_static = 49\n",
         "ConfigError: verify.pts_per_cycle_static, verify.mod_periods_static: static case at "
         "f_mod = 23200000.0 Hz (StepTooLarge: 49 points per cycle are fewer than MIN_PTS_PER_CYCLE = 50)"),
        ("tune", [], "verify.mod_periods = 1e6\n",
         "ConfigError: verify.pts_per_cycle, verify.mod_periods: single-branch case at "
         "f_mod = 23200000.0 Hz (RunTooLarge: "),
        ("simulate", ["--out", "INPUT"], "", EXISTS),
        ("tune", ["--out", "INPUT"], "", EXISTS),
        ("verify", ["--out", "INPUT"], "", EXISTS),
        ("fit", ["lorentzian", "INPUT"], NAN_Y_CSV, "ParseError: sample 5 is not finite"),
        ("fit", ["lorentzian", "INPUT"], NAN_F_CSV, "ParseError: sample 5 is not finite: f = nan"),
        ("fit", ["lorentzian", "INPUT"], INF_Y_CSV, "ParseError: sample 5 is not finite"),
        ("fit", ["specs", "--k-sq", "1"], "",
         "argument --k-sq: design.k_sq: must lie in (0, 1), got 1.0"),
        ("fit", ["specs", "--q", "0"], "", "argument --q: design.q: must lie in (0, inf), got 0.0"),
        *((command, [*flags, "INPUT" + "a" * 300], "", TOO_LONG) for command, flags in (
            ("simulate", ["--out"]), ("verify", ["--out"]), ("tune", ["--out"]),
            ("fit", ["specs", "--emit-netlist"]))),
    ], ids=["simulate-n-harm-key",
            "tune-n-harm-key", "tune-budget", "tune-delta-max", "verify-scale-zero",
            "verify-scale-negative", "verify-q-zero", "verify-q-subnormal",
            "verify-scale-tiny", "verify-scale-huge", "verify-pts-per-cycle-zero",
            "simulate-in-port-out-of-range", "simulate-in-port-zero",
            "tune-repeated-role", "tune-metrics-points", "tune-metrics-span-zero",
            "tune-metrics-span-negative", "tune-metrics-span-nan",
            "tune-metrics-span-too-wide", "tune-il-cap-nan",
            "simulate-include-nan", "simulate-include-inf", "simulate-f-stop-inf",
            "simulate-include-negative", "simulate-f-start-negative",
            "fit-q-negative", "fit-k-sq-above-one", "fit-f-s-zero", "fit-c0-nan",
            "fit-lorentzian-seven-samples", "fit-lorentzian-unsorted",
            "report-not-json", "report-missing-keys", "report-null-value",
            "report-string-value", "fit-f-s-huge", "fit-f-s-tiny",
            "simulate-points-inf", "simulate-n-harm-overflow", "tune-budget-inf",
            "simulate-out-under-a-file", "fit-emit-netlist-under-a-file",
            "simulate-n-harm-flag-gone", "verify-n-harm-flag-gone",
            "simulate-verify-step-too-large", "verify-static-step-too-large",
            "tune-verify-run-too-large", "simulate-out-is-a-file", "tune-out-is-a-file",
            "verify-out-is-a-file", "fit-lorentzian-nan-admittance",
            "fit-lorentzian-nan-frequency", "fit-lorentzian-inf-admittance",
            "fit-k-sq-one", "fit-q-zero", "simulate-out-name-too-long",
            "verify-out-name-too-long", "tune-out-name-too-long",
            "fit-emit-netlist-name-too-long"])
    def test_usage_error_without_traceback(self, tmp_path, command, extra_args, text, named):
        # simulate, verify and tune read SPLITTER_CFG + text as their config;
        # fit and report read text from the file that INPUT stands for
        path = tmp_path / "input"
        argv = [command, *(a.replace("INPUT", str(path)) for a in extra_args)]
        if command in ("simulate", "verify", "tune"):
            path.write_text(SPLITTER_CFG + text)
            argv[1:1] = ["--config", str(path), "--out", str(tmp_path / "o")]
        else:
            path.write_text(text)
        proc = subprocess.run([sys.executable, "-m", "fbarcirc.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert named.replace("INPUT", str(path)) in proc.stderr
        assert not (tmp_path / "o" / "trace.csv").exists()  # rejected before any evaluation
        assert list(tmp_path.glob(".tmp_*")) == []
