import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fbarcirc.cli
import fbarcirc.transient
import fbarcirc.tuner
from fbarcirc.cli import _verify_cases, main
from fbarcirc.config import load_config
from fbarcirc.htm import HarmonicBasis, sparams
from fbarcirc.netlist import read_netlist, write_netlist
from fbarcirc.touchstone import read_s3p
from fbarcirc.transient import read_waveforms, time_grid

from conftest import toy_wye_net

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

    def test_bad_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("design.bogus = 1\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "ConfigError" in err

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
        cases, f, f_mod = _verify_cases(load_config(cfg))
        assert len(calls) == len(cases)  # the dump reuses the cross-check's integration
        assert sorted(p.name for p in out_dir.glob("waveforms_*")) == sorted(
            f"waveforms_{name}.csv.gz" for name, *_ in cases)
        for name, net, _, _, periods, ppc in cases:
            dt, duration = time_grid(net, f, f_mod, ppc, periods)
            res = read_waveforms(out_dir / f"waveforms_{name}.csv.gz")
            assert sorted(res.samples) == sorted(net.nodes - {net.ground})
            for v in res.samples.values():
                assert v.size == round(duration / dt) + 1

    def test_replica_matches_full_frequency_circuit(self, tmp_path):
        # S of the desk replica at f equals S of the circuit at its own frequency at f*scale
        cfg_path = tmp_path / "v.cfg"
        cfg_path.write_text(VERIFY_CFG)
        cfg = load_config(cfg_path)
        design, scale = cfg.design(), cfg.get_float("verify.scale")
        cases, f, f_mod = _verify_cases(cfg)
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

    def test_seed_repeat_byte_identical_trace(self, capsys, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TUNE_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "tune", "--config", str(cfg), "--seed", "7", "--out", str(a))[0] == 0
        assert run(capsys, "tune", "--config", str(cfg), "--seed", "7", "--out", str(b))[0] == 0
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()

    def test_metrics_grid_solved_once(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TUNE_CFG)
        out_dir = tmp_path / "out"
        points = [counting(monkeypatch, module, "sparams", lambda args: len(args[2]))
                  for module in (fbarcirc.tuner, fbarcirc.cli)]
        assert run(capsys, "tune", "--config", str(cfg), "--seed", "1", "--out", str(out_dir))[0] == 0
        grid = load_config(out_dir / "tuned_config.cfg").sweep_frequencies()
        assert sum(points[0]) == 10  # one point per objective evaluation
        assert points[1] == [grid.size]

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


class TestEntry:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_console_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "fbarcirc.cli", "fit", "specs"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "r_m" in proc.stdout


SHORT_CSV = "f_hz,re_s\n" + "".join(f"{1e6 + k * 1e3!r},0.0{k}\n" for k in range(7))
UNSORTED_CSV = "f_hz,re_s\n" + "".join(f"{1e6 - k * 1e3!r},0.0{k}\n" for k in range(9))


RECORD = ('{"bw_hz": null, "f_op_hz": 2680000000.0, "il_db": 2.5, "ix_db": 51.0, '
          '"rl_db": 20.0, "sideband_dbc": -40.0}\n')


class TestInvalidSettings:
    @pytest.mark.parametrize("command, extra_args, text, named", [
        ("simulate", ["--n-harm", "0"], "", "--n-harm"),
        ("verify", ["--n-harm", "-1"], "", "--n-harm"),
        ("simulate", [], "basis.n_harm = 0\n", "basis.n_harm"),
        ("tune", [], "basis.n_harm = 0\n", "basis.n_harm"),
        ("tune", [], "tuner.budget = 5\n", "budget"),
        ("tune", [], "tuner.delta_max = 1.5\n", "delta bounds"),
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
    ], ids=["simulate-n-harm-flag", "verify-n-harm-flag", "simulate-n-harm-key",
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
            "simulate-points-inf", "simulate-n-harm-overflow", "tune-budget-inf"])
    def test_usage_error_without_traceback(self, tmp_path, command, extra_args, text, named):
        # simulate, verify and tune read SPLITTER_CFG + text as their config;
        # fit and report read text from the file that INPUT stands for
        path = tmp_path / "input"
        if command in ("simulate", "verify", "tune"):
            path.write_text(SPLITTER_CFG + text)
            argv = [command, "--config", str(path), "--out", str(tmp_path / "o"), *extra_args]
        else:
            path.write_text(text)
            argv = [command, *(str(path) if a == "INPUT" else a for a in extra_args)]
        proc = subprocess.run([sys.executable, "-m", "fbarcirc.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert named.replace("INPUT", str(path)) in proc.stderr
        assert not (tmp_path / "o" / "trace.csv").exists()  # rejected before any evaluation
