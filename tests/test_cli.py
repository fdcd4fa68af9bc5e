import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fbarcirc.cli import main
from fbarcirc.netlist import read_netlist
from fbarcirc.touchstone import read_s3p

REPO = Path(__file__).resolve().parent.parent
TUNED_FIXTURE = REPO / "configs" / "differential_tuned.cfg"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


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
