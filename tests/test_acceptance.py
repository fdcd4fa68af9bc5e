"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The tuned operating point (criterion 3) is computed
once and shared by the criteria that probe it.
"""

import math
import time

import numpy as np
import pytest

from fbarcirc import replace
from fbarcirc.bvd import ResonatorSpecs, bvd_from_specs, fit_lorentzian, specs_from_bvd
from fbarcirc.config import parse_config
from fbarcirc.htm import HarmonicBasis, convergence_check, sparams
from fbarcirc.metrics import sideband_scan, summarize
from fbarcirc.netlist import (CirculatorDesign, PhaseSequence, Topology,
                              build_circulator, read_netlist, write_netlist)
from fbarcirc.touchstone import read_s3p, write_s3p
from fbarcirc.transient import cross_validate
from fbarcirc.tuner import tune

from conftest import DESK_SPECS, GHZ_SPECS, one_port_net, toy_wye_net

F_MOD = 23.2e6
F_MOD_DESK = 23.2e3


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def tuned():
    """Criterion 3's tuning run and its metrics (251 points across +-25 MHz,
    plus f_op), shared with criteria 4-6."""
    problem = parse_config("design.delta = 0.01\ntuner.budget = 300\nbasis.n_harm = 5\n"
                           ).tune_problem()
    t0 = time.perf_counter()
    result = tune(problem, seed=0)
    net = build_circulator(replace(problem.design, delta=result.delta, f_mod=result.f_mod))
    freqs = np.union1d(np.linspace(result.f_op - 25e6, result.f_op + 25e6, 251), [result.f_op])
    m = summarize(sparams(net, HarmonicBasis(result.f_mod, 5), freqs), problem.direction)
    elapsed = time.perf_counter() - t0
    return problem, result, m, elapsed


def test_criterion_1_reciprocity_baseline():
    t0 = time.perf_counter()
    design = CirculatorDesign(Topology.DIFFERENTIAL, GHZ_SPECS, delta=0.0, f_mod=F_MOD)
    net = build_circulator(design)
    freqs = np.linspace(2.5e9, 2.9e9, 201)
    grid = sparams(net, HarmonicBasis(F_MOD, 5), freqs)
    s0 = grid.s0
    asym = float(np.max(np.abs(s0 - np.transpose(s0, (0, 2, 1)))))
    split = float(np.max(np.abs(np.abs(s0[:, 1, 0]) - np.abs(s0[:, 2, 0]))))
    elapsed = time.perf_counter() - t0
    report(1, "static reciprocity and equal split over 201 frequencies",
           asym <= 1e-9 and split <= 1e-9 and elapsed < 10.0,
           f"asym={asym:.2e}, split={split:.2e}, {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    single = one_port_net(DESK_SPECS, 0.05, F_MOD_DESK)
    err_single = cross_validate(single, HarmonicBasis(F_MOD_DESK, 5), 2.68e6,
                                ports=(1, 1))
    wye = toy_wye_net(DESK_SPECS, 0.02, F_MOD_DESK)
    err_wye = cross_validate(wye, HarmonicBasis(F_MOD_DESK, 5), 2.68e6, ports=(1, 2))
    elapsed = time.perf_counter() - t0
    report(2, "harmonic engine matches transient oracle (1% / 2% gates)",
           err_single <= 1e-2 and err_wye <= 2e-2 and elapsed < 120.0,
           f"single={err_single:.4f}, wye={err_wye:.4f}, {elapsed:.0f}s")


def test_criterion_3_nonreciprocity_reproduction(tuned):
    problem, result, m, elapsed = tuned
    within_band = abs(m.f_op - 2.68e9) <= 0.02 * 2.68e9
    bw_ok = m.bw_hz is not None and 0.5e6 <= m.bw_hz <= 50e6
    report(3, "tuned differential design circulates (IX>=40 dB, IL<=3 dB)",
           m.ix_db >= 40.0 and m.il_db <= 3.0 and within_band and bw_ok
           and elapsed < 600.0,
           f"ix={m.ix_db:.1f} dB, il={m.il_db:.2f} dB, f_op={m.f_op / 1e9:.4f} GHz, "
           f"bw={m.bw_hz / 1e6:.2f} MHz, {elapsed:.0f}s")


def test_criterion_4_direction_reversal(tuned):
    problem, result, _, _ = tuned
    fwd = replace(problem.design, delta=result.delta, f_mod=result.f_mod)
    rev = replace(fwd, phase_sequence=PhaseSequence.REVERSE)
    basis = HarmonicBasis(result.f_mod, 5)
    freqs = np.linspace(result.f_op - 10e6, result.f_op + 10e6, 20)
    s_f = sparams(build_circulator(fwd), basis, freqs).s0
    s_r = sparams(build_circulator(rev), basis, freqs).s0
    worst = float(np.max(np.abs(s_f - np.transpose(s_r, (0, 2, 1)))))
    report(4, "reverse sequence transposes S at 20 frequencies",
           worst <= 1e-9, f"max deviation {worst:.2e}")


def test_criterion_5_differential_cancellation(tuned):
    problem, result, _, _ = tuned
    basis = HarmonicBasis(result.f_mod, 5)
    diff_design = replace(problem.design, delta=result.delta, f_mod=result.f_mod)
    se_design = replace(diff_design, topology=Topology.SINGLE_ENDED)
    grid_d = sparams(build_circulator(diff_design), basis, [result.f_op])
    grid_s = sparams(build_circulator(se_design), basis, [result.f_op])
    worst_d = sideband_scan(grid_d)
    worst_s = sideband_scan(grid_s)
    advantage = worst_s - worst_d
    thru = abs(grid_d.s0[0, 1, 0])
    odd = max(float(np.max(np.abs(grid_d.harmonic(n)[0, :, 0])))
              for n in (-5, -3, -1, 1, 3, 5))
    odd_dbc = 20.0 * math.log10(max(odd, 1e-300) / thru)
    report(5, "differential modulation cancels conversion products",
           advantage >= 20.0 and odd_dbc <= -180.0,
           f"advantage={advantage:.0f} dB, odd products {odd_dbc:.0f} dBc")


def test_criterion_6_truncation_convergence(tuned):
    problem, result, _, _ = tuned
    design = replace(problem.design, delta=result.delta, f_mod=result.f_mod)
    net = build_circulator(design)
    delta_s = convergence_check(net, result.f_op, 3, 5)
    report(6, "S(0) change between N=3 and N=5 at the tuned point <= 1e-4",
           delta_s <= 1e-4, f"delta={delta_s:.2e}")


def test_criterion_7_passivity_random_configurations():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(200):
        specs = ResonatorSpecs(f_s=rng.uniform(1e9, 4e9),
                               q=rng.uniform(50.0, 2000.0),
                               k_sq=rng.uniform(0.02, 0.3),
                               c0=rng.uniform(0.3e-12, 3e-12))
        topo = Topology.DIFFERENTIAL if rng.random() < 0.5 else Topology.SINGLE_ENDED
        seq = PhaseSequence.FORWARD if rng.random() < 0.5 else PhaseSequence.REVERSE
        design = CirculatorDesign(topo, specs, delta=float(rng.uniform(0.0, 0.05)),
                                  f_mod=float(specs.f_s * rng.uniform(0.002, 0.02)),
                                  z0=float(rng.uniform(20.0, 100.0)),
                                  phase_sequence=seq)
        net = build_circulator(design)
        f = float(specs.f_s * rng.uniform(0.9, 1.1))
        grid = sparams(net, HarmonicBasis(design.f_mod, 5), [f])
        p_in = int(rng.integers(0, 3))
        worst = max(worst, float(np.sum(np.abs(grid.data[0, :, :, p_in]) ** 2)))
    report(7, "total scattered power <= 1 + 1e-9 over 200 random passive configs",
           worst <= 1.0 + 1e-9, f"worst={worst:.12f}")


def test_criterion_8_bvd_roundtrip_and_lorentzian():
    rng = np.random.default_rng(8)
    worst_rel = 0.0
    for _ in range(100):
        specs = ResonatorSpecs(f_s=10.0 ** rng.uniform(4, 10),
                               q=10.0 ** rng.uniform(0.5, 4),
                               k_sq=rng.uniform(0.001, 0.6),
                               c0=10.0 ** rng.uniform(-14, -9))
        back = specs_from_bvd(bvd_from_specs(specs))
        worst_rel = max(worst_rel,
                        abs(back.f_s - specs.f_s) / specs.f_s,
                        abs(back.q - specs.q) / specs.q,
                        abs(back.k_sq - specs.k_sq) / specs.k_sq)

    f0, q0, r0 = 11.6e6, 100.0, 50.0
    w0 = 2 * math.pi * f0
    l0 = q0 * r0 / w0
    c0 = 1.0 / (w0 * w0 * l0)
    gamma = f0 / (2 * q0)
    freqs = np.linspace(f0 - 5 * gamma, f0 + 5 * gamma, 201)
    x = 2 * math.pi * freqs * l0 - 1.0 / (2 * math.pi * freqs * c0)
    mags = np.abs(1.0 / (r0 + 1j * x))
    clean = fit_lorentzian(list(zip(freqs, mags.astype(complex))))
    f0_err = abs(clean.f0 - f0) / f0
    q_err = abs(clean.q - q0) / q0

    peak = mags.max() - mags.min()
    noisy_errors = []
    for seed in range(20):
        noise_rng = np.random.default_rng(seed)
        noisy = mags + 0.01 * peak * noise_rng.standard_normal(mags.size)
        fit = fit_lorentzian(list(zip(freqs, noisy.astype(complex))))
        noisy_errors.append(abs(fit.q - q0) / q0)
    median_q_err = float(np.median(noisy_errors))

    report(8, "BVD round trip 1e-10; Lorentzian f0 0.01% / Q 1% clean, Q 10% noisy",
           worst_rel <= 1e-10 and f0_err <= 1e-4 and q_err <= 1e-2
           and median_q_err <= 0.10,
           f"roundtrip={worst_rel:.1e}, f0={f0_err:.1e}, q={q_err:.1e}, "
           f"noisy median={median_q_err:.3f}")


def test_criterion_9_format_fidelity(tmp_path):
    design = CirculatorDesign(Topology.DIFFERENTIAL, GHZ_SPECS, delta=0.02, f_mod=F_MOD)
    net = build_circulator(design)
    grid = sparams(net, HarmonicBasis(F_MOD, 3), np.linspace(2.66e9, 2.70e9, 7))
    path = tmp_path / "fidelity.s3p"
    write_s3p(path, grid.frequencies, grid.s0, 50.0)
    freqs, s, _ = read_s3p(path)
    s_err = float(np.max(np.abs(s - grid.s0)))
    # frequencies carry the format's 9 significant digits (5e-9 relative)
    f_err = float(np.max(np.abs(freqs - grid.frequencies) / grid.frequencies))

    text = write_netlist(net)
    round_trip_ok = write_netlist(read_netlist(text)) == text
    report(9, "s3p reproduces values to 1e-9; netlist text round-trips byte-exact",
           s_err <= 1e-9 and f_err <= 5e-9 and round_trip_ok,
           f"s_err={s_err:.1e}, f_err={f_err:.1e}")
