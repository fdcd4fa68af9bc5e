import math

import numpy as np
import pytest

from fbarcirc.bvd import (BvdParams, DegenerateData, MotionalBranch,
                          ParseError, ResonatorSpecs, admittance, bvd_from_specs,
                          fit_lorentzian, parallel_resonance, read_admittance_csv,
                          specs_from_bvd)

TWO_PI = 2.0 * math.pi


class TestFromSpecs:
    def test_closed_forms(self, ghz_specs):
        # Frozen from direct evaluation of the closed forms:
        # c_m = c0*(8/pi^2)*k2/(1-k2); l_m = 1/((2*pi*f_s)^2*c_m); r_m = 2*pi*f_s*l_m/q
        branch = bvd_from_specs(ghz_specs).branches[0]
        assert branch.c_m == pytest.approx(8.016621123349801e-14, rel=1e-12)
        assert branch.l_m == pytest.approx(4.499426446738658e-08, rel=1e-12)
        assert branch.r_m == pytest.approx(1.0702490696191644, rel=1e-12)

    def test_series_frequency_exact(self, ghz_specs):
        branch = bvd_from_specs(ghz_specs).branches[0]
        f_s = 1.0 / (TWO_PI * math.sqrt(branch.l_m * branch.c_m))
        assert f_s == pytest.approx(ghz_specs.f_s, rel=1e-12)

    def test_quality_factor_exact(self, ghz_specs):
        branch = bvd_from_specs(ghz_specs).branches[0]
        q = math.sqrt(branch.l_m / branch.c_m) / branch.r_m
        assert q == pytest.approx(700.0, rel=1e-12)

    def test_small_coupling_limit(self):
        eps = 1e-9
        specs = ResonatorSpecs(f_s=1.0, q=1.0, k_sq=eps, c0=1.0)
        branch = bvd_from_specs(specs).branches[0]
        assert branch.c_m == pytest.approx((8.0 / math.pi**2) * eps, rel=1e-6)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            specs = ResonatorSpecs(f_s=10.0 ** rng.uniform(3, 10),
                                   q=10.0 ** rng.uniform(0.5, 4),
                                   k_sq=rng.uniform(0.001, 0.6),
                                   c0=10.0 ** rng.uniform(-14, -9))
            back = specs_from_bvd(bvd_from_specs(specs))
            assert back.f_s == pytest.approx(specs.f_s, rel=1e-10)
            assert back.q == pytest.approx(specs.q, rel=1e-10)
            assert back.k_sq == pytest.approx(specs.k_sq, rel=1e-10)
            assert back.c0 == specs.c0

    @pytest.mark.parametrize("bad", [
        dict(f_s=-1.0, q=700.0, k_sq=0.09, c0=1e-12),
        dict(f_s=2.65e9, q=0.0, k_sq=0.09, c0=1e-12),
        dict(f_s=2.65e9, q=700.0, k_sq=0.0, c0=1e-12),
        dict(f_s=2.65e9, q=700.0, k_sq=1.0, c0=1e-12),
        dict(f_s=2.65e9, q=700.0, k_sq=1.3, c0=1e-12),
        dict(f_s=2.65e9, q=700.0, k_sq=0.09, c0=0.0),
    ])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            ResonatorSpecs(**bad)


class TestAdmittance:
    def test_series_resonance_value(self, ghz_specs):
        model = bvd_from_specs(ghz_specs)
        branch = model.branches[0]
        f_s = branch.f_s
        y = admittance(model, f_s)
        assert y.real == pytest.approx(1.0 / branch.r_m, rel=1e-6)
        # f_s carries float rounding; the steep branch reactance leaks ~1e-5
        # of the plate susceptance into Im(Y)
        assert y.imag == pytest.approx(TWO_PI * f_s * ghz_specs.c0, rel=1e-4)
        # |Y| peaks at f_s up to the tiny skew the plate susceptance adds
        grid = np.linspace(0.995 * f_s, 1.005 * f_s, 401)
        mags = np.abs(admittance(model, grid))
        assert abs(y) >= np.max(mags) * (1.0 - 1e-3)
        f_peak = grid[int(np.argmax(mags))]
        assert abs(f_peak - f_s) <= 1e-3 * f_s

    def test_antiresonance_is_grid_minimum(self, ghz_specs):
        # independent oracle: |Y| on a fine grid around the closed-form f_p
        model = bvd_from_specs(ghz_specs)
        f_p = parallel_resonance(model)
        grid = np.linspace(0.98 * f_p, 1.02 * f_p, 2001)
        mags = np.abs(admittance(model, grid))
        f_min = grid[int(np.argmin(mags))]
        assert abs(f_min - f_p) <= (grid[1] - grid[0])

    def test_open_motional_branch(self, ghz_specs):
        branch = bvd_from_specs(ghz_specs).branches[0]
        huge_r = MotionalBranch(r_m=1e12, l_m=branch.l_m, c_m=branch.c_m)
        model = BvdParams(c0=ghz_specs.c0, branches=(huge_r,))
        f = 2.7e9
        assert admittance(model, f) == pytest.approx(1j * TWO_PI * f * ghz_specs.c0, rel=1e-9)

    def test_passivity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            specs = ResonatorSpecs(f_s=10.0 ** rng.uniform(5, 10),
                                   q=10.0 ** rng.uniform(0, 4),
                                   k_sq=rng.uniform(0.001, 0.5),
                                   c0=10.0 ** rng.uniform(-13, -10))
            model = bvd_from_specs(specs)
            f = specs.f_s * 10.0 ** rng.uniform(-1, 1)
            assert admittance(model, f).real >= -1e-15

    def test_rejects_nonpositive_frequency(self, ghz_specs):
        model = bvd_from_specs(ghz_specs)
        with pytest.raises(ValueError):
            admittance(model, 0.0)

    def test_two_branch_sum(self, ghz_specs):
        main = bvd_from_specs(ghz_specs).branches[0]
        bend = _bending_branch(f0=11.6e6, q=100.0, r=50.0)
        model = BvdParams(c0=ghz_specs.c0, branches=(main, bend))
        f = 100e6
        expect = (admittance(BvdParams(ghz_specs.c0, (main,)), f)
                  + admittance(BvdParams(ghz_specs.c0, (bend,)), f)
                  - 1j * TWO_PI * f * ghz_specs.c0)
        assert admittance(model, f) == pytest.approx(expect, rel=1e-12)


class TestParallelResonance:
    def test_closed_form_value(self, ghz_specs):
        model = bvd_from_specs(ghz_specs)
        assert parallel_resonance(model) == pytest.approx(2754172692.186755, rel=1e-12)

    def test_vanishing_coupling(self):
        branch = MotionalBranch(r_m=1.0, l_m=1e-3, c_m=1e-21)
        model = BvdParams(c0=1e-12, branches=(branch,))
        assert parallel_resonance(model) == pytest.approx(branch.f_s, rel=1e-8)

    def test_three_to_one_ratio_doubles(self):
        c0 = 1e-12
        branch = MotionalBranch(r_m=0.0, l_m=1e-9, c_m=3.0 * c0)
        model = BvdParams(c0=c0, branches=(branch,))
        assert parallel_resonance(model) == pytest.approx(2.0 * branch.f_s, rel=1e-14)

    def test_two_branch_rejected(self, ghz_specs):
        branch = bvd_from_specs(ghz_specs).branches[0]
        model = BvdParams(c0=ghz_specs.c0, branches=(branch, branch))
        with pytest.raises(ValueError):
            parallel_resonance(model)


def _bending_branch(f0: float, q: float, r: float) -> MotionalBranch:
    w0 = TWO_PI * f0
    l = q * r / w0
    c = 1.0 / (w0 * w0 * l)
    return MotionalBranch(r_m=r, l_m=l, c_m=c)


def _bending_samples(f0=11.6e6, q=100.0, r=50.0, n=201, rel_span=5.0):
    """|Y| samples of a lone bending-mode branch around its resonance."""
    branch = _bending_branch(f0, q, r)
    model = BvdParams(c0=1e-18, branches=(branch,))  # negligible plate term
    gamma = f0 / (2.0 * q)
    freqs = np.linspace(f0 - rel_span * gamma, f0 + rel_span * gamma, n)
    return [(float(f), admittance(model, float(f))) for f in freqs]


class TestLorentzianFit:
    def test_noiseless_roundtrip(self):
        fit = fit_lorentzian(_bending_samples())
        assert fit.f0 == pytest.approx(11.6e6, rel=1e-4)
        assert fit.q == pytest.approx(100.0, rel=1e-2)
        # true series-RLC magnitude is slightly asymmetric vs the symmetric
        # Lorentzian, leaving a small but nonzero model residual
        assert fit.residual < 5e-3 * fit.peak

    def test_noisy_monte_carlo_median(self):
        samples = _bending_samples()
        freqs = np.array([s[0] for s in samples])
        mags = np.array([abs(s[1]) for s in samples])
        peak = mags.max() - mags.min()
        errors = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            noisy = mags + 0.01 * peak * rng.standard_normal(mags.size)
            fit = fit_lorentzian(list(zip(freqs, noisy.astype(complex))))
            errors.append(abs(fit.q - 100.0) / 100.0)
        assert np.median(errors) <= 0.10

    def test_constant_samples_degenerate(self):
        samples = [(1e6 + i * 1e3, 5.0 + 0j) for i in range(32)]
        with pytest.raises(DegenerateData):
            fit_lorentzian(samples)

    def test_dip_degenerate(self):
        # a notch in |Y| fits a Lorentzian of negative peak: not a resonance
        gamma = 1e6
        freqs = np.linspace(2.6e9, 2.7e9, 41)
        mags = 0.02 - 0.019 * gamma / np.hypot(freqs - 2.65e9, gamma)
        with pytest.raises(DegenerateData, match="not a resonance"):
            fit_lorentzian(list(zip(freqs, mags.astype(complex))))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_lorentzian(_bending_samples(n=7))

    def test_non_increasing_frequencies(self):
        samples = _bending_samples(n=16)
        samples[3], samples[4] = samples[4], samples[3]
        with pytest.raises(ValueError):
            fit_lorentzian(samples)

    def test_scale_equivariance(self):
        samples = _bending_samples()
        base = fit_lorentzian(samples)
        for alpha in (3.7e-4, 250.0):
            scaled = fit_lorentzian([(f, alpha * y) for f, y in samples])
            assert scaled.f0 == pytest.approx(base.f0, rel=1e-9)
            assert scaled.q == pytest.approx(base.q, rel=1e-9)
            assert scaled.peak == pytest.approx(alpha * base.peak, rel=1e-6)
            assert scaled.baseline == pytest.approx(alpha * base.baseline, abs=1e-6 * alpha * base.peak)


class TestCsvReader:
    def test_two_column(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("# comment\n1e6,0.5\n2e6,0.6\n")
        rows = read_admittance_csv(p)
        assert rows == [(1e6, 0.5 + 0j), (2e6, 0.6 + 0j)]

    def test_three_column_with_header(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("f_hz,re_s,im_s\n1e6, 0.5, -0.25\n")
        assert read_admittance_csv(p) == [(1e6, 0.5 - 0.25j)]

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("1e6,0.5\nbogus,line\n")
        with pytest.raises(ParseError, match="line 2"):
            read_admittance_csv(p)

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("1e6,0.5,0.1,9\n")
        with pytest.raises(ParseError):
            read_admittance_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            read_admittance_csv(p)
