"""Butterworth-Van-Dyke resonator models.

A one-port FBAR is represented by its plate capacitance ``c0`` in parallel
with one series R-L-C motional branch per mechanical mode (the fundamental
bulk mode, plus optionally the low-frequency bending mode).  A branch is
only its three element values; nothing computed depends on which mode it
models.  This module derives element values from measured figures (series
frequency, quality factor, coupling coefficient), evaluates static
admittance, and fits a Lorentzian magnitude profile to measured admittance
data.
"""

from __future__ import annotations

import math

import numpy as np

from .fileio import read_text
from .record import Record

TWO_PI = 2.0 * math.pi

# c_m / c0 = COUPLING_GEOMETRY * k^2 / (1 - k^2), standard thin-film
# resonator convention for the effective coupling coefficient.
COUPLING_GEOMETRY = 8.0 / math.pi**2


class FitDiverged(RuntimeError):
    """Iterative fit exhausted its budget without meeting tolerance."""


class DegenerateData(ValueError):
    """Input samples carry no resonance information (constant magnitude or a dip)."""


class ParseError(ValueError):
    """Malformed input: an admittance CSV, or samples a fit cannot use."""


class MotionalBranch(Record):
    """One series R-L-C branch of the BVD equivalent circuit."""

    r_m: float
    l_m: float
    c_m: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_m) and self.r_m >= 0.0):
            raise ValueError(f"motional resistance must be >= 0, got {self.r_m}")
        if not (math.isfinite(self.l_m) and self.l_m > 0.0):
            raise ValueError(f"motional inductance must be > 0, got {self.l_m}")
        if not (math.isfinite(self.c_m) and self.c_m > 0.0):
            raise ValueError(f"motional capacitance must be > 0, got {self.c_m}")
        lc = self.l_m * self.c_m
        if not 0.0 < lc < math.inf:
            raise ValueError(f"series resonance must be finite and positive, got l_m*c_m = {lc}")

    @property
    def f_s(self) -> float:
        """Series resonance frequency in Hz."""
        return 1.0 / (TWO_PI * math.sqrt(self.l_m * self.c_m))

    @property
    def q(self) -> float:
        """Quality factor; infinite for a lossless branch."""
        if self.r_m == 0.0:
            return math.inf
        return math.sqrt(self.l_m / self.c_m) / self.r_m


class BvdParams(Record):
    """Plate capacitance plus one or two motional branches."""

    c0: float
    branches: tuple[MotionalBranch, ...]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c0) and self.c0 > 0.0):
            raise ValueError(f"plate capacitance must be > 0, got {self.c0}")
        if not 1 <= len(self.branches) <= 2:
            raise ValueError("need one or two motional branches")
        object.__setattr__(self, "branches", tuple(self.branches))


class ResonatorSpecs(Record):
    """Measured resonator figures: f_s (Hz), Q, k_eff^2 and plate capacitance."""

    f_s: float
    q: float
    k_sq: float
    c0: float

    def __post_init__(self) -> None:
        for name in ("f_s", "q", "c0"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if not 0.0 < self.k_sq < 1.0:
            raise ValueError(f"k_sq must lie in (0, 1), got {self.k_sq}")


class LorentzianFit(Record):
    """Result of a magnitude Lorentzian fit: |Y| = baseline + peak*g/sqrt(df^2+g^2)."""

    f0: float
    q: float
    peak: float
    baseline: float
    residual: float


def bvd_from_specs(specs: ResonatorSpecs) -> BvdParams:
    """Derive single-branch BVD element values from measured figures.

    Uses c_m = c0*(8/pi^2)*k^2/(1-k^2), l_m = 1/((2*pi*f_s)^2*c_m),
    r_m = 2*pi*f_s*l_m/q, so that the branch reproduces f_s and q exactly.
    """
    c_m = specs.c0 * COUPLING_GEOMETRY * specs.k_sq / (1.0 - specs.k_sq)
    w_s = TWO_PI * specs.f_s
    stiffness = w_s * w_s * c_m
    if stiffness == 0.0:  # underflow; MotionalBranch checks the other extremes
        raise ValueError(f"(2*pi*f_s)^2 * c_m underflows for f_s={specs.f_s}, c_m={c_m}")
    l_m = 1.0 / stiffness
    r_m = w_s * l_m / specs.q
    branch = MotionalBranch(r_m=r_m, l_m=l_m, c_m=c_m)
    return BvdParams(c0=specs.c0, branches=(branch,))


def specs_from_bvd(bvd: BvdParams) -> ResonatorSpecs:
    """Invert :func:`bvd_from_specs` for a single-branch model."""
    if len(bvd.branches) != 1:
        raise ValueError("specs extraction requires exactly one branch")
    b = bvd.branches[0]
    ratio = b.c_m / bvd.c0
    k_sq = ratio / (ratio + COUPLING_GEOMETRY)
    return ResonatorSpecs(f_s=b.f_s, q=b.q, k_sq=k_sq, c0=bvd.c0)


def admittance(bvd: BvdParams, f):
    """Complex admittance of the one-port at frequency ``f`` (Hz).

    Y(w) = j*w*c0 + sum over branches of 1/(r + j*w*l + 1/(j*w*c)).
    Accepts a scalar or an array of frequencies.
    """
    f_arr = np.asarray(f, dtype=float)
    if np.any(f_arr <= 0.0):
        raise ValueError("frequency must be positive")
    w = TWO_PI * f_arr
    y = 1j * w * bvd.c0
    for b in bvd.branches:
        y = y + 1.0 / (b.r_m + 1j * w * b.l_m + 1.0 / (1j * w * b.c_m))
    if np.isscalar(f) or f_arr.ndim == 0:
        return complex(y)
    return y


def parallel_resonance(bvd: BvdParams) -> float:
    """Anti-resonance frequency f_p = f_s*sqrt(1 + c_m/c0) of a single branch."""
    if len(bvd.branches) != 1:
        raise ValueError("parallel resonance is ambiguous for a two-branch model")
    b = bvd.branches[0]
    return b.f_s * math.sqrt(1.0 + b.c_m / bvd.c0)


def _lorentz_model(f, f0, gamma, peak, baseline):
    d = f - f0
    return baseline + peak * gamma / np.sqrt(d * d + gamma * gamma)


def _lorentz_jacobian(f, f0, gamma, peak, baseline):
    d = f - f0
    s2 = d * d + gamma * gamma
    s = np.sqrt(s2)
    s3 = s2 * s
    jac = np.empty((f.size, 4))
    jac[:, 0] = peak * gamma * d / s3          # d/d f0
    jac[:, 1] = peak * d * d / s3              # d/d gamma
    jac[:, 2] = gamma / s                      # d/d peak
    jac[:, 3] = 1.0                            # d/d baseline
    return jac


def fit_lorentzian(samples) -> LorentzianFit:
    """Fit a magnitude Lorentzian to admittance samples.

    ``samples`` is a sequence of (frequency_hz, complex_admittance) pairs with
    strictly increasing frequencies; only |Y| is fitted.  Damped least squares
    with an analytic Jacobian, initial guess from the peak location and
    half-power width; 200 iteration budget, 1e-10 relative step tolerance.

    Raises :class:`ParseError` for fewer than 8 samples, a non-finite
    frequency or admittance (naming the first such sample) or frequencies that
    do not increase, :class:`DegenerateData` for constant samples or a dip
    (a fitted peak <= 0) and :class:`FitDiverged` when the budget is exhausted.
    """
    freqs = np.asarray([s[0] for s in samples], dtype=float)
    ys = np.asarray([s[1] for s in samples], dtype=complex)
    if freqs.size < 8:
        raise ParseError(f"need at least 8 samples spanning the resonance, got {freqs.size}")
    finite = np.isfinite(freqs) & np.isfinite(ys)
    if not finite.all():
        i = int(np.argmin(finite))  # the first non-finite sample
        raise ParseError(f"sample {i + 1} is not finite: f = {freqs[i]} Hz, Y = {ys[i]} S")
    mags = np.abs(ys)
    if np.any(np.diff(freqs) <= 0.0):
        raise ParseError("frequencies must be strictly increasing")
    span = float(mags.max() - mags.min())
    if span <= 1e-15 * max(1.0, float(mags.max())):
        raise DegenerateData("samples have constant magnitude")

    # Initial guess from the peak and its half-power width.
    i_pk = int(np.argmax(mags))
    base0 = float(mags.min())
    peak0 = float(mags[i_pk]) - base0
    f00 = float(freqs[i_pk])
    half = base0 + peak0 / math.sqrt(2.0)
    above = mags >= half
    lo = i_pk
    while lo > 0 and above[lo - 1]:
        lo -= 1
    hi = i_pk
    while hi < freqs.size - 1 and above[hi + 1]:
        hi += 1
    width = float(freqs[hi] - freqs[lo])
    step = float(np.min(np.diff(freqs)))
    gamma0 = max(width / 2.0, step / 2.0)

    # Work in normalized units so the damped normal equations stay conditioned.
    f_ref = f00
    y_ref = peak0
    fn = freqs / f_ref
    yn = mags / y_ref
    theta = np.array([1.0, gamma0 / f_ref, peak0 / y_ref, base0 / y_ref])

    def sse(t):
        r = _lorentz_model(fn, *t) - yn
        return float(r @ r)

    lam = 1e-3
    cost = sse(theta)
    converged = False
    for _ in range(200):
        r = _lorentz_model(fn, *theta) - yn
        jac = _lorentz_jacobian(fn, *theta)
        grad = jac.T @ r
        hess = jac.T @ jac
        accepted = False
        step_vec = np.zeros(4)
        for _ in range(40):
            damped = hess + lam * np.diag(np.diag(hess)) + 1e-30 * np.eye(4)
            try:
                step_vec = np.linalg.solve(damped, -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand = theta + step_vec
            if cand[1] <= 0.0 or cand[0] <= 0.0:
                lam *= 10.0
                continue
            cand_cost = sse(cand)
            if cand_cost <= cost:
                theta = cand
                cost = cand_cost
                lam = max(lam * 0.3, 1e-14)
                accepted = True
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if not accepted:
            raise FitDiverged("damped least squares failed to improve")
        rel = np.max(np.abs(step_vec) / np.maximum(np.abs(theta), 1e-12))
        if rel < 1e-10:
            converged = True
            break
    if not converged:
        raise FitDiverged("iteration budget exhausted before tolerance")

    f0 = float(theta[0] * f_ref)
    gamma = float(theta[1] * f_ref)
    peak = float(theta[2] * y_ref)
    if not peak > 0.0:  # a dip, or NaN: no series resonance
        raise DegenerateData(f"the fitted Lorentzian has peak {peak:.6g} S, not a resonance")
    baseline = float(theta[3] * y_ref)
    resid = _lorentz_model(freqs, f0, gamma, peak, baseline) - mags
    rms = float(np.sqrt(np.mean(resid * resid)))
    return LorentzianFit(f0=f0, q=f0 / (2.0 * gamma), peak=peak, baseline=baseline, residual=rms)


def read_admittance_csv(path) -> list[tuple[float, complex]]:
    """Read (f_Hz, Y_S) samples from a two- or three-column CSV file.

    Columns are f_Hz, ReY_S and optionally ImY_S.  A single non-numeric
    header line is tolerated; ``#`` lines and blank lines are ignored.
    """
    rows: list[tuple[float, complex]] = []
    header_seen = False
    for lineno, raw in enumerate(read_text(path, ParseError).split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            if not rows and not header_seen:
                header_seen = True
                continue
            raise ParseError(f"line {lineno}: non-numeric field in {line!r}")
        if len(vals) == 2:
            rows.append((vals[0], complex(vals[1], 0.0)))
        elif len(vals) == 3:
            rows.append((vals[0], complex(vals[1], vals[2])))
        else:
            raise ParseError(f"line {lineno}: expected 2 or 3 columns, got {len(vals)}")
    if not rows:
        raise ParseError("no data rows found")
    return rows
