"""Workload inputs, generated from a seed with the standard library only.

Every input the program sees is written here as a config file; nothing is
read from the repository's own ``configs/``, so later changes to those
fixtures cannot move the benchmark.  The physics is copied from the
shipped files named beside each workload.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "tune", "oracle")

# Physics of configs/differential_tuned.cfg (the shipped tuned design).
TUNED_DESIGN = {
    "design.topology": "differential",
    "design.f_s": "2650000000.0",
    "design.q": "700.0",
    "design.k_sq": "0.09",
    "design.c0": "1e-12",
    "design.c0_to_ground": "true",
    "design.delta": "0.028645925342861006",
    "design.f_mod": "31479745.75625309",
    "design.phase_sequence": "forward",
    "design.z0": "50.0",
    "basis.n_harm": "5",
    "metrics.in_port": "1",
    "metrics.through_port": "2",
    "metrics.isolated_port": "3",
    "metrics.bw_threshold_db": "25.0",
}
F_OP = 2676659341.9773417
SWEEP_SPAN = 25e6
SWEEP_POINTS = 251
QUICK_SWEEP_POINTS = 21

# |S31| and |S21| at F_OP in dB, from the seed commit's engine.  The check
# tolerance admits last-bit solver changes (|dS| ~ 1e-12 moves these by
# ~1e-8 dB) but not a stamp or convention error.
SWEEP_IX_DB = 51.35516922997168
SWEEP_IL_DB = 2.922285886760535
SWEEP_DB_TOL = 1e-5

# Physics of configs/differential.cfg (the stock design tuning starts from).
STOCK_DESIGN = {
    "design.topology": "differential",
    "design.delta": "0.01",
    "design.f_mod": "23.2e6",
    "basis.n_harm": "5",
    "tuner.budget": "300",
}
# Post-tune metrics grid; the stock 251 points would double the run time
# without exercising anything the objective does not.
TUNE_METRICS_POINTS = 21
QUICK_TUNE_BUDGET = 30
# Acceptance criterion 3, checked on the full-budget run only.
TUNE_MIN_IX_DB = 40.0
TUNE_MAX_IL_DB = 3.0

# Shipped verify.* defaults; the toy-wye gate is calibrated at exactly these.
VERIFY = {
    "verify.scale": "1000.0",
    "verify.q": "100.0",
    "verify.f_ratio": "1.0113",
    "verify.delta_wye": "0.02",
    "verify.pts_per_cycle": "400",
    "verify.mod_periods": "22.0",
    "verify.gate_wye": "0.02",
}
# Shortest run whose fit window still resolves the f_mod tone spacing.
QUICK_MOD_PERIODS = "4.0"


def _config_text(values: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def make_inputs(workload: str, seed: int, quick: bool) -> dict:
    """Config text and workflow arguments for one run of ``workload``."""
    if workload == "sweep":
        # Shift the grid by a seeded fraction of a step; sweep.include keeps
        # the operating point on it, so every seed solves the same count.
        step = 2.0 * SWEEP_SPAN / (SWEEP_POINTS - 1)
        shift = random.Random(seed).uniform(0.1, 0.9) * step
        values = dict(TUNED_DESIGN)
        values["sweep.f_start"] = repr(F_OP - SWEEP_SPAN + shift)
        values["sweep.f_stop"] = repr(F_OP + SWEEP_SPAN + shift)
        values["sweep.points"] = str(QUICK_SWEEP_POINTS if quick else SWEEP_POINTS)
        values["sweep.include"] = repr(F_OP)
        return {"config": _config_text(values), "points": int(values["sweep.points"]) + 1}
    if workload == "tune":
        values = dict(STOCK_DESIGN)
        values["tuner.metrics_points"] = str(TUNE_METRICS_POINTS)
        if quick:
            values["tuner.budget"] = str(QUICK_TUNE_BUDGET)
        return {"config": _config_text(values), "tune_seed": seed,
                "budget": int(values["tuner.budget"]), "acceptance": not quick}
    if workload == "oracle":
        values = {"design.topology": "differential", **VERIFY}
        if quick:
            values["verify.mod_periods"] = QUICK_MOD_PERIODS
        return {"config": _config_text(values)}
    raise ValueError(f"unknown workload {workload!r}")
