import logging
import math
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from fbarcirc import htm, tuner
from fbarcirc.config import parse_config
from fbarcirc.htm import HarmonicBasis, sparams
from fbarcirc.metrics import metrics_at
from fbarcirc.netlist import (ModulationSpec, build_circulator,
                              elastance_fourier)
from fbarcirc.tuner import penalized_objective, tune, write_trace_csv

from conftest import count_stamps


def small_problem(**overrides):
    """The stock tune problem of the default differential design at delta 0.01."""
    return replace(parse_config("design.delta = 0.01\n").tune_problem(), **overrides)


def sphere_center(problem):
    """The sphere's center in the search box, and the sphere as a batch objective."""
    lo, hi = problem.bounds
    center = lo + np.array([0.31, 0.62, 0.47]) * (hi - lo)

    def fn(x):
        z = (x - center) / (hi - lo)
        return float(z @ z)

    return center, lambda points: [fn(p) for p in points]


def one_point(params, problem, stamped):
    """The objective at one point, solved alone: a float or the solver failure."""
    return tuner._objectives([params], problem, stamped)[0]


class TestPenalty:
    def test_no_penalty_below_cap(self):
        assert penalized_objective(60.0, 1.0, 3.0) == -60.0

    def test_penalty_arithmetic(self):
        assert penalized_objective(60.0, 5.0, 3.0) == pytest.approx(140.0)

    def test_boundary_is_free(self):
        assert penalized_objective(40.0, 3.0, 3.0) == -40.0


class TestObjective:
    def test_static_design_anchors_to_splitter_loss(self):
        # cap opened up so the penalty stays inactive at the splitter's loss
        problem = small_problem(il_cap_db=10.0)
        params = (0.0, 23.2e6, 2.68e9)
        value = one_point(params, problem, tuner._stamped_box(problem))
        net = build_circulator(replace(problem.design, delta=0.0))
        grid = sparams(net, HarmonicBasis(23.2e6, problem.n_harm), [2.68e9])
        ix, il, _ = metrics_at(grid, 2.68e9, problem.direction)
        assert ix == pytest.approx(il, abs=1e-9)       # no directionality at delta=0
        assert value == pytest.approx(-il, abs=1e-9)   # objective reduces to -il

    def test_solver_failure_maps_to_inf(self):
        problem = small_problem()
        # stimulus on a low multiple of f_mod is rejected by the engine
        params = (0.01, 23.2e6, 2 * 23.2e6)
        value = one_point(params, problem, tuner._stamped_box(problem))
        assert isinstance(value, htm.DegenerateStimulus)
        assert tuner._taken(params, value) == math.inf

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a solver failure")

        monkeypatch.setattr("fbarcirc.tuner.metrics_at", broken)
        with pytest.raises(ValueError, match="not a solver failure"):
            problem = small_problem()
            one_point((0.01, 23.2e6, 2.68e9), problem, tuner._stamped_box(problem))


class TestTuneOnEngine:
    def test_stock_design_never_falls_back_to_dense_solve(self, monkeypatch):
        # A silent fallback would keep every result right and lose the block
        # engine's speed on the tuner's small batches.
        calls = []
        solve = htm._solve

        def counted(a, b):
            calls.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(htm, "_solve", counted)
        result = tune(small_problem(budget=30), seed=0)
        assert result.evaluations == 30
        assert calls == []


def reference_objective(params, problem):
    """The objective as a fresh build of the design at (delta, f_mod) gives it."""
    delta, f_mod, f_op = (float(v) for v in params)
    net = build_circulator(replace(problem.design, delta=delta, f_mod=f_mod))
    grid = sparams(net, HarmonicBasis(f_mod, problem.n_harm), [f_op])
    ix, il, _ = metrics_at(grid, f_op, problem.direction)
    return penalized_objective(ix, il, problem.il_cap_db)


def remodulated(stamped, problem, delta, f_mod, f_op):
    """One evaluation's solve: the tune's stamped design at (delta, f_mod), at f_op."""
    stamped.modulate([ModulationSpec(delta, f_mod, m.phase) for m in stamped.modulations[0]])
    return sparams(stamped, HarmonicBasis(f_mod, problem.n_harm), [f_op])


class TestStampedDesign:
    """The tune's circulator, stamped once and remodulated at every evaluation."""

    def test_trace_bitwise_equal_to_fresh_builds(self):
        problem = small_problem()
        stamped = tune(problem, seed=0)
        fresh = tune(problem, seed=0,
                     objectives=lambda points: [reference_objective(p, problem) for p in points])
        assert stamped.evaluations == fresh.evaluations == problem.budget
        for (xs, vs), (xf, vf) in zip(stamped.trace, fresh.trace):
            assert np.array_equal(xs, xf)
            assert vs == vf

    @pytest.mark.parametrize("params", [(0.05, 23.2e6, 2.66e9), (0.0, 20e6, 2.68e9),
                                        (0.1, 30e6, 2.63e9)])
    def test_rewritten_stamps_match_a_fresh_stamp(self, params):
        problem = small_problem()
        stamped = tuner._stamped_box(problem)
        remodulated(stamped, problem, 0.07, 25e6, 2.67e9)   # a previous evaluation's coupling
        delta, f_mod, f_op = params
        grid = remodulated(stamped, problem, delta, f_mod, f_op)
        net = build_circulator(replace(problem.design, delta=delta, f_mod=f_mod))
        # the coupling as a fresh stamp subtracts it from zeros; tobytes
        # tells -0.0 from +0.0, which array_equal does not
        m = np.zeros_like(stamped.m)
        cur, chg = htm._coupling(stamped)
        for i, el in enumerate(net.modulated):
            m[0, :, cur.start + i, chg.start + i] -= elastance_fourier(el.branch, el.modulation)
        assert stamped.m.tobytes() == m.tobytes()
        ref = sparams(net, HarmonicBasis(f_mod, problem.n_harm), [f_op])
        assert grid.data.tobytes() == ref.data.tobytes()

    def test_excitation_built_once_per_tune(self, monkeypatch):
        calls = []
        real = htm._excitation

        def counted(st, basis):
            calls.append(basis.n_harm)
            return real(st, basis)

        monkeypatch.setattr(htm, "_excitation", counted)
        problem = small_problem(budget=20)
        assert tune(problem, seed=0).evaluations == 20
        assert calls == [problem.n_harm]

    def test_keeps_the_modulation_checks(self):
        problem = small_problem()
        stamped = tuner._stamped_box(problem)
        with pytest.raises(ValueError, match="depth"):
            remodulated(stamped, problem, 1.0, 23.2e6, 2.68e9)
        with pytest.raises(ValueError, match="modulation frequency"):
            remodulated(stamped, problem, 0.01, math.inf, 2.68e9)
        with pytest.raises(htm.DegenerateStimulus):
            remodulated(stamped, problem, 0.01, 23.2e6, 3 * 23.2e6)

    def test_design_delta_outside_search_box_still_tunes(self):
        # only the search box's delta is ever evaluated
        problem = small_problem(budget=10)
        problem = replace(problem, design=replace(problem.design, delta=2.0))
        assert tune(problem, seed=0).evaluations == 10

    def test_tune_without_restart_leaves_numpy_random_unimported(self):
        # the stock problem has four starts, but a budget-10 tune spends it in
        # the first: no restart offset is drawn, so numpy.random (6 MB of RSS
        # and 10-16 ms per process) is never imported; a fresh process, as the
        # suite's may have imported it already
        code = ("import sys\n"
                "from fbarcirc.config import parse_config\n"
                "from fbarcirc.tuner import tune\n"
                "problem = parse_config('design.delta = 0.01\\ntuner.budget = 10\\n')"
                ".tune_problem()\n"
                "result = tune(problem, seed=0)\n"
                "print(problem.starts, result.budget_exhausted, 'numpy.random' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["4", "True", "False"]

    @pytest.mark.parametrize("budget", [10, 30])
    def test_one_build_and_one_stamp_per_tune(self, monkeypatch, budget):
        calls = {"build": 0}
        build = tuner.build_circulator

        def counted_build(design):
            calls["build"] += 1
            return build(design)

        monkeypatch.setattr(tuner, "build_circulator", counted_build)
        stamps = count_stamps(monkeypatch)
        solves = []
        solve = htm.sparams

        def counted_solve(net, basis, freqs, out=None):
            solves.append(len(freqs))
            return solve(net, basis, freqs, out)

        monkeypatch.setattr(htm, "sparams", counted_solve)
        result = tune(small_problem(budget=budget, n_harm=1), seed=0)
        assert result.evaluations == budget
        assert calls == {"build": 1}
        assert len(stamps) == 1
        # every evaluation solves through sparams: the initial simplex in one
        # batch, then a step's reflection with its likely next point
        assert solves[0] == 4 and set(solves[1:]) <= {1, 2, 3}
        assert sum(solves) >= budget > len(solves)


class TestTuneOnSphere:
    def test_converges_within_budget(self):
        problem = small_problem(starts=1, budget=300)
        center, fn = sphere_center(problem)
        result = tune(problem, seed=3, objectives=fn)
        lo, hi = problem.bounds
        err = np.max(np.abs((np.array([result.delta, result.f_mod, result.f_op]) - center)
                            / (hi - lo)))
        assert err <= 1e-6
        assert result.evaluations <= 200
        assert not result.budget_exhausted

    def test_same_seed_identical_trace(self):
        problem = small_problem(starts=2, budget=60)
        _, fn = sphere_center(problem)
        r1 = tune(problem, seed=11, objectives=fn)
        r2 = tune(problem, seed=11, objectives=fn)
        assert len(r1.trace) == len(r2.trace)
        for (x1, v1), (x2, v2) in zip(r1.trace, r2.trace):
            assert np.array_equal(x1, x2) and v1 == v2

    def test_different_seed_differs(self):
        # budget large enough that the seeded second start actually runs
        problem = small_problem(starts=2, budget=280)
        _, fn = sphere_center(problem)
        r1 = tune(problem, seed=1, objectives=fn)
        r2 = tune(problem, seed=2, objectives=fn)
        same = all(np.array_equal(a[0], b[0]) for a, b in zip(r1.trace, r2.trace))
        assert not same

    def test_monotone_best_so_far(self):
        problem = small_problem(starts=2, budget=120)
        _, fn = sphere_center(problem)
        result = tune(problem, seed=5, objectives=fn)
        best = math.inf
        mins = []
        for _, v in result.trace:
            best = min(best, v)
            mins.append(best)
        assert all(a >= b for a, b in zip(mins, mins[1:]))

    def test_bounds_respected(self):
        problem = small_problem(starts=4, budget=100)
        _, fn = sphere_center(problem)
        result = tune(problem, seed=9, objectives=fn)
        lo, hi = problem.bounds
        for x, _ in result.trace:
            assert np.all(x >= lo - 1e-30) and np.all(x <= hi + 1e-30)

    def test_budget_exhausted_flag(self):
        problem = small_problem(starts=1, budget=10)
        _, fn = sphere_center(problem)
        result = tune(problem, seed=0, objectives=fn)
        assert result.budget_exhausted
        assert result.evaluations == 10
        assert len(result.trace) == 10

    def test_never_worse_than_first_evaluation(self):
        problem = small_problem(starts=1, budget=25)
        _, fn = sphere_center(problem)
        result = tune(problem, seed=4, objectives=fn)
        values = [v for _, v in result.trace]
        assert min(values) <= values[0]


def trace_bits(result):
    return [(x.tobytes(), float(v).hex()) for x, v in result.trace]


def outcome(result):
    return (result.delta, result.f_mod, result.f_op, result.evaluations, result.budget_exhausted)


def restart_problem(**overrides):
    """A search box small enough that the first start converges within a
    budget of 60, so that the seeded second start runs."""
    return replace(parse_config("design.delta = 0.01\ntuner.delta_max = 0.001\n"
                                "tuner.f_mod_window = 1e-5\ntuner.f_op_window = 1e-7\n"
                                "tuner.starts = 2\ntuner.budget = 60\n").tune_problem(),
                   **overrides)


def one_at_a_time(problem, seed=0):
    """The tune that solves every point of every batch alone."""
    stamped = tuner._stamped_box(problem)
    return tune(problem, seed=seed,
                objectives=lambda points: [one_point(p, problem, stamped) for p in points])


def batches(monkeypatch, problem):
    """The (f_op, f_mod) of each point of each batch a tune of ``problem`` solves."""
    solved = []
    solve = tuner._objectives

    def recorded(points, *args):
        solved.append([(float(p[2]), float(p[1])) for p in points])
        return solve(points, *args)

    monkeypatch.setattr(tuner, "_objectives", recorded)
    tune(problem, seed=0)
    monkeypatch.setattr(tuner, "_objectives", solve)
    return solved


def fail_at(monkeypatch, stimuli):
    """Make the engine reject each (f_op, f_mod) in ``stimuli`` as a degenerate
    stimulus; returns the list of the rejected ones, in order."""
    rejected = []
    check = htm._check_stimulus

    def failing(f, f_mod, n_harm):
        if (f, f_mod) in stimuli:
            rejected.append((f, f_mod))
            raise htm.DegenerateStimulus("rejected here")
        check(f, f_mod, n_harm)

    monkeypatch.setattr(htm, "_check_stimulus", failing)
    return rejected


class TestBatches:
    """A step solves its reflection and its likely next point in one batch;
    trace, budget and best point are those of one point at a time."""

    @pytest.mark.parametrize("budget", [10, 30, 300])
    def test_trace_matches_one_point_at_a_time(self, cpus, budget):
        problem = small_problem(budget=budget)
        forks = cpus(2)
        batched = tune(problem, seed=0)
        assert forks == []  # the search forks no worker
        serial = one_at_a_time(problem)
        assert trace_bits(batched) == trace_bits(serial)
        assert outcome(batched) == outcome(serial)

    def test_restart_matches_one_point_at_a_time(self):
        problem = restart_problem()
        first = tune(replace(problem, starts=1), seed=0)
        batched = tune(problem, seed=0)
        assert not first.budget_exhausted and batched.evaluations > first.evaluations
        serial = one_at_a_time(problem)
        assert trace_bits(batched) == trace_bits(serial)
        assert outcome(batched) == outcome(serial)

    def test_trace_holds_the_taken_points_of_a_search_asked_one_at_a_time(self, monkeypatch):
        # a rippled sphere: the search shrinks its simplex, and its first start
        # converges within the budget, so that the seeded second one runs
        problem = small_problem(starts=2, budget=600)
        lo, hi = problem.bounds
        center = lo + np.array([0.31, 0.62, 0.47]) * (hi - lo)

        def fn(x):
            z = (x - center) / (hi - lo)
            return float(z @ z + 0.1 * np.sum(np.sin(20.0 * z) ** 2))

        def recorded(asked):
            def objectives(points):
                asked.append([p.tobytes() for p in points])
                return [fn(p) for p in points]
            return objectives

        asked = []
        batched = tune(problem, seed=5, objectives=recorded(asked))
        sizes = [len(b) for b in asked]
        assert not batched.budget_exhausted
        assert sizes.count(4) == 2  # each start's initial simplex: the restart ran
        assert 3 in sizes  # a shrink's three new points
        # the reference search asks for each point alone, as it takes it
        nelder_mead = tuner._nelder_mead
        monkeypatch.setattr(tuner, "_nelder_mead", lambda ev, *args, **kwargs: nelder_mead(
            lambda x, *ahead: ev(x), *args, **kwargs))
        alone = []
        serial = tune(problem, seed=5, objectives=recorded(alone))
        assert alone == [[x.tobytes()] for x, _ in serial.trace]
        assert trace_bits(batched) == trace_bits(serial)
        assert outcome(batched) == outcome(serial)
        # the batches solved points the search never took, and the trace holds none
        taken = {x.tobytes() for x, _ in batched.trace}
        assert {p for b in asked for p in b} - taken

    def test_untaken_failing_point_neither_raises_nor_logs(self, monkeypatch, caplog):
        problem = small_problem(budget=30)
        serial = one_at_a_time(problem)
        taken = {(x[2], x[1]) for x, _ in serial.trace}
        untaken = {p for batch in batches(monkeypatch, problem) for p in batch} - taken
        assert untaken  # the batches solved points the search never took
        rejected = fail_at(monkeypatch, untaken)
        with caplog.at_level(logging.WARNING):
            batched = tune(problem, seed=0)
        assert rejected and caplog.records == []
        assert trace_bits(batched) == trace_bits(serial)

    def test_taken_failing_point_logs_once(self, monkeypatch, caplog):
        problem = small_problem(budget=30)
        taken = {(x[2], x[1]) for x, _ in one_at_a_time(problem).trace}
        # a step's second point, solved with its reflection and taken after it
        ahead = next(b[1] for b in batches(monkeypatch, problem)[1:] if b[1] in taken)
        fail_at(monkeypatch, {ahead})
        with caplog.at_level(logging.WARNING):
            batched = tune(problem, seed=0)
        messages = [r.getMessage() for r in caplog.records]
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            serial = one_at_a_time(problem)
        assert messages == [r.getMessage() for r in caplog.records]
        assert len(messages) == 1 and messages[0].startswith("objective failed at")
        assert trace_bits(batched) == trace_bits(serial)
        assert math.inf in [v for _, v in batched.trace]

    def test_failing_point_costs_only_itself(self):
        problem = small_problem()
        stamped = tuner._stamped_box(problem)
        points = [(0.02, 23.2e6, 2.67e9), (0.01, 23.0e6, 3 * 23.0e6), (0.05, 25e6, 2.69e9)]
        values = tuner._objectives(points, problem, stamped)
        assert isinstance(values[1], htm.DegenerateStimulus)
        for p, v in zip(points[::2], values[::2]):
            assert float(v).hex() == float(one_point(p, problem, stamped)).hex()


class TestProblemValidation:
    def test_degenerate_bounds(self):
        with pytest.raises(ValueError):
            small_problem(delta_bounds=(0.1, 0.1))

    def test_small_budget(self):
        with pytest.raises(ValueError):
            small_problem(budget=5)

    def test_bad_starts(self):
        with pytest.raises(ValueError):
            small_problem(starts=0)

    @pytest.mark.parametrize("bounds", [
        {"delta_bounds": (-0.01, 0.1)},
        {"delta_bounds": (0.0, 1.0)},
        {"f_mod_bounds": (0.0, 30e6)},
        {"f_op_bounds": (-1e9, 2.7e9)},
    ])
    def test_unphysical_bounds(self, bounds):
        with pytest.raises(ValueError, match="bounds must"):
            small_problem(**bounds)

    @pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf])
    def test_non_finite_il_cap(self, cap):
        with pytest.raises(ValueError, match="il_cap_db must be finite"):
            small_problem(il_cap_db=cap)


class TestTraceCsv:
    def test_format(self, tmp_path):
        problem = small_problem(starts=1, budget=12)
        _, fn = sphere_center(problem)
        result = tune(problem, seed=0, objectives=fn)
        path = tmp_path / "trace.csv"
        write_trace_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "eval_index,delta,f_mod_hz,f_op_hz,objective"
        assert len(lines) == 1 + len(result.trace)
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == result.trace[0][0][0]
