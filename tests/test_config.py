import re
from pathlib import Path

import numpy as np
import pytest

from fbarcirc import config
from fbarcirc.config import (MAX_SWEEP_SIZE, SCHEMA, ConfigError, _parse, parse_config,
                             serialize_config)
from fbarcirc.metrics import Direction
from fbarcirc.netlist import PhaseSequence, Topology

from conftest import GHZ_SPECS


class TestParse:
    def test_defaults(self):
        cfg = parse_config("")
        design = cfg.design()
        assert design.topology is Topology.DIFFERENTIAL
        assert design.resonator.f_s == 2.65e9
        assert design.resonator.q == 700.0
        assert design.z0 == 50.0
        assert cfg.get_int("basis.n_harm") == 5

    def test_overrides_and_comments(self):
        cfg = parse_config("""
# a comment
design.topology = single_ended   # trailing comment
design.q = 350
design.phase_sequence = reverse
sweep.points = 11
""")
        design = cfg.design()
        assert design.topology is Topology.SINGLE_ENDED
        assert design.resonator.q == 350.0
        assert design.phase_sequence is PhaseSequence.REVERSE
        assert cfg.get_int("sweep.points") == 11

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("design.quality = 700\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

    def test_type_error_carries_key_path(self):
        with pytest.raises(ConfigError, match="sweep.points"):
            parse_config("sweep.points = eleven\n")

    def test_bad_topology_value(self):
        with pytest.raises(ConfigError, match="design.topology"):
            parse_config("design.topology = circular\n")

    def test_design_invariants_reported(self):
        with pytest.raises(ConfigError, match="design"):
            parse_config("design.k_sq = 1.5\n")

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "x"])
    def test_bw_threshold_checked_at_load(self, value):
        with pytest.raises(ConfigError, match="metrics.bw_threshold_db"):
            parse_config(f"metrics.bw_threshold_db = {value}\n")
        assert parse_config("metrics.bw_threshold_db = 3\n").get_float(
            "metrics.bw_threshold_db") == 3.0

    def test_bool_parsing(self):
        assert parse_config("design.c0_to_ground = false\n").get_bool("design.c0_to_ground") is False
        with pytest.raises(ConfigError):
            parse_config("design.c0_to_ground = maybe\n")


class TestSweep:
    def test_linspace(self):
        cfg = parse_config("sweep.f_start = 1e9\nsweep.f_stop = 2e9\nsweep.points = 5\n")
        assert np.array_equal(cfg.sweep_frequencies(), np.linspace(1e9, 2e9, 5))

    def test_include_unioned(self):
        cfg = parse_config("sweep.f_start = 1e9\nsweep.f_stop = 2e9\nsweep.points = 3\n"
                           "sweep.include = 1.25e9, 1.5e9\n")
        grid = cfg.sweep_frequencies()
        assert 1.25e9 in grid and 1.5e9 in grid
        assert grid.size == 4  # 1.5e9 collides with a linspace point

    @pytest.mark.parametrize("include", [
        "1.5e9",  # on the grid
        "1.3e9, 2.5e9, 1e8",  # off it, unsorted, outside the span
        "1.3e9, 1.3e9, 1.5e9, 1.5e9",  # repeated, on and off the grid
        "1.3e9, 1e9, 2e9, 1.3000000000000002e9",  # the grid's ends, a last-bit neighbour
    ], ids=["on-grid", "off-grid", "repeated", "ends"])
    def test_include_has_the_values_of_union1d(self, include):
        cfg = parse_config("sweep.f_start = 1e9\nsweep.f_stop = 2e9\nsweep.points = 7\n"
                           f"sweep.include = {include}\n")
        grid = np.linspace(1e9, 2e9, 7)
        extra = [float(v) for v in include.split(",")]
        got = cfg.sweep_frequencies()
        assert got.dtype == np.float64 and np.array_equal(got, np.union1d(grid, extra))

    def test_order_validated(self):
        with pytest.raises(ConfigError, match="f_start"):
            parse_config("sweep.f_start = 2e9\nsweep.f_stop = 1e9\n")

    def test_points_validated(self):
        with pytest.raises(ConfigError, match="points"):
            parse_config("sweep.points = 1\n")


class TestCrossKeyFacts:
    @pytest.mark.parametrize("text, named", [
        ("metrics.isolated_port = 1\n", "must differ"),
        ("outputs.harmonics = run.log\n", "outputs.harmonics, outputs.metrics: must differ"),
        ("outputs.metrics = a/b.json\n", "outputs.metrics"),
        ("tuner.metrics_span = 3e9\n", "tuner.metrics_span"),
        ("tuner.metrics_span = 1e-300\n", "tuner.metrics_span"),
        ("tuner.f_mod_window = 1e-300\n", "tuner.f_mod_window"),
        ("design.f_mod = 1e-300\n", "design.f_mod"),
        ("design.f_s = 1e300\n", "design.f_s"),
        ("verify.q = 1e-310\n", "verify.q"),
        ("verify.scale = 1e300\n", "verify.scale"),
    ])
    def test_rejected_at_load(self, text, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            parse_config(text)

    # Only parse_config sees these sizes: a workflow would allocate them.
    @pytest.mark.parametrize("text", [
        "sweep.points = 1e9\n",
        "basis.n_harm = 100000\n",
        "sweep.points = 21846\nbasis.n_harm = 1\n",
        "sweep.points = 21844\nbasis.n_harm = 1\nsweep.include = 1e9, 2e9, 3e9\n",
        "tuner.metrics_points = 21845\nbasis.n_harm = 1\nsweep.points = 2\n",
    ])
    def test_sweep_size_bounded(self, text):
        with pytest.raises(ConfigError, match="exceed MAX_SWEEP_SIZE"):
            parse_config(text)

    def test_sweep_size_at_the_bound_accepted(self):
        # 21845 points x 3 harmonics = 65535, one below MAX_SWEEP_SIZE
        assert MAX_SWEEP_SIZE == 65536
        cfg = parse_config("sweep.points = 21845\ntuner.metrics_points = 21844\n"
                           "basis.n_harm = 1\n")
        assert cfg.get_int("sweep.points") == 21845

    def test_a_load_builds_the_verify_netlists_once(self, monkeypatch):
        # the float-range check of the verify replicas is the grid check's build
        scaled = []
        scale = config.scale_frequency

        def counted(net, factor):
            scaled.append(factor)
            return scale(net, factor)

        monkeypatch.setattr(config, "scale_frequency", counted)
        parse_config("")
        assert len(scaled) == 3
        with pytest.raises(ConfigError) as info:
            parse_config("verify.q = 1e-310\n")
        assert str(info.value).startswith("verify.q, verify.scale: element values leave "
                                          "float range (")


TUNE_TEXT = ("design.delta = 0.01\ntuner.budget = 10\ntuner.starts = 1\n"
             "tuner.metrics_points = 5\ntuner.metrics_span = 2e6\n")


class TestTuneProblem:
    def test_default_search_box(self):
        cfg = parse_config("design.delta = 0.01\nmetrics.in_port = 2\n"
                           "metrics.through_port = 3\nmetrics.isolated_port = 1\n")
        direction = Direction(in_port=2, through_port=3, isolated_port=1)
        problem = cfg.tune_problem()
        assert problem.direction == direction
        assert problem.il_cap_db == 2.85
        assert problem.delta_bounds == (0.0, 0.1)
        assert problem.f_mod_bounds == pytest.approx((0.6 * 23.2e6, 1.4 * 23.2e6), rel=1e-15)
        assert problem.f_op_bounds == pytest.approx((0.98 * GHZ_SPECS.f_s, 1.02 * GHZ_SPECS.f_s),
                                                    rel=1e-15)

    # Each grid fits at design.f_mod, so the config loads, but not at an end
    # of the stock 40% box, which tune checks before its search.
    @pytest.mark.parametrize("text, end, bound", [
        ("verify.mod_periods = 600\n", 0, "exceed MAX_SAMPLES"),
        ("verify.pts_per_cycle = 8000\n", 0, "exceed MAX_PERIOD_STEPS"),
        ("design.f_mod = 2e11\nverify.pts_per_cycle = 50\n", 1, "fewer than one"),
    ], ids=["samples-at-low-end", "period-steps-at-low-end", "no-step-at-high-end"])
    def test_verify_grids_checked_at_any_f_mod(self, text, end, bound):
        cfg = parse_config(TUNE_TEXT + text)
        f_mod = cfg.tune_problem().f_mod_bounds[end]
        with pytest.raises(ConfigError) as info:
            cfg.check_verify_grids(f_mod)
        message = str(info.value)
        assert message.startswith(f"verify.pts_per_cycle, verify.mod_periods: single-branch "
                                  f"case at f_mod = {f_mod} Hz (RunTooLarge: ")
        assert bound in message

def test_readme_table_lists_every_key_with_default_and_range():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = {line.split("|")[1].strip(): line for line in text.splitlines()
            if line.startswith("| ")}
    for key, spec in SCHEMA.items():
        section, name = key.split(".")
        found = re.search(rf"`{name}` = ([^\s;]*)", rows[section])
        assert found, key
        assert _parse(key, spec, found.group(1).strip('"')) == _parse(key, spec, spec.default), key
        if spec.kind in (float, int, list):
            assert f"`{name}` = {found.group(1)} in {spec.interval}" in rows[section], key
    assert f"`MAX_SWEEP_SIZE` = {MAX_SWEEP_SIZE}" in text


class TestSerialize:
    def test_round_trip_lossless(self):
        text = ("design.delta = 0.028645925342861006\n"
                "design.f_mod = 31479745.75625309\n"
                "sweep.include = 2676659341.9773417\n")
        cfg = parse_config(text)
        reparsed = parse_config(serialize_config(cfg))
        assert reparsed.design() == cfg.design()
        assert np.array_equal(reparsed.sweep_frequencies(), cfg.sweep_frequencies())
        # serialization is canonical: a second pass is byte-identical
        assert serialize_config(reparsed) == serialize_config(cfg)

    def test_tuned_fixture_is_in_canonical_form(self):
        # the fixture is the tuned_config.cfg that tune writes through
        # serialize_config, so it holds every key, defaults included
        text = (Path(__file__).resolve().parent.parent / "configs"
                / "differential_tuned.cfg").read_text()
        assert serialize_config(parse_config(text)) == text

    def test_basis_f_mod_follows_design(self):
        cfg = parse_config("design.f_mod = 3.1e7\n")
        assert cfg.basis_f_mod() == 3.1e7
        with pytest.raises(ConfigError, match="unknown key 'basis.f_mod'"):
            parse_config("design.f_mod = 3.1e7\nbasis.f_mod = 2.9e7\n")
