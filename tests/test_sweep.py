import itertools
import json
import math
import random
from dataclasses import replace

import pytest

from helpers import TabularMdp, brute_force_nondominated
from morlbench import moq, pql
from morlbench.envs import ENV_IDS, ENV_PRESETS, make_env
from morlbench.pql import CapacityError
from morlbench.results import write_sweep
from morlbench.sweep import (
    ALGOS,
    MetricRecord,
    SweepConfig,
    aggregate_seeds,
    evaluate_policy,
    run_sweep,
    weight_grid,
)


class TestWeightGrid:
    def test_two_objectives_eleven_configs(self):
        grid = weight_grid(2, 0.1)
        assert len(grid) == 11
        assert (0.0, 1.0) in grid and (1.0, 0.0) in grid

    def test_single_objective(self):
        assert weight_grid(1, 0.1) == [(1.0,)]

    def test_three_objectives_full_simplex(self):
        grid = weight_grid(3, 0.1)
        assert len(grid) == 66
        # exhaustive integer-composition oracle
        combos = [
            (i / 10, j / 10, (10 - i - j) / 10)
            for i, j in itertools.product(range(11), repeat=2)
            if i + j <= 10
        ]
        assert len(grid) == len(set(combos))

    def test_sums_to_one(self):
        for grid_m in (2, 3):
            for w in weight_grid(grid_m, 0.1):
                assert abs(sum(w) - 1.0) <= 1e-9
                assert all(x >= 0.0 for x in w)

    def test_lexicographic_and_unique(self):
        grid = weight_grid(3, 0.2)
        assert grid == sorted(set(grid))

    def test_half_step(self):
        assert weight_grid(2, 0.5) == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            weight_grid(2, 0.0)
        with pytest.raises(ValueError):
            weight_grid(2, 1.5)
        with pytest.raises(ValueError):
            weight_grid(2, 0.3)


class _FixedAction:
    def __init__(self, action=0):
        self.action = action

    def greedy(self, state, rng=None):
        return self.action


class TestEvaluatePolicy:
    def test_nearest_treasure_rollout(self):
        env = make_env("dst-concave")
        assert evaluate_policy(env, _FixedAction(1), 0.9) == (1.0, -1.0)

    def test_undiscounted_three_step_path(self):
        table = {
            (0, 0): (1, (0.0, -1.0), False),
            (1, 0): (2, (0.0, -1.0), False),
            (2, 0): (None, (5.0, -1.0), True),
        }
        env = TabularMdp(table, start=0, num_objectives=2, action_count=1)
        assert evaluate_policy(env, _FixedAction(0), 1.0) == (5.0, -3.0)

    def test_truncation_cap(self):
        env = make_env("dst-concave")
        point = evaluate_policy(env, _FixedAction(3), 0.9, max_steps=4)  # right forever
        assert point[0] == 0.0
        assert point[1] == pytest.approx(-(1 + 0.9 + 0.81 + 0.729))


class TestAggregateSeeds:
    def test_identity_for_one_seed(self):
        records = [MetricRecord(1000, 10.0, 1.0, 2.0, 0.5)]
        mean, sd = aggregate_seeds([records])
        assert mean == records
        assert sd == [MetricRecord(1000, 0.0, 0.0, 0.0, 0.0)]

    def test_mean_and_population_sd(self):
        a = [MetricRecord(1000, 10.0, 2.0, 1.0, None)]
        b = [MetricRecord(1000, 20.0, 4.0, 3.0, None)]
        mean, sd = aggregate_seeds([a, b])
        assert mean[0].hypervolume == 15.0 and sd[0].hypervolume == 5.0
        assert mean[0].igd is None and sd[0].igd is None

    def test_misaligned_timesteps_rejected(self):
        a = [MetricRecord(1000, 1.0, 0.0, 1.0, None)]
        b = [MetricRecord(2000, 1.0, 0.0, 1.0, None)]
        with pytest.raises(ValueError, match="misaligned"):
            aggregate_seeds([a, b])

    def test_length_mismatch_rejected(self):
        a = [MetricRecord(1000, 1.0, 0.0, 1.0, None)]
        with pytest.raises(ValueError):
            aggregate_seeds([a, a + a])


BAD_REF = "ref_point needs 2 finite values"


def _tiny_cfg(**over):
    base = dict(
        env_id="dst-concave",
        algo="moq",
        scalariser="linear",
        weight_step=0.5,
        total_timesteps=3_000,
        seeds=(1, 2),
        workers=1,
    )
    base.update(over)
    return SweepConfig(**base)


class TestRunSweep:
    def test_moq_structure(self):
        result = run_sweep(_tiny_cfg())
        assert result.n_configs == 3
        assert result.config.algorithm_label == "moq-linear"
        assert [run.seed for run in result.runs] == [1, 2]
        run = result.runs[0]
        assert [t for t, _ in run.archives] == [1000, 2000, 3000]
        assert len(run.final_returns) == 3
        assert len(result.mean) == 3
        for record in run.records:
            assert record.igd is not None  # DST has a known front

    def test_archives_are_nondominated(self):
        result = run_sweep(_tiny_cfg())
        for run in result.runs:
            for _, front in run.archives:
                assert list(front.points) == brute_force_nondominated(front.points)

    def test_pooled_hv_at_least_each_config(self):
        result = run_sweep(_tiny_cfg(seeds=(3,)))
        # cardinality never exceeds the number of configurations
        for run in result.runs:
            for record in run.records:
                assert record.cardinality <= result.n_configs

    def test_deterministic_rerun(self):
        a = run_sweep(_tiny_cfg())
        b = run_sweep(_tiny_cfg())
        assert a.mean == b.mean and a.sd == b.sd
        for run_a, run_b in zip(a.runs, b.runs):
            assert run_a.records == run_b.records
            assert [f.points for _, f in run_a.archives] == [f.points for _, f in run_b.archives]

    def test_workers_do_not_change_results(self):
        a = run_sweep(_tiny_cfg())
        b = run_sweep(_tiny_cfg(workers=2))
        assert a.mean == b.mean
        assert [r.records for r in a.runs] == [r.records for r in b.runs]

    def test_archive_mode_is_cumulative(self):
        snap = run_sweep(_tiny_cfg(seeds=(5,)))
        cumu = run_sweep(_tiny_cfg(seeds=(5,), archive=True))
        for rec_s, rec_c in zip(snap.runs[0].records, cumu.runs[0].records):
            assert rec_c.hypervolume >= rec_s.hypervolume - 1e-12
        # cumulative hypervolume never decreases over time
        hv = [r.hypervolume for r in cumu.runs[0].records]
        assert all(b >= a - 1e-12 for a, b in zip(hv, hv[1:]))

    def test_pql_sweep_on_dst(self):
        cfg = SweepConfig(
            env_id="dst-concave", algo="pql", total_timesteps=5_000, seeds=(4,), workers=1
        )
        result = run_sweep(cfg)
        assert result.config.algorithm_label == "pql"
        assert result.n_configs == 1
        assert result.runs[0].records[-1].hypervolume > 0.0

    def test_pql_four_room_refused_before_training(self):
        cfg = SweepConfig(env_id="four-room", algo="pql", total_timesteps=1_000, gamma=0.99)
        with pytest.raises(CapacityError):
            run_sweep(cfg)

    def test_max_configs_truncates(self):
        result = run_sweep(_tiny_cfg(max_configs=2, seeds=(1,)))
        assert result.n_configs == 2

    def test_igd_absent_without_truth(self):
        cfg = SweepConfig(
            env_id="four-room",
            algo="moq",
            scalariser="linear",
            fixed_weights=((1.0, 0.0, 0.0),),
            gamma=0.99,
            total_timesteps=2_000,
            seeds=(1,),
        )
        result = run_sweep(cfg)
        assert all(r.igd is None for r in result.mean)

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(env_id="dst-concave", algo="dqn")
        with pytest.raises(ValueError):
            SweepConfig(env_id="dst-concave", seeds=())
        with pytest.raises(ValueError):
            SweepConfig(env_id="dst-concave", eval_interval=0)
        with pytest.raises(ValueError):
            SweepConfig(env_id="dst-concave", seeds=(1, -1))
        for seeds in [(None,), (1.0,), ("42",), (True,)]:
            with pytest.raises(TypeError, match="seeds must be ints"):
                SweepConfig(env_id="dst-concave", seeds=seeds)
        for seeds, named in [((42, 42), "42"), ((1, 2, 3, 2), "2"), ((5, 6, 5, 6), "5, 6")]:
            with pytest.raises(ValueError, match=f"seeds must be distinct, got {named} more than once"):
                SweepConfig(env_id="dst-concave", seeds=seeds)

    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize(
        "settings, match",
        [
            pytest.param({"tau": math.nan}, "tau must be >= 0 and finite, got nan", id="tau-nan"),
            pytest.param({"tau": -1.0}, "tau must be >= 0 and finite, got -1.0", id="tau-negative"),
            pytest.param({"tau": math.inf}, "tau must be >= 0 and finite, got inf", id="tau-inf"),
            pytest.param({"alpha": math.nan}, r"alpha must be in \(0, 1\], got nan", id="alpha-nan"),
            pytest.param({"alpha": 0.0}, r"alpha must be in \(0, 1\], got 0.0", id="alpha-zero"),
            pytest.param({"alpha": 1.5}, r"alpha must be in \(0, 1\], got 1.5", id="alpha-above-one"),
            pytest.param({"weight_step": math.nan}, r"weight_step must be in \(0, 1\], got nan", id="step-nan"),
            pytest.param({"weight_step": 0.0}, r"weight_step must be in \(0, 1\], got 0.0", id="step-zero"),
        ],
    )
    def test_agent_settings_checked_for_every_algorithm(self, algo, settings, match):
        with pytest.raises(ValueError, match=match):
            SweepConfig(env_id="dst-concave", algo=algo, **settings)

    def test_pql_manifest_is_strict_json(self, tmp_path):
        def refuse(constant):
            raise ValueError(f"manifest holds {constant}")

        cfg = dict(env_id="dst-concave", algo="pql", total_timesteps=200, eval_interval=100)
        with pytest.raises(ValueError, match="tau"):
            write_sweep(run_sweep(SweepConfig(**cfg, tau=math.nan)), tmp_path)
        assert not any(tmp_path.iterdir())
        run_dir = write_sweep(run_sweep(SweepConfig(**cfg, tau=0.5)), tmp_path)
        manifest = json.loads((run_dir / "manifest.json").read_text("utf-8"), parse_constant=refuse)
        assert manifest["config"]["tau"] == 0.5

    def test_single_run_config(self):
        cfg = replace(_tiny_cfg(), fixed_weights=((1.0, 0.0),), seeds=(42,), workers=1)
        result = run_sweep(cfg)
        assert result.n_configs == 1
        assert [run.seed for run in result.runs] == [42]

    @pytest.mark.parametrize(
        "settings, match",
        [
            pytest.param({"ref_point": (0.0, -50.0, 0.0)}, BAD_REF, id="ref_point0-moq"),
            pytest.param({"ref_point": (0.0,)}, BAD_REF, id="ref_point1-moq"),
            pytest.param({"ref_point": (0.0, math.nan)}, BAD_REF, id="ref_point2-moq"),
            pytest.param({"ref_point": (math.inf, -50.0)}, BAD_REF, id="ref_point3-moq"),
            pytest.param({"ref_point": (0.0, -50.0, 0.0), "algo": "pql"}, BAD_REF, id="ref_point4-pql"),
            # agent settings are checked before any work item, even on a pool
            pytest.param({"alpha": 0.0, "workers": 2}, r"alpha must be in \(0, 1\]", id="alpha-workers2"),
            pytest.param({"eps_final": 2.0, "workers": 2}, "need 0 <= eps_final", id="eps_final-workers2"),
            pytest.param({"tau": -1.0, "workers": 2}, "tau must be >= 0", id="tau-workers2"),
            pytest.param(
                {"fixed_weights": ((0.2, 0.3, 0.5),), "workers": 2}, "expected 2 weights, got 3",
                id="weights-workers2",
            ),
        ],
    )
    def test_bad_ref_point_rejected_before_training(self, monkeypatch, settings, match):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(moq, "train", no_training)
        monkeypatch.setattr(pql, "train", no_training)
        with pytest.raises(ValueError, match=match) as info:
            run_sweep(_tiny_cfg(**settings))
        assert not hasattr(info.value, "__notes__")


class TestPresets:
    def test_every_environment_has_presets(self):
        assert sorted(ENV_PRESETS) == sorted(ENV_IDS)

    @pytest.mark.parametrize("env_id", ENV_IDS)
    def test_unset_settings_take_the_presets(self, env_id):
        cfg = SweepConfig(env_id=env_id)
        assert {key: getattr(cfg, key) for key in ENV_PRESETS[env_id]} == ENV_PRESETS[env_id]

    def test_four_room_values(self):
        cfg = SweepConfig(env_id="four-room")
        assert (cfg.gamma, cfg.tau, cfg.total_timesteps) == (0.99, 6.0, 800_000)

    @pytest.mark.parametrize("env_id", ENV_IDS)
    def test_explicit_values_win(self, env_id):
        cfg = SweepConfig(env_id=env_id, gamma=0.5, tau=0.0, total_timesteps=0)
        assert (cfg.gamma, cfg.tau, cfg.total_timesteps) == (0.5, 0.0, 0)
        cfg = SweepConfig(env_id=env_id, tau=1.5)
        assert (cfg.gamma, cfg.tau) == (ENV_PRESETS[env_id]["gamma"], 1.5)

    def test_unknown_environment_rejected(self):
        with pytest.raises(ValueError, match="unknown environment 'bogus'"):
            SweepConfig(env_id="bogus")


class TestFailingWorkItem:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_note_names_the_item(self, monkeypatch, workers):
        def broken(env, config, seed, eval_interval):
            if config.weights == (0.5, 0.5):
                raise RuntimeError("diverged")
            return None, []

        monkeypatch.setattr(moq, "train", broken)
        with pytest.raises(RuntimeError, match="diverged") as info:
            run_sweep(_tiny_cfg(seeds=(2,), workers=workers))
        assert info.value.__notes__ == ["in work item moq-linear weights=(0.5, 0.5) seed=2"]


class TestSubstreamIndependence:
    def test_configs_get_distinct_streams(self):
        # same trial seed, different configuration indices: different rollouts
        result = run_sweep(_tiny_cfg(seeds=(7,), total_timesteps=2_000))
        finals = result.runs[0].final_returns
        assert len(finals) == 3
        # corner weight (0,1) must at least find the nearest treasure
        assert finals[0] == (1.0, -1.0) or finals[0][1] <= -1.0


def test_non_retention_is_observable_in_snapshots():
    # mid-training fluctuation: some point present at iteration k vanishes
    # at k+1 under snapshot pooling
    cfg = SweepConfig(
        env_id="dst-concave",
        algo="moq",
        scalariser="linear",
        weight_step=0.5,
        total_timesteps=60_000,
        seeds=(42,),
        workers=2,
    )
    result = run_sweep(cfg)
    archives = [front.points for _, front in result.runs[0].archives]
    lost = [
        point
        for earlier, later in zip(archives, archives[1:])
        for point in earlier
        if point not in later
    ]
    assert lost, "expected at least one solution to vanish between iterations"
