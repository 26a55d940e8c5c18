import itertools
import math
import random
from dataclasses import replace

import pytest

from helpers import TabularMdp, brute_force_nondominated
from morlbench import moq, pql
from morlbench.envs import make_env
from morlbench.pql import CapacityError
from morlbench.sweep import (
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
        assert result.algorithm == "moq-linear"
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
        assert result.algorithm == "pql"
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

    def test_single_run_config(self):
        cfg = replace(_tiny_cfg(), fixed_weights=((1.0, 0.0),), seeds=(42,), workers=1)
        result = run_sweep(cfg)
        assert result.n_configs == 1
        assert [run.seed for run in result.runs] == [42]

    @pytest.mark.parametrize(
        "ref_point, algo",
        [((0.0, -50.0, 0.0), "moq"), ((0.0,), "moq"), ((0.0, math.nan), "moq"),
         ((math.inf, -50.0), "moq"), ((0.0, -50.0, 0.0), "pql")],
    )
    def test_bad_ref_point_rejected_before_training(self, monkeypatch, ref_point, algo):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(moq, "train", no_training)
        monkeypatch.setattr(pql, "train", no_training)
        with pytest.raises(ValueError, match="ref_point needs 2 finite values"):
            run_sweep(_tiny_cfg(ref_point=ref_point, algo=algo))


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
