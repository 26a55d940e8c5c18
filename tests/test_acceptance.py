"""End-to-end acceptance suite.

Eight gate criteria, each printed as a single pass/fail line (run with
``pytest -s tests/test_acceptance.py`` to see them live). The heavy sweeps
run at the published budgets: Pareto Q-Learning over ten trials of 400k
steps, the weight-grid sweeps over three trials, and the Four-Room
comparison at the reduced 200k-step preset. Expect a few minutes of
wall-clock on two cores.
"""

import random

import pytest

from helpers import (
    brute_force_nondominated,
    diamond_mdp,
    enumerate_returns,
    fork_mdp,
    lattice_mdp,
    scalar_q_learning,
)
from morlbench.cli import main as cli_main
from morlbench.envs import REFERENCE_POINTS, make_env
from morlbench.moq import EpsilonSchedule, MoqConfig
from morlbench.moq import train as moq_train
from morlbench.pareto import (
    ParetoArchive,
    hypervolume,
    hypervolume_inclusion_exclusion,
    igd,
    nondominated_points,
    sparsity,
)
from morlbench.pql import PqlConfig
from morlbench.pql import train as pql_train
from morlbench.sweep import SweepConfig, run_sweep

DST_REF = REFERENCE_POINTS["dst-concave"]

TRUE_FRONT_EXTREMES = [(1.0, -1.0), (18.61, -8.64)]
NAMED_INTERIOR = [(1.96, -4.095), (13.71, -8.33), (1.62, -2.709)]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def close(point, target, tol=0.01):
    return all(abs(a - b) <= tol for a, b in zip(point, target))


def contains(front, target, tol=0.01):
    return any(close(p, target, tol) for p in front)


@pytest.fixture(scope="module")
def dst_true_front():
    return make_env("dst-concave").true_front(0.9)


@pytest.fixture(scope="module")
def pql_result():
    cfg = SweepConfig(
        env_id="dst-concave",
        algo="pql",
        gamma=0.9,
        total_timesteps=400_000,
        seeds=tuple(range(42, 52)),
        workers=2,
    )
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def linear_result():
    cfg = SweepConfig(
        env_id="dst-concave",
        algo="moq",
        scalariser="linear",
        gamma=0.9,
        total_timesteps=400_000,
        seeds=(42, 43, 44),
        workers=2,
    )
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def chebyshev_result():
    cfg = SweepConfig(
        env_id="dst-concave",
        algo="moq",
        scalariser="chebyshev",
        gamma=0.9,
        tau=4.0,
        total_timesteps=400_000,
        seeds=(42, 43, 44),
        workers=2,
    )
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def four_room_results():
    results = {}
    for scalariser in ("linear", "chebyshev"):
        cfg = SweepConfig(
            env_id="four-room",
            algo="moq",
            scalariser=scalariser,
            gamma=0.99,
            tau=6.0,
            total_timesteps=200_000,  # reduced preset of the 800k budget
            seeds=(42,),
            workers=2,
        )
        results[scalariser] = run_sweep(cfg)
    return results


def test_criterion_1_true_front_golden(dst_true_front):
    front = dst_true_front
    checks = {
        "ten points": len(front) == 10,
        "(1,-1)": contains(front.points, (1.0, -1.0)),
        "(6.78,-7.46)": contains(front.points, (6.78, -7.46)),
        "(18.61,-8.64)": contains(front.points, (18.61, -8.64)),
        "hypervolume": abs(hypervolume(front, DST_REF) - 801.842) <= 0.01,
        "sparsity": abs(sparsity(front) - 8.757) <= 0.01,
        "igd self": igd(front, front) == 0.0,
    }
    failed = [name for name, ok in checks.items() if not ok]
    report(
        1,
        not failed,
        f"true front: {len(front)} points, hv={hypervolume(front, DST_REF):.3f}, "
        f"sparsity={sparsity(front):.3f}"
        + (f" (failed: {failed})" if failed else ""),
    )


def test_criterion_2_pql_converges_to_reference_front(pql_result):
    final = pql_result.mean[-1]
    hv_ok = abs(final.hypervolume - 801.82) <= 0.005 * 801.82
    card_ok = final.cardinality >= 9.0 - 1e-9
    sparsity_ok = final.sparsity <= 15.0
    igd_ok = final.igd is not None and final.igd <= 0.2
    by_60k = next(r for r in pql_result.mean if r.timestep == 60_000)
    early_ok = by_60k.hypervolume >= 0.99 * final.hypervolume
    ok = hv_ok and card_ok and sparsity_ok and igd_ok and early_ok
    report(
        2,
        ok,
        f"pql over {len(pql_result.runs)} seeds: hv={final.hypervolume:.2f} "
        f"(target 801.82 +-0.5%), card={final.cardinality:.1f} (>=9), "
        f"sparsity={final.sparsity:.2f} (<=15), igd={final.igd:.3f} (<=0.2), "
        f"hv@60k/final={by_60k.hypervolume / final.hypervolume:.4f} (>=0.99)",
    )


def test_criterion_3_linear_finds_only_extremes(linear_result, dst_true_front):
    interior = [p for p in dst_true_front.points
                if not any(close(p, e) for e in TRUE_FRONT_EXTREMES)]
    per_seed_ok = []
    for run in linear_result.runs:
        front = run.final_front.points
        has_extremes = all(contains(front, e) for e in TRUE_FRONT_EXTREMES)
        no_interior = not any(contains(front, p) for p in interior)
        per_seed_ok.append(has_extremes and len(front) <= 3 and no_interior)
    final = linear_result.mean[-1]
    hv_ok = abs(final.hypervolume - 777.66) <= 0.02 * 777.66
    ok = all(per_seed_ok) and hv_ok
    report(
        3,
        ok,
        f"linear over {len(per_seed_ok)} seeds: per-seed extremes-only "
        f"{per_seed_ok}, mean hv={final.hypervolume:.2f} (target 777.66 +-2%), "
        f"mean card={final.cardinality:.2f}",
    )


def test_criterion_4_chebyshev_recovers_interior_points(chebyshev_result):
    qualifying = 0
    details = []
    for run in chebyshev_result.runs:
        front = run.final_front.points
        named = [t for t in NAMED_INTERIOR if contains(front, t)]
        good = len(front) >= 3 and bool(named)
        qualifying += good
        details.append(f"seed {run.seed}: card={len(front)} named={named}")
    final = chebyshev_result.mean[-1]
    hv_ok = abs(final.hypervolume - 779.281) <= 0.02 * 779.281
    majority = qualifying > len(chebyshev_result.runs) / 2
    ok = majority and hv_ok
    report(
        4,
        ok,
        f"chebyshev: {qualifying}/{len(chebyshev_result.runs)} seeds with card>=3 "
        f"and a named interior point; mean hv={final.hypervolume:.2f} "
        f"(target 779.281 +-2%); {'; '.join(details)}",
    )


def test_criterion_5_snapshot_pooling_loses_solutions(linear_result):
    losses = []
    for run in linear_result.runs:
        fronts = [front.points for _, front in run.archives]
        for k, (earlier, later) in enumerate(zip(fronts, fronts[1:])):
            for point in earlier:
                if point not in later:
                    losses.append((run.seed, run.archives[k][0], point))
    report(
        5,
        bool(losses),
        f"non-retention events: {len(losses)} (first: seed {losses[0][0]} "
        f"t={losses[0][1]} lost {tuple(round(x, 3) for x in losses[0][2])})"
        if losses
        else "no solution was ever lost between consecutive iterations",
    )


def test_criterion_6_four_room_directional_properties(four_room_results):
    linear = four_room_results["linear"]
    chebyshev = four_room_results["chebyshev"]
    lin_hv = linear.mean[-1].hypervolume
    che_hv = chebyshev.mean[-1].hypervolume
    direction_ok = lin_hv > che_hv
    fronts_differ = {run.seed: run.final_front for run in linear.runs} != {
        run.seed: run.final_front for run in chebyshev.runs
    }
    distinct_lin = len(set(linear.runs[0].final_returns))
    distinct_che = len(set(chebyshev.runs[0].final_returns))
    fewer_than_configs = distinct_lin < linear.n_configs and distinct_che < chebyshev.n_configs
    ok = direction_ok and fronts_differ and fewer_than_configs
    report(
        6,
        ok,
        f"four-room at 200k: linear hv={lin_hv:.2f} > chebyshev hv={che_hv:.2f}: "
        f"{direction_ok}; fronts differ: {fronts_differ}; distinct solutions "
        f"{distinct_lin}/{distinct_che} of {linear.n_configs} configs",
    )


def test_criterion_7a_nd_filter_vs_brute_force():
    rng = random.Random(2024)
    for i in range(1000):
        m = 2 if i % 2 == 0 else 3
        size = rng.randint(0, 40)
        pts = [tuple(float(rng.randint(0, 10)) for _ in range(m)) for _ in range(size)]
        assert nondominated_points(pts) == brute_force_nondominated(pts)
    report(7, True, "7a: non-dominated filter matches brute force on 1000 instances")


def test_criterion_7b_sweep_vs_inclusion_exclusion():
    rng = random.Random(2025)
    count = 0
    for size in range(1, 13):
        for _ in range(40):
            pts = [(float(rng.randint(0, 15)), float(rng.randint(0, 15))) for _ in range(size)]
            front = ParetoArchive(pts)
            a = hypervolume(front, (0.0, 0.0))
            b = hypervolume_inclusion_exclusion(front, (0.0, 0.0))
            assert a == pytest.approx(b, abs=1e-9)
            count += 1
    report(7, True, f"7b: 2-D sweep equals inclusion-exclusion on {count} fronts up to 12 points")


def test_criterion_7c_pql_matches_path_enumeration():
    explore = EpsilonSchedule(1.0, 1.0, 1.0)
    cases = [(fork_mdp(), 3_000), (diamond_mdp(), 10_000), (lattice_mdp(), 30_000)]
    for mdp, steps in cases:
        cfg = PqlConfig(gamma=0.9, total_timesteps=steps, set_eval="pareto", schedule=explore)
        agent, _ = pql_train(mdp, cfg, seed=1)
        learned = list(agent.front(mdp.start_state).points)
        expected = brute_force_nondominated(enumerate_returns(mdp, 0.9))
        assert learned == expected, mdp.name
    report(7, True, "7c: converged fronts equal exhaustive path enumeration on 3 MDPs")


def test_criterion_7d_single_objective_reduction():
    from helpers import TabularMdp

    table = {
        (0, 0): (1, (1.0,), False),
        (0, 1): (2, (0.0,), False),
        (1, 0): (None, (2.0,), True),
        (1, 1): (None, (0.5,), True),
        (2, 0): (None, (5.0,), True),
        (2, 1): (None, (1.0,), True),
    }
    schedule = EpsilonSchedule(1.0, 0.1, 1.0)
    env = TabularMdp(table, start=0, num_objectives=1, action_count=2)
    cfg = MoqConfig(weights=(1.0,), alpha=0.1, gamma=0.9, total_timesteps=20_000, schedule=schedule)
    agent, _ = moq_train(env.fork(), cfg, seed=11, eval_interval=None)
    oracle = scalar_q_learning(env.fork(), 0.1, 0.9, 20_000, schedule, seed=11)
    worst = max(
        abs(agent.qtable.row(s)[a][0] - v)
        for s, values in oracle.items()
        for a, v in enumerate(values)
    )
    report(7, worst == 0.0, f"7d: max |Q_moq - Q_scalar| = {worst}")


def test_criterion_8_byte_identical_aggregates(tmp_path):
    args = [
        "sweep", "--env", "dst-concave", "--algo", "moq", "--scalariser", "linear",
        "--weight-step", "0.5", "--steps", "5000", "--seeds", "42,43",
        "--workers", "2", "--name", "determinism",
    ]
    assert cli_main(args + ["--out", str(tmp_path / "first")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "second")]) == 0
    first = (tmp_path / "first" / "determinism" / "aggregate" / "metrics.csv").read_bytes()
    second = (tmp_path / "second" / "determinism" / "aggregate" / "metrics.csv").read_bytes()
    report(
        8,
        first == second,
        f"aggregate CSVs byte-identical across two executions ({len(first)} bytes)",
    )
