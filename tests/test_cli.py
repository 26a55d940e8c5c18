import json
from pathlib import Path

import pytest

from morlbench import moq
from morlbench.cli import main
from morlbench.envs import make_env
from morlbench.pareto import ParetoArchive, load_points, save_points
from morlbench.results import read_metrics_csv


def run_cli(*args):
    return main(list(args))


@pytest.fixture
def out_dir(tmp_path):
    return tmp_path / "runs"


def _train_args(out_dir, *extra):
    return (
        "train", "--env", "dst-concave", "--algo", "pql", "--steps", "2000",
        "--seed", "42", "--out", str(out_dir), "--name", "smoke", *extra,
    )


class TestTrain:
    def test_happy_path_writes_artifacts(self, out_dir, capsys):
        assert run_cli(*_train_args(out_dir)) == 0
        run = out_dir / "smoke"
        assert (run / "manifest.json").is_file()
        assert (run / "seed_42" / "metrics.csv").is_file()
        fronts = list((run / "seed_42" / "fronts").glob("*.points"))
        assert len(fronts) == 2
        assert "hypervolume" in capsys.readouterr().out

    def test_moq_needs_weights(self, out_dir, capsys):
        code = run_cli(
            "train", "--env", "dst-concave", "--algo", "moq", "--steps", "1000",
            "--out", str(out_dir),
        )
        assert code == 2
        assert "weights" in capsys.readouterr().err

    @pytest.mark.parametrize("weights", ["nan,1", "inf,0", "0.5,-inf"])
    def test_non_finite_weights_rejected(self, out_dir, capsys, weights):
        code = run_cli(
            "train", "--env", "dst-concave", "--algo", "moq", "--weights", weights,
            "--steps", "1000", "--out", str(out_dir),
        )
        assert code == 2
        assert f"expected finite numbers, got {weights!r}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_moq_with_weights(self, out_dir):
        code = run_cli(
            "train", "--env", "dst-concave", "--algo", "moq", "--weights", "0,1",
            "--steps", "2000", "--seed", "1", "--out", str(out_dir), "--name", "m",
        )
        assert code == 0
        rows = read_metrics_csv(out_dir / "m" / "seed_1" / "metrics.csv")
        assert [r["timestep"] for r in rows] == [1000, 2000]
        assert rows[0]["algorithm"] == "moq-linear"

    def test_pql_four_room_refused_with_diagnostic(self, out_dir, capsys):
        code = run_cli(
            "train", "--env", "four-room", "--algo", "pql", "--steps", "1000",
            "--out", str(out_dir),
        )
        assert code == 2
        assert "does not scale" in capsys.readouterr().err

    def test_missing_env_is_usage_error(self, capsys):
        assert run_cli("train", "--algo", "pql") == 2
        assert "--env" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert run_cli() == 2

    def test_unknown_env_rejected_by_parser(self, capsys):
        assert run_cli("train", "--env", "dst-mirrored") == 2

    def test_config_file(self, out_dir, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[env]\nid = dst-concave\n\n"
            "[agent]\nalgo = pql\ntotal_timesteps = 1000  # short smoke\nseed = 7\n\n"
            "[sweep]\nname = from-config\n",
            "utf-8",
        )
        assert run_cli("train", "--config", str(cfg), "--out", str(out_dir)) == 0
        manifest = json.loads((out_dir / "from-config" / "manifest.json").read_text("utf-8"))
        assert manifest["config"]["total_timesteps"] == 1000
        assert manifest["seeds"] == [7]

    def test_flags_override_config_file(self, out_dir, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[env]\nid = dst-concave\n[agent]\nalgo = pql\ntotal_timesteps = 9999\n", "utf-8")
        assert run_cli(
            "train", "--config", str(cfg), "--steps", "1000", "--name", "o",
            "--out", str(out_dir),
        ) == 0
        manifest = json.loads((out_dir / "o" / "manifest.json").read_text("utf-8"))
        assert manifest["config"]["total_timesteps"] == 1000


class TestSweep:
    def test_three_configs_at_half_step(self, out_dir):
        code = run_cli(
            "sweep", "--env", "dst-concave", "--algo", "moq", "--scalariser", "linear",
            "--weight-step", "0.5", "--steps", "2000", "--seeds", "1,2",
            "--out", str(out_dir), "--name", "s",
        )
        assert code == 0
        manifest = json.loads((out_dir / "s" / "manifest.json").read_text("utf-8"))
        assert manifest["n_configs"] == 3
        assert manifest["seeds"] == [1, 2]
        agg = read_metrics_csv(out_dir / "s" / "aggregate" / "metrics.csv")
        assert {r["seed"] for r in agg} == {"mean", "sd"}

    def test_seed_range_syntax(self, out_dir):
        code = run_cli(
            "sweep", "--env", "dst-concave", "--algo", "pql", "--steps", "1000",
            "--seeds", "42..44", "--out", str(out_dir), "--name", "r",
        )
        assert code == 0
        manifest = json.loads((out_dir / "r" / "manifest.json").read_text("utf-8"))
        assert manifest["seeds"] == [42, 43, 44]

    @pytest.mark.parametrize("seeds", ["42,51..42", "5,3..1"])
    def test_reversed_seed_range_rejected(self, out_dir, capsys, seeds):
        code = run_cli(
            "sweep", "--env", "dst-concave", "--algo", "pql", "--steps", "1000",
            "--seeds", seeds, "--out", str(out_dir),
        )
        assert code == 2
        assert repr(seeds.split(",")[1]) in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("seeds", ["42..", "1..2..3", "a"])
    def test_malformed_seeds_named(self, out_dir, capsys, seeds):
        code = run_cli(
            "sweep", "--env", "dst-concave", "--algo", "pql", "--steps", "1000",
            "--seeds", seeds, "--out", str(out_dir),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--seeds" in err and repr(seeds) in err
        assert "invalid literal" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "option, key",
        [
            ("--max-configs=0", "max_configs"),
            ("--max-configs=-1", "max_configs"),
            ("--max-episode-steps=0", "max_episode_steps"),
            ("--max-episode-steps=-3", "max_episode_steps"),
        ],
    )
    def test_non_positive_limits_rejected(self, out_dir, capsys, option, key):
        code = run_cli(
            "sweep", "--env", "dst-concave", "--algo", "moq", "--steps", "1000",
            option, "--out", str(out_dir),
        )
        assert code == 2
        assert f"{key} must be >= 1, got {option.split('=')[1]}" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_negative_ref_point_value(self, tmp_path):
        args = (
            "sweep", "--env", "dst-concave", "--algo", "pql", "--steps", "1000",
            "--seeds", "3", "--name", "n",
        )
        assert run_cli(*args, "--ref-point", "-1,-60", "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--ref-point=-1,-60", "--out", str(tmp_path / "b")) == 0
        for rel in ("aggregate/metrics.csv", "seed_3/metrics.csv"):
            assert (tmp_path / "a" / "n" / rel).read_bytes() == (tmp_path / "b" / "n" / rel).read_bytes()
        manifest = json.loads((tmp_path / "a" / "n" / "manifest.json").read_text("utf-8"))
        assert manifest["ref_point"] == [-1.0, -60.0]

    @pytest.mark.parametrize("ref_point", ["0,-50,0", "0", "-inf,-50", "0,nan"])
    def test_bad_ref_point_rejected_before_training(self, out_dir, capsys, ref_point):
        code = run_cli(
            "sweep", "--env", "dst-concave", "--algo", "moq", "--steps", "1000",
            "--ref-point", ref_point, "--out", str(out_dir),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err
        assert not out_dir.exists()

    def test_failing_work_item_named(self, out_dir, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("diverged")

        monkeypatch.setattr(moq, "train", broken)
        code = run_cli(
            "sweep", "--env", "dst-concave", "--algo", "moq", "--scalariser", "linear",
            "--weight-step", "0.5", "--steps", "1000", "--seeds", "7", "--out", str(out_dir),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "diverged" in err and "in work item moq-linear weights=(0.0, 1.0) seed=7" in err
        assert not out_dir.exists()

    def test_byte_identical_aggregates(self, tmp_path):
        args = (
            "sweep", "--env", "dst-concave", "--algo", "moq", "--weight-step", "0.5",
            "--steps", "3000", "--seeds", "42,43", "--workers", "2", "--name", "d",
        )
        assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
        csv_a = (tmp_path / "a" / "d" / "aggregate" / "metrics.csv").read_bytes()
        csv_b = (tmp_path / "b" / "d" / "aggregate" / "metrics.csv").read_bytes()
        assert csv_a == csv_b

    def test_results_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MORL_RESULTS_DIR", str(tmp_path / "env-root"))
        assert run_cli(
            "train", "--env", "dst-concave", "--algo", "pql", "--steps", "1000",
            "--name", "e",
        ) == 0
        assert (tmp_path / "env-root" / "e" / "manifest.json").is_file()


class TestMetrics:
    def test_true_front_table_values(self, tmp_path, capsys):
        front = make_env("dst-concave").true_front(0.9)
        path = tmp_path / "true.points"
        save_points(path, front)
        assert run_cli("metrics", str(path), "--truth", str(path), "--ref", "0,-50") == 0
        out = dict(
            line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(out["hypervolume"]) == pytest.approx(801.842, abs=0.01)
        assert int(out["cardinality"]) == 10
        assert float(out["sparsity"]) == pytest.approx(8.757, abs=0.01)
        assert float(out["igd"]) == 0.0

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.points"
        path.write_text("", "utf-8")
        assert run_cli("metrics", str(path), "--ref", "0,-50") == 0
        out = capsys.readouterr().out
        assert "hypervolume = 0" in out
        assert "cardinality = 0" in out
        assert "sparsity = 0" in out

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        path = tmp_path / "bad.points"
        path.write_text("1,2\nbogus\n", "utf-8")
        assert run_cli("metrics", str(path), "--ref", "0,0") == 2
        assert "line 2" in capsys.readouterr().err

    def test_negative_ref_value(self, tmp_path, capsys):
        path = tmp_path / "f3.points"
        save_points(path, ParetoArchive([(1.0, 2.0, 3.0), (3.0, 2.0, 1.0)]))
        assert run_cli("metrics", str(path), "--ref=-1,-1,-1") == 0
        joined = capsys.readouterr().out
        assert run_cli("metrics", str(path), "--ref", "-1,-1,-1") == 0
        assert capsys.readouterr().out == joined
        assert "hypervolume = 36" in joined  # 24 + 24 - 12

    @pytest.mark.parametrize("ref", ["nan,0", "0,inf", "-inf,0"])
    def test_non_finite_ref_rejected(self, tmp_path, capsys, ref):
        path = tmp_path / "f.points"
        save_points(path, ParetoArchive([(1.0, 2.0)]))
        assert run_cli("metrics", str(path), "--ref", ref) == 2
        assert f"expected finite numbers, got {ref!r}" in capsys.readouterr().err

    def test_ref_dimension_checked(self, tmp_path, capsys):
        path = tmp_path / "f.points"
        save_points(path, ParetoArchive([(1.0, 2.0)]))
        assert run_cli("metrics", str(path), "--ref", "0,0,0") == 2
        assert "--ref has 3 values, the front has 2 objectives" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run_cli("metrics", str(tmp_path / "nope.points"), "--ref", "0,0") == 2

    def test_round_trip_front_files(self, tmp_path):
        front = make_env("dst-concave").true_front(0.9)
        path = tmp_path / "rt.points"
        save_points(path, front)
        assert load_points(path) == front


class TestPlotdata:
    def test_emits_curves_and_final_front(self, out_dir, capsys):
        assert run_cli(*_train_args(out_dir)) == 0
        assert run_cli("plotdata", str(out_dir / "smoke")) == 0
        run = out_dir / "smoke"
        for name in ("hypervolume_curve.csv", "cardinality_curve.csv", "sparsity_curve.csv",
                     "igd_curve.csv", "front_final.points"):
            assert (run / name).is_file(), name
        curve = (run / "hypervolume_curve.csv").read_text("utf-8").splitlines()
        assert curve[0] == "timestep,mean,sd"
        assert len(curve) == 3
        final = load_points(run / "front_final.points")
        assert len(final) >= 1

    def test_nonexistent_dir(self, tmp_path, capsys):
        assert run_cli("plotdata", str(tmp_path / "missing")) == 2

    def test_no_igd_curve_for_four_room(self, out_dir):
        code = run_cli(
            "train", "--env", "four-room", "--algo", "moq", "--weights", "1,0,0",
            "--steps", "1000", "--out", str(out_dir), "--name", "fr",
        )
        assert code == 0
        assert run_cli("plotdata", str(out_dir / "fr")) == 0
        assert not (out_dir / "fr" / "igd_curve.csv").exists()
        assert (out_dir / "fr" / "hypervolume_curve.csv").is_file()
