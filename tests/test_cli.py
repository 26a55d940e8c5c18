import json
import os
import shutil
import subprocess
import sys
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

    def test_wrong_length_weights_rejected_before_training(self, out_dir, capsys):
        code = run_cli(
            "train", "--env", "dst-concave", "--algo", "moq", "--weights", "0.2,0.3,0.5",
            "--steps", "1000", "--out", str(out_dir),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "expected 2 weights, got 3" in err
        assert "in work item" not in err
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

    @pytest.mark.parametrize("tau", ["nan", "inf"])
    def test_non_finite_tau_rejected(self, out_dir, capsys, tau):
        code = run_cli(
            "train", "--env", "dst-concave", "--scalariser", "chebyshev", "--weights", "0.5,0.5",
            "--tau", tau, "--steps", "1000", "--out", str(out_dir),
        )
        assert code == 2
        assert f"tau must be >= 0 and finite, got {tau}" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("option", ["--weights", "--ref-point"])
    def test_list_option_missing_its_value(self, out_dir, capsys, option):
        # the next flag is not taken for the list's value
        code = run_cli("train", "--env", "dst-concave", option, "--seed", "3", "--out", str(out_dir))
        assert code == 2
        assert f"argument {option}: expected one argument" in capsys.readouterr().err
        assert not out_dir.exists()

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

    @pytest.mark.parametrize("command, algo, text, named", [
        ("train", "pql", "[agnet]\nalpha = 5\n", "unknown section [agnet]"),
        ("sweep", "pql", "[sweep]\nweights = 0.5,0.5\nseed = 9\n", "[sweep] weights is not a sweep setting"),
        ("train", "pql", "[sweep]\nseeds = 1..3\nworkers = 2\n", "[sweep] seeds is not a train setting"),
        ("sweep", "moq", "[agent]\nfixed_weights = 0.5,0.5\n", "[agent] fixed_weights is not a sweep setting"),
        ("train", "pql", "[agent]\ntotal_timesteps = abc\n",
         "run.ini: [agent] total_timesteps: invalid literal for int() with base 10: 'abc'"),
        ("train", "moq", "[agent]\nalpha = fast\n", "run.ini: [agent] alpha: could not convert string to float"),
        ("sweep", "pql", "[sweep]\nseeds = 5..1\n", "run.ini: [sweep] seeds: seed range '5..1' is reversed"),
        ("sweep", "pql", "[sweep]\narchive = maybe\n", "run.ini: [sweep] archive: expected a boolean, got 'maybe'"),
        ("train", "pql", "[agent]\nscalariser = bogus\n",
         "run.ini: [agent] scalariser: invalid choice: 'bogus' (choose from 'linear', 'chebyshev')"),
        ("train", "pql", "[agent]\nscalariser = chebyshev\ntau = 3\n", "algorithm 'pql' does not read scalariser, tau"),
    ], ids=["misspelled-section", "sweep-weights-seed", "train-seeds-workers", "fixed-weights",
            "bad-int", "bad-float", "bad-seeds", "bad-bool", "bad-choice", "unread-by-pql"])
    def test_config_file_input_never_dropped(self, out_dir, tmp_path, capsys, command, algo, text, named):
        # a section or key the subcommand would not use is an error, not ignored
        cfg = tmp_path / "run.ini"
        cfg.write_text("[env]\nid = dst-concave\n" + text, "utf-8")
        code = run_cli(command, "--config", str(cfg), "--algo", algo, "--steps", "1000", "--out", str(out_dir))
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, flags, named", [
        ("train", ("--algo", "pql", "--tau", "3", "--weights", "1,0"), "tau, weights"),
        ("sweep", ("--algo", "moq", "--set-eval", "cardinality"), "set_eval"),
        ("sweep", ("--algo", "pql", "--weight-step", "0.5"), "weight_step"),
    ], ids=["pql-tau-weights", "moq-set-eval", "pql-weight-step"])
    def test_setting_the_algorithm_never_reads_rejected(self, out_dir, capsys, command, flags, named):
        code = run_cli(command, "--env", "dst-concave", *flags, "--steps", "1000", "--out", str(out_dir))
        assert code == 2
        assert f"algorithm {flags[1]!r} does not read {named}" in capsys.readouterr().err
        assert not out_dir.exists()


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

    @pytest.mark.parametrize("seeds, named", [("42,42", "42"), ("1..3,2", "2")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_repeated_seeds_rejected(self, out_dir, tmp_path, capsys, seeds, named, source):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[env]\nid = dst-concave\n[sweep]\nseeds = {seeds}\n", "utf-8")
        given = ("--seeds", seeds) if source == "flag" else ("--config", str(cfg))
        code = run_cli(
            "sweep", "--env", "dst-concave", "--algo", "pql", "--steps", "1000", *given, "--out", str(out_dir),
        )
        assert code == 2
        assert f"seeds must be distinct, got {named} more than once" in capsys.readouterr().err
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

    @pytest.mark.parametrize("flags, text, archive", [
        (("--archive",), "", True),
        (("--archive=no",), "", False),
        ((), "[sweep]\narchive = yes\n", True),
    ], ids=["flag", "flag-no", "config-yes"])
    def test_archive_from_flag_or_config(self, out_dir, tmp_path, flags, text, archive):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[env]\nid = dst-concave\n" + text, "utf-8")
        assert run_cli(
            "sweep", "--config", str(cfg), "--algo", "pql", "--steps", "200", "--eval-interval", "100",
            *flags, "--out", str(out_dir), "--name", "a",
        ) == 0
        manifest = json.loads((out_dir / "a" / "manifest.json").read_text("utf-8"))
        assert manifest["config"]["archive"] is archive

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

    def test_rerun_replaces_old_run_whole(self, out_dir):
        args = ("sweep", "--env", "dst-concave", "--algo", "pql", "--steps", "300",
                "--eval-interval", "100", "--out", str(out_dir), "--name", "r")
        assert run_cli(*args, "--seeds", "1..3") == 0
        (out_dir / "r" / "seed_2" / "fronts" / "stale.points").write_text("1,1\n", "utf-8")
        assert run_cli(*args, "--seeds", "2", "--steps", "200") == 0
        run = out_dir / "r"
        assert sorted(p.name for p in run.iterdir()) == ["aggregate", "manifest.json", "seed_2"]
        assert sorted(p.name for p in (run / "seed_2" / "fronts").iterdir()) == ["100.points", "200.points"]
        assert [p.name for p in out_dir.iterdir()] == ["r"]

    def test_failed_write_leaves_no_run_directory(self, out_dir, monkeypatch, capsys):
        from morlbench import results

        def broken(*args):
            raise RuntimeError("disk full")

        args = ("sweep", "--env", "dst-concave", "--algo", "pql", "--steps", "200",
                "--seeds", "1,2", "--out", str(out_dir), "--name", "r")
        monkeypatch.setattr(results, "write_manifest", broken)
        assert run_cli(*args) == 1
        assert "disk full" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("name", [".", "..", "../x", "a/../../b"])
    def test_run_name_outside_results_rejected(self, tmp_path, capsys, name):
        out = tmp_path / "root" / "runs"
        code = run_cli(
            "sweep", "--env", "dst-concave", "--algo", "pql", "--steps", "200",
            "--out", str(out), "--name", name,
        )
        assert code == 2
        assert f"run name {name!r} must be a directory inside" in capsys.readouterr().err
        assert not (tmp_path / "root").exists()

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

    def test_scoring_never_imports_numpy(self, tmp_path, out_dir):
        path = tmp_path / "f3.points"
        save_points(path, ParetoArchive([(1.0, 2.0, 3.0), (3.0, 2.0, 1.0)]))
        sweep = ["sweep", "--env", "dst-concave", "--algo", "moq", "--weight-step", "0.5",
                 "--steps", "300", "--eval-interval", "100", "--seeds", "1,2", "--out", str(out_dir)]
        script = (
            "import sys\n"
            "from morlbench.cli import main\n"
            "assert 'numpy' not in sys.modules, 'import'\n"
            f"assert main({list(_train_args(out_dir))!r}) == 0\n"
            "assert 'numpy' not in sys.modules, 'train'\n"
            f"assert main({sweep + ['--name', 'serial']!r}) == 0\n"
            "assert 'numpy' not in sys.modules, 'sweep'\n"
            "assert 'concurrent.futures' not in sys.modules, 'serial sweep'\n"
            f"assert main({sweep + ['--name', 'pooled', '--workers', '2']!r}) == 0\n"
            "assert 'numpy' not in sys.modules, 'sweep --workers 2'\n"
            f"assert main(['metrics', {str(path)!r}, '--truth', {str(path)!r}, '--ref=-1,-1,-1']) == 0\n"
            "assert 'numpy' not in sys.modules, 'metrics'\n"
            f"assert main(['plotdata', {str(out_dir / 'smoke')!r}]) == 0\n"
            "assert 'numpy' not in sys.modules, 'plotdata'\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "hypervolume = 36" in proc.stdout
        for name in ("serial", "pooled"):
            assert (out_dir / name / "aggregate" / "metrics.csv").is_file()

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

    def test_final_front_is_the_first_listed_seeds(self, out_dir):
        assert run_cli(
            "sweep", "--env", "dst-concave", "--algo", "pql", "--steps", "1000",
            "--seeds", "9,10", "--out", str(out_dir), "--name", "s",
        ) == 0
        run = out_dir / "s"
        # give the seeds different final fronts; "seed_10" sorts before "seed_9"
        for seed, point in ((9, (1.0, -1.0)), (10, (2.0, -3.0))):
            save_points(run / f"seed_{seed}" / "fronts" / "1000.points", ParetoArchive([point]))
        assert run_cli("plotdata", str(run)) == 0
        assert load_points(run / "front_final.points") == ParetoArchive([(1.0, -1.0)])

    def test_nonexistent_dir(self, tmp_path, capsys):
        assert run_cli("plotdata", str(tmp_path / "missing")) == 2

    def test_run_without_aggregate_rejected(self, out_dir, capsys):
        assert run_cli(*_train_args(out_dir)) == 0
        shutil.rmtree(out_dir / "smoke" / "aggregate")
        capsys.readouterr()
        assert run_cli("plotdata", str(out_dir / "smoke")) == 2
        assert "aggregate/metrics.csv is missing" in capsys.readouterr().err
        assert not (out_dir / "smoke" / "hypervolume_curve.csv").exists()

    def test_no_igd_curve_for_four_room(self, out_dir):
        code = run_cli(
            "train", "--env", "four-room", "--algo", "moq", "--weights", "1,0,0",
            "--steps", "1000", "--out", str(out_dir), "--name", "fr",
        )
        assert code == 0
        assert run_cli("plotdata", str(out_dir / "fr")) == 0
        assert not (out_dir / "fr" / "igd_curve.csv").exists()
        assert (out_dir / "fr" / "hypervolume_curve.csv").is_file()
