"""Command-line entry points: train, sweep, metrics, plotdata.

Configuration can come from flags, from an INI-style config file
(``key = value`` under ``[env]``, ``[agent]`` and ``[sweep]`` sections,
``#`` comments), or both, with flags taking precedence. Per-environment
presets fill in the published step budgets, discounts and tau values when
nothing else is specified.

Exit codes: 0 success, 1 unexpected runtime failure, 2 usage/config errors
(including the Pareto Q-Learning capacity refusal, which aborts before any
training).
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from pathlib import Path

from .envs import ENV_IDS
from .pareto import cardinality, hypervolume, igd, load_points, sparsity
from .pql import SET_EVAL_MODES, CapacityError
from .results import fmt, results_root, write_plotdata, write_sweep
from .scalarise import SCALARISERS
from .sweep import ALGOS, UNREAD_SETTINGS, SweepConfig, run_sweep

_LIST_OPTIONS = ("--ref", "--ref-point", "--weights")


def _join_list_values(argv: list[str]) -> list[str]:
    """Turn ``--ref -1,-1`` into ``--ref=-1,-1``: argparse would read a
    value starting with "-" that is not a plain number as an option. A
    token starting with "--" is the next flag and is left alone."""
    joined: list[str] = []
    for tok in argv:
        if joined and joined[-1] in _LIST_OPTIONS and tok.startswith("-") and not tok.startswith("--"):
            joined[-1] += "=" + tok
        else:
            joined.append(tok)
    return joined


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {text!r}")
    return values


def _seed_bounds(part: str) -> tuple[int, int]:
    bounds = part.split("..")
    if len(bounds) <= 2:
        try:
            return int(bounds[0]), int(bounds[-1])
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"{part!r} is neither a seed nor a range lo..hi")


def _parse_seeds(text: str) -> tuple[int, ...]:
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, hi = _seed_bounds(part)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"seed range {part!r} is reversed (write {hi}..{lo})")
        seeds.extend(range(lo, hi + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return tuple(seeds)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _convert(option: argparse.Action, value: str):
    """Convert and check a config-file value as ``option`` does its flag's."""
    if option.type:
        value = option.type(value)
    if option.choices and value not in option.choices:
        raise ValueError(f"invalid choice: {value!r} (choose from {', '.join(map(repr, option.choices))})")
    return value


def _load_config_file(args: argparse.Namespace) -> dict:
    """Flatten the [env]/[agent]/[sweep] sections of ``args.config`` into
    one setting -> value map.

    A key must name one of the subcommand's options by its ``dest`` (the
    environment is ``id`` under [env]) and is converted and checked as that
    option converts and checks its flag; any other section or key, and any
    value the flag would not accept, is an error that names the file,
    section and key.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if not parser.read(args.config):
        raise FileNotFoundError(f"config file not found: {args.config}")
    settings = {}
    for section in parser.sections():
        if section not in ("env", "agent", "sweep"):
            raise ValueError(f"{args.config}: unknown section [{section}] (expected [env], [agent] or [sweep])")
        for key, value in parser.items(section):
            dest = "env_id" if (section, key) == ("env", "id") else key
            option = args.options.get(dest)
            if option is None:
                raise ValueError(f"{args.config}: [{section}] {key} is not a {args.command} setting")
            try:
                settings[dest] = _convert(option, value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{args.config}: [{section}] {key}: {exc}") from None
    return settings


def _resolve_settings(args: argparse.Namespace) -> dict:
    """Merge config file < explicit flags into one dict, refusing a
    setting the chosen algorithm never reads."""
    settings = _load_config_file(args) if args.config else {}
    for key in args.options:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    algo = settings.get("algo", "moq")
    unread = [key for key in UNREAD_SETTINGS[algo] if key in settings]
    if unread:
        raise ValueError(f"algorithm {algo!r} does not read {', '.join(unread)}")
    if not settings.get("env_id"):
        raise ValueError("an environment is required: pass --env or [env] id in --config")
    return settings


def _sweep_config(settings: dict, *, single_seed: bool) -> SweepConfig:
    seed = settings.pop("seed", None)
    weights = settings.pop("weights", None)
    if single_seed:
        settings["seeds"] = (seed if seed is not None else 42,)
        if settings.get("algo", "moq") == "moq":
            if weights is None:
                raise ValueError("train needs --weights for MO Q-Learning (e.g. --weights 0.5,0.5)")
            settings["fixed_weights"] = (weights,)
    return SweepConfig(**settings)


def _print_summary(result, run_dir: Path) -> None:
    last = result.mean[-1] if result.mean else None
    print(f"run: {run_dir}")
    cfg = result.config
    print(f"algorithm: {cfg.algorithm_label}  environment: {cfg.env_id}  configs: {result.n_configs}")
    if last is not None:
        igd_text = "" if last.igd is None else f"  igd={fmt(last.igd)}"
        print(
            f"final (t={last.timestep}): hypervolume={fmt(last.hypervolume)}  "
            f"sparsity={fmt(last.sparsity)}  cardinality={fmt(last.cardinality)}{igd_text}"
        )


def cmd_run(args: argparse.Namespace) -> int:
    """``train`` (one configuration, one seed) or ``sweep``."""
    cfg = _sweep_config(_resolve_settings(args), single_seed=args.command == "train")
    result = run_sweep(cfg)
    run_dir = write_sweep(result, results_root(args.out))
    _print_summary(result, run_dir)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    front = load_points(args.front)
    if front.points and len(args.ref) != front.dimension:
        raise ValueError(f"--ref has {len(args.ref)} values, the front has {front.dimension} objectives")
    print(f"hypervolume = {fmt(hypervolume(front, args.ref))}")
    print(f"cardinality = {cardinality(front)}")
    print(f"sparsity = {fmt(sparsity(front))}")
    if args.truth:
        truth = load_points(args.truth)
        print(f"igd = {fmt(igd(front, truth))}")
    return 0


def cmd_plotdata(args: argparse.Namespace) -> int:
    for path in write_plotdata(Path(args.run_dir)):
        print(path)
    return 0


def _add_agent_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--env", dest="env_id", choices=ENV_IDS, help="environment id")
    p.add_argument("--algo", choices=ALGOS, help="algorithm (default moq)")
    p.add_argument("--scalariser", choices=SCALARISERS, help="MO Q-Learning scalariser")
    p.add_argument("--alpha", type=float, help="learning rate")
    p.add_argument("--gamma", type=float, help="discount factor")
    p.add_argument("--tau", type=float, help="Chebyshev utopian offset")
    p.add_argument("--steps", dest="total_timesteps", type=int, help="training timesteps")
    p.add_argument("--eps-initial", dest="eps_initial", type=float)
    p.add_argument("--eps-final", dest="eps_final", type=float)
    p.add_argument("--eps-decay-fraction", dest="eps_decay_fraction", type=float)
    p.add_argument("--eval-interval", dest="eval_interval", type=int)
    p.add_argument("--set-eval", dest="set_eval", choices=SET_EVAL_MODES, help="PQL action-set score")
    p.add_argument("--ref-point", dest="ref_point", type=_parse_floats, help="metric reference point, e.g. '0,-50'")
    p.add_argument("--state-cap", dest="state_cap", type=int, help="PQL state-action pair cap")
    p.add_argument("--max-episode-steps", dest="max_episode_steps", type=int)
    p.add_argument("--name", help="run directory name")
    p.add_argument("--out", help="results root (default $MORL_RESULTS_DIR or ./runs)")
    p.add_argument("--config", help="INI config file with [env]/[agent]/[sweep] sections")


def _set_run_defaults(p: argparse.ArgumentParser) -> None:
    """Run ``cmd_run`` with the options that are run settings, by ``dest``."""
    options = {a.dest: a for a in p._actions if a.dest not in ("help", "config", "out")}
    p.set_defaults(func=cmd_run, options=options)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="morlbench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a single configuration")
    _add_agent_options(p_train)
    p_train.add_argument("--weights", type=_parse_floats, help="weight vector for MO Q-Learning, e.g. '0.5,0.5'")
    p_train.add_argument("--seed", type=int, help="run seed (default 42)")
    _set_run_defaults(p_train)

    p_sweep = sub.add_parser("sweep", help="run the outer-loop protocol over the weight grid")
    _add_agent_options(p_sweep)
    p_sweep.add_argument("--weight-step", dest="weight_step", type=float, help="weight grid step (default 0.1)")
    p_sweep.add_argument("--seeds", type=_parse_seeds, help="seed list, e.g. '42..51' or '42,43,44'")
    p_sweep.add_argument("--workers", type=int, help="parallel work items")
    p_sweep.add_argument("--archive", nargs="?", const=True, type=_parse_bool, help="cumulative approximation sets")
    p_sweep.add_argument("--max-configs", dest="max_configs", type=int, help="truncate the weight grid")
    _set_run_defaults(p_sweep)

    p_metrics = sub.add_parser("metrics", help="score a point-set file")
    p_metrics.add_argument("front", help="point-set file to score")
    p_metrics.add_argument("--truth", help="true-front point-set file (enables IGD)")
    p_metrics.add_argument("--ref", required=True, type=_parse_floats, help="reference point, e.g. '0,-50'")
    p_metrics.set_defaults(func=cmd_metrics)

    p_plot = sub.add_parser("plotdata", help="emit plot-ready CSV curves for a run directory")
    p_plot.add_argument("run_dir")
    p_plot.set_defaults(func=cmd_plotdata)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(_join_list_values(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, CapacityError, OSError, configparser.Error) as exc:
        _report(str(exc), exc)
        return 2
    except Exception as exc:  # unexpected runtime failure
        _report(repr(exc), exc)
        return 1


def _report(message: str, exc: BaseException) -> None:
    """Print an error with its notes, such as the work item that raised it."""
    print(f"error: {message}", *getattr(exc, "__notes__", ()), sep="\n  ", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
