"""morlbench benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload dst-pql --seed 1 --seconds 30 --trace 0

Runs the workload's commands through ``python3 -m morlbench.cli`` from the
checkout's ``src/``, as a user would, repeating attempts for about
``--seconds``, and checks every attempt's outputs (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics: medians over the set-up runs
and over the attempts. ``--trace 1`` alternates untraced and traced
attempts and reports the per-layer metrics of the traced ones (medians),
plus the tracing overhead: traced minus untraced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Failed commands and
failed output checks both count in ``failed``; ``attempted`` counts
commands run plus checks made.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import layers
from workloads import WORKLOADS, Training

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
HOOK = BENCH / "hook"
DIGESTS = BENCH / "digests.json"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {**layers.UNITS, "trace.overhead_s": "s", "trace.overhead_ratio": "ratio"}

SETUP_RUNS = 5
MIN_ATTEMPTS = 3
COMMAND_TIMEOUT_S = 150
RSS_SAMPLE_S = 0.25


def _child_env(trace_dir: Path | None) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MORLBENCH_TRACE_DIR", None)
    paths = [str(SRC)]
    if trace_dir is not None:
        paths.insert(0, str(HOOK))
        env["MORLBENCH_TRACE_DIR"] = str(trace_dir)
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _tree_hwm_kb(root: int, peaks: dict[int, int]) -> None:
    """Record the peak resident size (VmHWM) of ``root`` and its descendants."""
    children: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            try:
                with open(f"/proc/{entry.name}/stat", "rb") as fh:
                    ppid = int(fh.read().rsplit(b")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            children.setdefault(ppid, []).append(int(entry.name))
    todo = [root]
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/status", "rb") as fh:
                for line in fh:
                    if line.startswith(b"VmHWM:"):
                        peaks[pid] = max(peaks.get(pid, 0), int(line.split()[1]))
        except (OSError, ValueError):
            continue


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_command(argv: list[str], out_file: Path, trace_dir: Path | None = None) -> dict:
    """Run one CLI command; returns exit code, wall time, peak RSS and stdout.

    Peak RSS is the larger of the process tree's summed per-process peaks,
    sampled every ``RSS_SAMPLE_S``, and the exact peak of its largest
    process from ``wait4``; the two agree for a command with no workers.
    """
    cmd = [sys.executable, "-m", "morlbench.cli", *argv]
    with open(out_file, "wb") as out, open(out_file.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        # Its own process group, so pool workers can be stopped with it.
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=err, env=_child_env(trace_dir), cwd=ROOT, start_new_session=True
        )
        done = threading.Event()
        peaks: dict[int, int] = {}

        def sample() -> None:
            while not done.wait(RSS_SAMPLE_S):
                if time.perf_counter() - start > COMMAND_TIMEOUT_S:
                    _kill_group(proc.pid)
                    return
                if os.path.isdir("/proc"):
                    _tree_hwm_kb(proc.pid, peaks)

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        done.set()
        sampler.join()
        _kill_group(proc.pid)  # workers a failed command left behind
    peak_kb = max(usage.ru_maxrss, sum(peaks.values()))
    return {
        "argv": argv,
        "code": proc.returncode,
        "wall_s": wall,
        "peak_mb": peak_kb / 1024,
        "stdout": out_file.read_text("utf-8", "replace"),
        "stderr": out_file.with_suffix(".err").read_text("utf-8", "replace"),
    }


class Run:
    """One benchmark run: attempts, checks and the tally of failures."""

    def __init__(self, name: str, seed: int, work_dir: Path, tiny: bool, digests: dict):
        self.name = name
        self.workload = WORKLOADS[name]
        self.work_dir = work_dir
        self.tiny = tiny
        self.plan = self.workload.plan(seed, work_dir, tiny)
        self.recorded = digests.get(self.digest_key, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.digests: list[str] = []
        self.final_hv: float | None = None
        self._count = 0

    @property
    def digest_key(self) -> str:
        return f"{self.name}@tiny" if self.tiny else self.name

    def _dir(self, label: str) -> Path:
        self._count += 1
        path = self.work_dir / f"{label}{self._count}"
        path.mkdir(parents=True)
        return path

    def _record(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"FAILED {name}: {detail}")

    def _commands(self, argvs, out_dir: Path, trace_dir: Path | None) -> list[dict]:
        results = []
        for i, argv in enumerate(argvs):
            sub_trace = None
            if trace_dir is not None:
                sub_trace = trace_dir / str(i)
                sub_trace.mkdir(parents=True)
            result = run_command(argv, out_dir / f"cmd{i}.out", sub_trace)
            self._record(" ".join(argv), result["code"] == 0, f"exit {result['code']}: {result['stderr'][-500:]}")
            results.append(result)
        return results

    def score_oracle_fronts(self) -> None:
        """Score the plan's oracle-sized fronts once and check them; untimed."""
        if not self.plan.oracle_fronts:
            return
        out = self._dir("oracle")
        results = self._commands([f.argv for f in self.plan.oracle_fronts], out, None)
        if all(r["code"] == 0 for r in results):
            for name, ok, detail in checks.check_scores(self.plan.oracle_fronts, [r["stdout"] for r in results]):
                self._record(name, ok, detail)
        shutil.rmtree(out)

    def setup(self) -> float:
        out = self._dir("setup")
        wall = sum(r["wall_s"] for r in self._commands(self.plan.setup(out), out, None))
        shutil.rmtree(out)
        return wall

    def attempt(self, traced: bool) -> dict:
        out = self._dir("attempt")
        trace_dir = out / "trace" if traced else None
        results = self._commands(self.plan.attempt(out), out, trace_dir)
        ok = all(r["code"] == 0 for r in results)
        attempt = {
            "wall_s": sum(r["wall_s"] for r in results),
            "peak_mb": max(r["peak_mb"] for r in results),
            "ok": ok,
        }
        if ok:
            try:
                self._check(out, results)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                self._record("outputs readable", False, repr(exc))
            if traced:
                attempt["layers"] = layers.layer_metrics(layers.load_dumps(trace_dir))
        shutil.rmtree(out)
        return attempt

    def _check(self, out: Path, results: list[dict]) -> None:
        if isinstance(self.workload, Training):
            run_dir = out / "run"
            digest = checks.digest_files(run_dir)
            if not self.digests:
                manifest = json.loads((run_dir / "manifest.json").read_text("utf-8"))
                for name, ok, detail in checks.check_training(
                    run_dir, manifest["ref_point"], self.workload.algo, not self.tiny
                ):
                    self._record(name, ok, detail)
                self.final_hv = checks.final_hypervolume(run_dir)
        else:
            digest = checks.digest_text([r["stdout"] for r in results])
            if not self.digests:
                for name, ok, detail in checks.check_scores(self.plan.fronts, [r["stdout"] for r in results]):
                    self._record(name, ok, detail)
        if self.digests:
            self._record("output identical to the first attempt", digest == self.digests[0], digest)
        elif self.recorded is not None:
            self._record("output digest equals the recorded digest", digest == self.recorded, digest)
        self.digests.append(digest)


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unavailable"
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            ).stdout.strip() or commit
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        # Names the code measured where the checkout has no git metadata.
        "source_sha256": checks.digest_tree(SRC, (".py", ".map")),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def measure(args, run: Run) -> tuple[dict[str, float], list[float]]:
    """The metrics of this run and the wall times of the attempts behind them."""
    run.score_oracle_fronts()
    start = time.perf_counter()
    if not args.trace:
        # Set-up runs alternate with attempts, so both sample the whole
        # window; a shared host's speed drifts over seconds. A round starts
        # only if it would end closer to the deadline than it starts.
        setups, attempts = [], []
        while True:
            setups.append(run.setup())
            attempts.append(run.attempt(traced=False))
            elapsed = time.perf_counter() - start
            if len(attempts) >= MIN_ATTEMPTS and elapsed + elapsed / len(attempts) / 2 >= args.seconds:
                break
        while len(setups) < SETUP_RUNS:
            setups.append(run.setup())
        good = [a for a in attempts if a["ok"]]
        setup_s = _median(setups)
        wall_s = _median([a["wall_s"] for a in good])
        return {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "work_per_s": _ratio(run.plan.work, wall_s - run.plan.setup_commands * setup_s),
            "peak_rss_mb": _median([a["peak_mb"] for a in good]),
        }, [a["wall_s"] for a in good]
    plain, traced = [], []
    while True:
        use_trace = len(plain) > len(traced)
        (traced if use_trace else plain).append(run.attempt(traced=use_trace))
        elapsed = time.perf_counter() - start
        if plain and traced and elapsed + elapsed / (len(plain) + len(traced)) / 2 >= args.seconds:
            break
    plain = [a for a in plain if a["ok"]]
    traced = [a for a in traced if a["ok"]]
    if not (plain and traced):
        return {}, []
    metrics = {name: _median([a["layers"][name] for a in traced]) for name in layers.UNITS}
    base = _median([a["wall_s"] for a in plain])
    metrics["trace.overhead_s"] = _median([a["wall_s"] for a in traced]) - base
    metrics["trace.overhead_ratio"] = _ratio(metrics["trace.overhead_s"], base)
    return metrics, [a["wall_s"] for a in traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny step counts and fronts, for self-tests")
    parser.add_argument("--record-digest", action="store_true",
                        help="store this run's output digest in digests.json instead of comparing")
    parser.add_argument("--report", type=Path, help="also write the full result as JSON here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "morlbench" / "cli.py").is_file():
        print(f"error: no morlbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    digests = json.loads(DIGESTS.read_text("utf-8")) if DIGESTS.is_file() else {}

    work_dir = ROOT / ".bench_work" / str(os.getpid())
    work_dir.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work_dir, args.tiny, {} if args.record_digest else digests)
        if args.record_digest:
            run.attempt(traced=False)
        else:
            metrics, measured = measure(args, run)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if run.failed or not run.digests:
        print("\n".join(run.messages), file=sys.stderr)
    if args.record_digest:
        if run.failed or not run.digests:
            return 1
        digests.setdefault(run.digest_key, {})[str(args.seed)] = run.digests[0]
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", "utf-8")
        print(f"recorded {run.digest_key} seed {args.seed}: {run.digests[0]}")
        return 0
    if not measured:
        print("error: no attempt completed", file=sys.stderr)
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "inputs": [" ".join(a) for a in run.plan.attempt(Path("<out>"))],
        "attempt_walls_s": [round(w, 4) for w in measured],
        "output_sha256": run.digests[0] if run.digests else None,
        "digest_recorded": run.recorded is not None,
        "final_hypervolume": run.final_hv,
        "machine": machine_info(),
    }
    for key, value in info.items():
        print(f"{key}: {value}")
    for message in run.messages:
        print(message)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    if args.report:
        args.report.write_text(json.dumps({**info, **result}, indent=1) + "\n", "utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
