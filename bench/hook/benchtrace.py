"""Per-layer tracing of one morlbench process tree, installed from outside.

``sitecustomize.py`` in this directory imports this module at interpreter
start-up when ``MORLBENCH_TRACE_DIR`` is set, before the CLI runs. It
replaces public functions and methods of the morlbench modules with timing
wrappers; nothing under ``src/`` changes. Two kinds of boundary:

* per-step boundaries (``env.step``, ``act``/``update``, ``q_set``,
  ``greedy_action``, the ``pareto`` kernels ...) keep a call count, a busy
  time and up to two extra tallies, keyed by the coarse span they ran in;
* coarse boundaries (``run_sweep``, each ``moq.train``/``pql.train`` work
  item, ``evaluate_policy``, ``write_sweep``) record one span per call,
  with the name of the span that caused it.

Keying per-step tallies by the enclosing span is what lets the reduction in
``bench/layers.py`` attribute env steps taken inside ``evaluate_policy`` to
evaluation rather than training. The wrappers draw no random numbers and
touch no data the program writes.

Every process writes its tallies to ``<trace dir>/<pid>.json``: pool
workers after each work item (they exit without running ``atexit``), the
command process at exit. Forked workers start from empty tallies.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
from time import perf_counter_ns


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.root_pid = os.getpid()
        # Wrappers hold these containers, so a reset empties them in place.
        self.counters: dict[tuple[str, str], list[int]] = {}
        self.spans: list[tuple[str, str, int, int]] = []
        self.stack: list[str] = []
        self.start_ns = perf_counter_ns()
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.counters.clear()
        self.spans.clear()
        self.stack[:] = ["command" if os.getpid() == self.root_pid else "worker"]

    def add(self, name: str, a: int = 0, b: int = 0) -> None:
        """Add to the extra tallies of ``name`` in the current span."""
        c = self.counters.setdefault((name, self.stack[-1]), [0, 0, 0, 0])
        c[2] += a
        c[3] += b

    def peak(self, name: str, value: int) -> None:
        """Raise the first extra tally of ``name`` to at least ``value``."""
        c = self.counters.setdefault((name, self.stack[-1]), [0, 0, 0, 0])
        c[2] = max(c[2], value)

    def counted(self, name: str, fn, tally=None):
        """Per-step boundary: count and busy time, no span per call."""
        counters, stack = self.counters, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            result = fn(*args, **kwargs)
            elapsed = perf_counter_ns() - start
            key = (name, stack[-1])
            c = counters.get(key)
            if c is None:
                c = counters[key] = [0, 0, 0, 0]
            c[0] += 1
            c[1] += elapsed
            if tally is not None:
                a, b = tally(args, result)
                c[2] += a
                c[3] += b
            return result

        return wrapper

    def spanned(self, name: str, fn, after=None):
        """Coarse boundary: one span per call, parented on the caller's span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1]
            self.stack.append(name)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self.stack.pop()
                self.spans.append((name, parent, start, end))
            if after is not None:
                after(self, result)
            if len(self.stack) == 1 and os.getpid() != self.root_pid:
                self.dump()  # a pool worker finished a work item
            return result

        return wrapper

    def dump(self) -> None:
        pid = os.getpid()
        spans = list(self.spans)
        if pid == self.root_pid:
            spans.append(("command", "", self.start_ns, perf_counter_ns()))
        record = {
            "pid": pid,
            "root": pid == self.root_pid,
            "counters": [[n, ctx, *c] for (n, ctx), c in self.counters.items()],
            "spans": spans,
        }
        path = os.path.join(self.out_dir, f"{pid}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        os.replace(path + ".tmp", path)


def _truncated(args, outcome):
    return (1 if getattr(outcome, "truncated", False) else 0), 0


def _result_len(args, result):
    return len(result), 0


def _kept(args, result):
    points = args[0] if args else ()
    return (len(points) if hasattr(points, "__len__") else 0), len(result)


def _front_size(args, result):
    return len(getattr(args[0] if args else None, "points", ())), 0


def _moq_agent(tracer, result):
    rows = getattr(getattr(result[0], "qtable", None), "_rows", ())
    tracer.add("moq.states_touched", len(rows))


def _pql_agent(tracer, result):
    states = getattr(getattr(result[0], "store", None), "_states", {})
    sizes = [len(p.future) for row in states.values() for p in row if p is not None]
    tracer.add("pql.pairs_materialised", len(sizes), sum(sizes))
    tracer.peak("pql.future_set.max_size", max(sizes, default=0))


def _written(tracer, run_dir):
    files = [p for p in run_dir.rglob("*") if p.is_file()]
    tracer.add("results.written", len(files), sum(p.stat().st_size for p in files))


# (layer name, module, attribute path, extra tally) for per-step boundaries.
COUNTED = (
    ("envs.step", "morlbench.envs.dst", "DeepSeaTreasure.step", _truncated),
    ("envs.step", "morlbench.envs.four_room", "FourRoom.step", _truncated),
    ("envs.make_env", "morlbench.envs", "make_env", None),
    ("envs.true_front", "morlbench.envs.dst", "DeepSeaTreasure.true_front", None),
    ("moq.act", "morlbench.moq", "MoqAgent.act", None),
    ("moq.update", "morlbench.moq", "MoqAgent.update", None),
    ("moq.greedy", "morlbench.moq", "MoqAgent.greedy", None),
    ("scalarise.greedy_action", "morlbench.scalarise", "greedy_action", None),
    ("scalarise.observe_row", "morlbench.scalarise", "UtopianTracker.observe_row", None),
    ("pql.act", "morlbench.pql", "PqlAgent.act", None),
    ("pql.update", "morlbench.pql", "PqlAgent.update", None),
    ("pql.q_set", "morlbench.pql", "q_set", _result_len),
    ("pql.score_action_sets", "morlbench.pql", "score_action_sets", None),
    ("pql.front", "morlbench.pql", "PqlAgent.front", None),
    ("pareto.hypervolume_points", "morlbench.pareto", "hypervolume_points", None),
    ("pareto.nondominated_points", "morlbench.pareto", "nondominated_points", _kept),
    ("pareto.hypervolume", "morlbench.pareto", "hypervolume", _front_size),
    ("pareto.igd", "morlbench.pareto", "igd", None),
    ("pareto.load_points", "morlbench.pareto", "load_points", None),
)

# (span name, module, attribute path, inspection of the result) for coarse boundaries.
SPANNED = (
    ("run_sweep", "morlbench.sweep", "run_sweep", None),
    ("moq.train", "morlbench.moq", "train", _moq_agent),
    ("pql.train", "morlbench.pql", "train", _pql_agent),
    ("evaluate_policy", "morlbench.sweep", "evaluate_policy", None),
    ("write_sweep", "morlbench.results", "write_sweep", _written),
)


def _replace(module_name: str, path: str, make) -> bool:
    """Swap one function or method for ``make(original)``.

    A module-level function is also swapped in every morlbench module that
    imported it by name, so callers that hold their own reference see the
    wrapper too.
    """
    owner = sys.modules.get(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    original = getattr(owner, attr, None)
    if original is None:
        return False
    wrapper = make(original)
    if outer:
        setattr(owner, attr, wrapper)
        return True
    for name, module in list(sys.modules.items()):
        if name.startswith("morlbench") and module is not None:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return True


def install(out_dir: str) -> Tracer:
    import morlbench.results  # noqa: F401  (imports every module the CLI uses)

    tracer = Tracer(out_dir)
    missing = []
    for name, module, path, tally in COUNTED:
        if not _replace(module, path, lambda fn: tracer.counted(name, fn, tally)):
            missing.append(f"{module}.{path}")
    for name, module, path, after in SPANNED:
        if not _replace(module, path, lambda fn: tracer.spanned(name, fn, after)):
            missing.append(f"{module}.{path}")
    if missing:
        print(f"trace: not found, reads 0: {', '.join(missing)}", file=sys.stderr)
    atexit.register(tracer.dump)
    return tracer
