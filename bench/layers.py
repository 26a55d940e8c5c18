"""Reduce the tracer's per-process dumps to the per-layer metrics.

The dumps come from ``hook/benchtrace.py``. Per-step tallies are keyed by
the coarse span they ran in, and spans carry their parent's name, so:

* env steps inside ``evaluate_policy`` count as evaluation rollout steps;
* ``moq.train.busy_s`` and ``pql.train.busy_s`` are self times, the work
  item spans minus the ``evaluate_policy`` spans they caused;
* the item phase's wall time runs from the first work item's start to the
  last one's end, across all processes (``perf_counter`` is the system's
  monotonic clock, shared by every process).

Busy times of per-step boundaries include the boundaries they call, and
the wrappers' own cost; ``trace.overhead_*`` measures that cost as a whole.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

UNITS = {
    "envs.step.calls": "count",
    "envs.step.ns_per_call": "ns",
    "envs.episodes.truncated": "count",
    "envs.make_env.s": "s",
    "envs.true_front.s": "s",
    "moq.act.ns_per_call": "ns",
    "moq.update.ns_per_call": "ns",
    "moq.greedy.calls": "count",
    "moq.greedy.ns_per_call": "ns",
    "moq.train.busy_s": "s",
    "moq.states_touched": "count",
    "scalarise.greedy_action.calls": "count",
    "scalarise.greedy_action.ns_per_call": "ns",
    "scalarise.observe_row.calls": "count",
    "pql.act.ns_per_call": "ns",
    "pql.update.ns_per_call": "ns",
    "pql.train.busy_s": "s",
    "pql.q_set.calls_per_step": "count",
    "pql.q_set.points_per_call": "count",
    "pql.score_action_sets.ns_per_call": "ns",
    "pql.front.ns_per_call": "ns",
    "pql.pairs_materialised": "count",
    "pql.future_set.mean_size": "count",
    "pql.future_set.max_size": "count",
    "pareto.hypervolume_points.calls": "count",
    "pareto.hypervolume_points.ns_per_call": "ns",
    "pareto.nondominated_points.ns_per_call": "ns",
    "pareto.nondominated_points.kept_ratio": "ratio",
    "pareto.hypervolume.ns_per_call": "ns",
    "pareto.hypervolume.points_per_call": "count",
    "pareto.igd.ns_per_call": "ns",
    "pareto.load_points.s": "s",
    "sweep.evaluate_policy.calls": "count",
    "sweep.evaluate_policy.busy_s": "s",
    "sweep.evaluate_policy.share": "ratio",
    "sweep.evaluate_policy.rollout_steps_per_call": "count",
    "sweep.evaluate_policy.truncated_share": "ratio",
    "sweep.items.busy_s": "s",
    "sweep.items.wall_s": "s",
    "sweep.parallel_efficiency": "ratio",
    "sweep.reduce_s": "s",
    "results.write_sweep.s": "s",
    "results.files_written": "count",
    "results.bytes_written": "bytes",
}

EVAL = "evaluate_policy"
ITEMS = ("moq.train", "pql.train")


def load_dumps(trace_dir: Path) -> list[dict]:
    return [json.loads(p.read_text("utf-8")) for p in sorted(Path(trace_dir).rglob("*.json"))]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    tallies: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    peaks: dict[str, int] = defaultdict(int)
    spans: list[tuple[str, str, int, int, int]] = []
    for dump in dumps:
        for name, ctx, *values in dump["counters"]:
            if name.endswith(".max_size"):
                peaks[name] = max(peaks[name], values[2])
                continue
            t = tallies[(name, ctx)]
            for i, v in enumerate(values):
                t[i] += v
        spans.extend((*s, dump["pid"]) for s in dump["spans"])

    def total(name: str, ctx: str | None = None) -> list[int]:
        out = [0, 0, 0, 0]
        for (n, c), values in tallies.items():
            if n == name and (ctx is None or c == ctx):
                out = [a + b for a, b in zip(out, values)]
        return out

    def per_call(name: str) -> float:
        calls, ns, _, _ = total(name)
        return _ratio(ns, calls)

    def span_s(name: str, parent: str | None = None) -> float:
        return sum(end - start for n, p, start, end, _ in spans
                   if n == name and (parent is None or p == parent)) / 1e9

    m: dict[str, float] = {}
    step, eval_step = total("envs.step"), total("envs.step", EVAL)
    m["envs.step.calls"] = step[0]
    m["envs.step.ns_per_call"] = _ratio(step[1], step[0])
    m["envs.episodes.truncated"] = step[2] - eval_step[2]
    m["envs.make_env.s"] = total("envs.make_env")[1] / 1e9
    m["envs.true_front.s"] = total("envs.true_front")[1] / 1e9

    m["moq.act.ns_per_call"] = per_call("moq.act")
    m["moq.update.ns_per_call"] = per_call("moq.update")
    m["moq.greedy.calls"] = total("moq.greedy")[0]
    m["moq.greedy.ns_per_call"] = per_call("moq.greedy")
    m["moq.train.busy_s"] = span_s("moq.train") - span_s(EVAL, "moq.train")
    m["moq.states_touched"] = total("moq.states_touched")[2]

    m["scalarise.greedy_action.calls"] = total("scalarise.greedy_action")[0]
    m["scalarise.greedy_action.ns_per_call"] = per_call("scalarise.greedy_action")
    m["scalarise.observe_row.calls"] = total("scalarise.observe_row")[0]

    q_set, pairs = total("pql.q_set"), total("pql.pairs_materialised")
    m["pql.act.ns_per_call"] = per_call("pql.act")
    m["pql.update.ns_per_call"] = per_call("pql.update")
    m["pql.train.busy_s"] = span_s("pql.train") - span_s(EVAL, "pql.train")
    m["pql.q_set.calls_per_step"] = _ratio(q_set[0], total("pql.act")[0])
    m["pql.q_set.points_per_call"] = _ratio(q_set[2], q_set[0])
    m["pql.score_action_sets.ns_per_call"] = per_call("pql.score_action_sets")
    m["pql.front.ns_per_call"] = per_call("pql.front")
    m["pql.pairs_materialised"] = pairs[2]
    m["pql.future_set.mean_size"] = _ratio(pairs[3], pairs[2])
    m["pql.future_set.max_size"] = peaks["pql.future_set.max_size"]

    nd, hv = total("pareto.nondominated_points"), total("pareto.hypervolume")
    m["pareto.hypervolume_points.calls"] = total("pareto.hypervolume_points")[0]
    m["pareto.hypervolume_points.ns_per_call"] = per_call("pareto.hypervolume_points")
    m["pareto.nondominated_points.ns_per_call"] = per_call("pareto.nondominated_points")
    m["pareto.nondominated_points.kept_ratio"] = _ratio(nd[3], nd[2])
    m["pareto.hypervolume.ns_per_call"] = per_call("pareto.hypervolume")
    m["pareto.hypervolume.points_per_call"] = _ratio(hv[2], hv[0])
    m["pareto.igd.ns_per_call"] = per_call("pareto.igd")
    m["pareto.load_points.s"] = total("pareto.load_points")[1] / 1e9

    items = [s for s in spans if s[0] in ITEMS]
    evals = [s for s in spans if s[0] == EVAL]
    items_busy = sum(end - start for _, _, start, end, _ in items) / 1e9
    eval_busy = span_s(EVAL)
    m["sweep.evaluate_policy.calls"] = len(evals)
    m["sweep.evaluate_policy.busy_s"] = eval_busy
    m["sweep.evaluate_policy.share"] = _ratio(eval_busy, items_busy)
    m["sweep.evaluate_policy.rollout_steps_per_call"] = _ratio(eval_step[0], len(evals))
    m["sweep.evaluate_policy.truncated_share"] = _ratio(eval_step[2], len(evals))
    m["sweep.items.busy_s"] = items_busy
    if items:
        first, last = min(s[2] for s in items), max(s[3] for s in items)
        workers = len({s[4] for s in items})
        m["sweep.items.wall_s"] = (last - first) / 1e9
        m["sweep.parallel_efficiency"] = _ratio(items_busy, workers * m["sweep.items.wall_s"])
        m["sweep.reduce_s"] = sum(end - last for n, _, _, end, _ in spans if n == "run_sweep") / 1e9
    else:
        m["sweep.items.wall_s"] = m["sweep.parallel_efficiency"] = m["sweep.reduce_s"] = 0.0

    written = total("results.written")
    m["results.write_sweep.s"] = span_s("write_sweep")
    m["results.files_written"] = written[2]
    m["results.bytes_written"] = written[3]
    return m
