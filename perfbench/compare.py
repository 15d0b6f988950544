"""Compare two sets of benchmark runs: a parent and a change.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a results directory written by run.py (`--results`, by
default perfbench/results), holding `<workload>/*.json` records. For each
workload and end-to-end metric it prints each side's median and quartiles
and a verdict against the metric's bound in BENCHMARK.json:

  better      the change wins at least 9 of 10 runs paired by seed (in seed
              order when the seeds differ) and the medians differ by more
              than the parent's quartile distance
  no worse    the change's median is within the bound of the parent's
  worse       the change's median is worse than the parent's by more than
              the bound
  unresolved  a side's quartile distance exceeds the bound, and neither
              side's runs all beat the other's

Then the per-layer metrics of the traced runs of both sides, the tracing
overhead (traced wall time over the untraced median), the share of failed
operations, and whether runs of one seed gave byte-identical reports.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(results: Path) -> dict:
    """workload -> list of records, in seed order."""
    runs = defaultdict(list)
    for path in sorted(results.glob("*/*.json")):
        record = json.loads(path.read_text())
        runs[record["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return runs


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(parent: list[float], change: list[float], bound: float, lower_better: bool) -> str:
    bad = (lambda x: x) if lower_better else (lambda x: -x)
    p_med, p_q1, p_q3 = spread(parent)
    c_med, c_q1, c_q3 = spread(change)
    if max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med) > bound:
        if max(map(bad, change)) < min(map(bad, parent)):
            return "better"
        if min(map(bad, change)) > max(map(bad, parent)):
            return "worse"
        return "unresolved"
    if bad(c_med - p_med) / p_med > bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(bad(c) < bad(p) for p, c in pairs)
    if wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        return "better"
    return "no worse"


def end_to_end(records: list[dict], name: str) -> list[float]:
    return [r["result"]["metrics"][name]["value"] for r in records
            if not r["trace"] and name in r["result"]["metrics"]]


def traced(records: list[dict]) -> dict:
    layers = defaultdict(list)
    for r in records:
        if r["trace"]:
            for name, m in r["result"]["metrics"].items():
                layers[name].append(m["value"])
    return {name: statistics.median(v) for name, v in layers.items()}


def determinism(records: list[dict]) -> list[str]:
    by_seed = defaultdict(set)
    for r in records:
        by_seed[r["seed"]].add(r["report_sha256"])
    return [f"seed {s}: {len(h)} different reports" for s, h in sorted(by_seed.items())
            if len(h) > 1 or None in h]


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    for w in [w["name"] for w in SPEC["workloads"]]:
        p_runs, c_runs = parent.get(w, []), change.get(w, [])
        print(f"== {w}: {len(p_runs)} parent runs, {len(c_runs)} change runs")
        if not p_runs or not c_runs:
            continue
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            p, c = end_to_end(p_runs, name), end_to_end(c_runs, name)
            if not p or not c:
                continue
            (pm, p1, p3), (cm, c1, c3) = spread(p), spread(c)
            v = verdict(p, c, metric["bound"], metric["better"] == "lower")
            print(f"  {name:<12} parent {_fmt(pm)} [{_fmt(p1)}, {_fmt(p3)}] n={len(p)}"
                  f"  change {_fmt(cm)} [{_fmt(c1)}, {_fmt(c3)}] n={len(c)}"
                  f"  {100 * (cm - pm) / pm:+.1f}%  bound {metric['bound']:.0%}  {v}")
        for side, runs in (("parent", p_runs), ("change", c_runs)):
            attempted = sum(r["result"]["attempted"] for r in runs)
            failed = sum(r["result"]["failed"] for r in runs)
            wrong = sum(not r["result"]["correct"] for r in runs)
            print(f"  {side}: {failed}/{attempted} operations failed, {wrong} runs incorrect"
                  + "".join(f"; {d}" for d in determinism(runs)))
        p_layers, c_layers = traced(p_runs), traced(c_runs)
        if p_layers and c_layers:
            print("  per layer (traced runs)       parent        change     delta")
            for metric in SPEC["per_layer"]:
                name = metric["name"]
                a, b = p_layers.get(name), c_layers.get(name)
                if a is None or b is None:
                    continue
                delta = f"{100 * (b - a) / a:+.1f}%" if a else ("" if a == b else "new")
                print(f"    {name:<36} {_fmt(a):>10} {_fmt(b):>10} {delta:>9}"
                      f"  {metric['unit']}")
            for side, layers, runs in (("parent", p_layers, p_runs), ("change", c_layers, c_runs)):
                wall = end_to_end(runs, "wall_s")
                if wall and "trace.wall_s" in layers:
                    base = statistics.median(wall)
                    print(f"  {side} tracing overhead: {_fmt(layers['trace.wall_s'])}s traced "
                          f"against {_fmt(base)}s untraced "
                          f"({100 * (layers['trace.wall_s'] / base - 1):+.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
