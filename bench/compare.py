"""Compare two sets of benchmark runs (``run.py --compare PARENT CHANGE``).

Both files are JSON lines written by ``run.py --record``.  For each
workload and metric the table gives each side's median and quartiles over
its runs, the ratio of the change's median to the parent's (the base is
always the parent), and a verdict:

* ``unresolved``: either side's quartile spread, as a share of its median,
  exceeds the metric's bound, and not every change run beats every parent
  run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``better``: at least ten runs a side, the change wins at least nine
  tenths of the runs paired in order, and the medians differ by more than
  the parent's quartile spread;
* ``same``: none of these.

Per-layer metrics have no bound; they get the ratio and ``better``/``same``
only.  Runs are grouped by workload and by traced or untraced.
"""

from __future__ import annotations

import json
import statistics


def _load(path: str) -> dict:
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def _share(x: float, base: float) -> float:
    if base:
        return x / base
    return float("inf") if x else 0.0


def verdict(parent: list[float], change: list[float], better: str, bound) -> str:
    def beats(c, p):
        return c < p if better == "lower" else c > p

    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    all_better = all(beats(c, p) for c in change for p in parent)
    if bound is not None:
        if max(_share(p3 - p1, abs(pm)), _share(c3 - c1, abs(cm))) > bound and not all_better:
            return "unresolved"
        worse_by = _share(cm - pm, abs(pm)) if better == "lower" else _share(pm - cm, abs(pm))
        if worse_by > bound:
            return "worse"
    pairs = list(zip(parent, change))
    wins = sum(beats(c, p) for p, c in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
        return "better"
    return "same"


def main(parent_path: str, change_path: str, benchmark_path: str) -> int:
    with open(benchmark_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = _load(parent_path), _load(change_path)
    print(f"{'workload':<12} {'metric':<36} {'unit':<6} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'change/parent':>13}  verdict")
    worse = 0
    for key in sorted(set(parent) | set(change)):
        workload, trace = key
        if key not in parent or key not in change:
            side = "parent" if key not in parent else "change"
            print(f"{workload:<12} (trace={trace}) no runs on the {side} side")
            continue
        names = sorted(set(parent[key][0]["metrics"]) | set(change[key][0]["metrics"]))
        for name in names:
            p = [r["metrics"][name]["value"] for r in parent[key] if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change[key] if name in r["metrics"]]
            if not p or not c:
                print(f"{workload:<12} {name:<36} missing on one side")
                continue
            spec = specs.get(name, {"unit": "?", "better": "lower"})
            p1, pm, p3 = _quartiles(p)
            c1, cm, c3 = _quartiles(c)
            ratio = f"{cm / pm:.4f}" if pm else "n/a (base 0)"
            v = verdict(p, c, spec["better"], spec.get("bound"))
            worse += v == "worse"
            print(f"{workload:<12} {name:<36} {spec['unit']:<6} "
                  f"{f'{pm:.6g} [{p1:.6g}, {p3:.6g}]':<34} {f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':<34} "
                  f"{ratio:>13}  {v}  (n={len(p)}/{len(c)})")
    return 1 if worse else 0
