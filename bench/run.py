"""gcgmp benchmark: verdict throughput on four workloads, layer metrics on demand.

Run from the repository root (standard library only, nothing to build)::

    python3 bench/run.py --workload tcm-sweep --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, a table
    python3 bench/run.py --workload cross-check --seed 3 --record runs.jsonl
    python3 bench/run.py --compare parent.jsonl change.jsonl

Workloads (defined, with why each was chosen, in ``workloads.py``):
``fig1-deep``, ``tcm-sweep``, ``cross-check``, ``graph-scale``.

Every workload runs in fresh processes started from here with
``PYTHONHASHSEED=0``, so set iteration order, and with it search order
and the traced ``.calls`` counts, does not change from run to run.  With
``--trace 0`` (end-to-end metrics) six set-up-only processes run first;
``setup_s`` is the median, over them and the measuring process, of the
time from starting the process to the first timed query.  With
``--trace 1`` (per-layer metrics) the measuring process runs one untraced
pass, then rebuilds the inputs and runs traced passes with wrappers around
the program's public functions (``tracing.py``); spans are written to
``bench/.out/spans-<workload>.tsv.gz``.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed query (a broken exit
code contract, a traceback, a verdict that disagrees with the workload's
independent reference, or a report that changes between two passes) makes
the command exit 1.  Lines before it start with ``#`` and give the Python
version, the core count, the pass and sample counts and the report
fingerprint.  ``--record FILE`` also appends the result to a JSON-lines
file, which ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, ".out")
WORKLOADS = ("fig1-deep", "tcm-sweep", "cross-check", "graph-scale")
SETUP_SAMPLES = 6  # set-up-only processes per untraced run
DEADLINE_S = 170  # the whole command, set-up processes included

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "decided_ratio": "ratio",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# span names reported as `<name>.calls` and `<name>_s` (self time)
TIMED_LAYERS = (
    "cli.model_digest",
    "model.load", "model.dump", "model.validate", "model.enabled_actions",
    "arith.eval_acf", "arith.validity_counterexample", "arith.normalize_atom",
    "logic.parse_formula", "logic.bind_formula",
    "dynamics.step", "dynamics.explore",
    "checker.bounded", "checker.atl", "checker.pre_states",
    "checker.saturated", "checker.oracle",
    "tcm.encode",
)


def per_layer_units() -> dict:
    units = {"cli.main.calls": "count", "cli.self_s": "s"}
    for name in TIMED_LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}_s"] = "s"
    units.update({
        "checker.bounded.unknown": "count",
        "checker.saturated.useful_ratio": "ratio",
        "checker.oracle.useful_ratio": "ratio",
        "checker.oracle.wasted_s": "s",
        "trace.spans": "count",
        "trace_overhead_ratio": "ratio",
    })
    return units


PER_LAYER = per_layer_units()


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start one worker process; returns (its start time, its JSON line)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "worker.py"), *args],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped it
        raise BenchError(f"worker exceeded the {DEADLINE_S} s deadline") from e
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def _per_layer(raw: dict) -> dict:
    """Per-layer metrics: set-up spans plus the mean traced pass."""
    n = raw["passes"]
    setup, passes = raw["setup_layers"], raw["pass_layers"]

    def calls(name):
        return setup[name]["calls"] + passes[name]["calls"] // n

    def self_s(name):
        return setup[name]["self_s"] + passes[name]["self_s"] / n

    def ratio(name, outcome):
        c = calls(name)
        got = setup[name]["by_outcome"][outcome] + passes[name]["by_outcome"][outcome] // n
        return got / c if c else 0.0

    out = {"cli.main.calls": calls("cli.main"), "cli.self_s": self_s("cli.main")}
    for name in TIMED_LAYERS:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}_s"] = self_s(name)
    bounded = passes["checker.bounded"]["by_outcome"][1] // n
    out["checker.bounded.unknown"] = setup["checker.bounded"]["by_outcome"][1] + bounded
    out["checker.saturated.useful_ratio"] = ratio("checker.saturated", 0)
    out["checker.oracle.useful_ratio"] = ratio("checker.oracle", 0)
    out["checker.oracle.wasted_s"] = (setup["checker.oracle"]["s_by_outcome"][2]
                                      + passes["checker.oracle"]["s_by_outcome"][2] / n)
    out["trace.spans"] = raw["pass_spans"] // n
    out["trace_overhead_ratio"] = statistics.median(raw["pass_s"]) / raw["untraced_pass_s"]
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """Run one workload in fresh processes; returns (record, info lines)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "gcgmp", "__init__.py")):
        raise BenchError(f"no gcgmp sources under {os.path.join(ROOT, 'src')}")
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, workload)
    common = ["--workload", workload, "--seed", str(seed), "--workdir", workdir]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            t0, got = _worker([*common, "--setup-only"], deadline)
            setups.append(got["ready"] - t0)
    spans = os.path.join(OUT, f"spans-{workload}.tsv.gz")  # the latest traced run
    t0, raw = _worker([*common, "--seconds", str(seconds), "--trace", str(trace),
                       "--spans", spans], deadline)
    shutil.rmtree(workdir, ignore_errors=True)
    setups.append(raw["ready"] - t0)

    if trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in _per_layer(raw).items()}
    else:
        # each query's median over the passes, so a pause that hits one pass
        # does not move the percentiles of the population
        lat_ms = [statistics.median(per_query) * 1000 for per_query in zip(*raw["latencies_s"])]
        values = {
            "setup_s": statistics.median(setups),
            "queries_per_s": statistics.median(raw["queries"] / s for s in raw["pass_s"]),
            "query_p50_ms": statistics.median(lat_ms),
            "query_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
            "decided_ratio": raw["decided"] / raw["requested"],
            "ok_ratio": (raw["attempted"] - raw["failed"]) / raw["attempted"],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    rec = {
        "workload": workload, "seed": seed, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "passes": raw["passes"], "fingerprint": raw["fingerprint"],
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    info = [
        f"workload={workload} seed={seed} trace={trace} python={platform.python_version()} "
        f"nproc={os.cpu_count()}",
        f"queries={raw['queries']} passes={raw['passes']} "
        f"latency_samples={raw['queries']}x{raw['passes']} "
        f"setup_samples={len(setups)} pass_s={[round(s, 3) for s in raw['pass_s']]}",
        f"fingerprint={raw['fingerprint']}",
    ]
    if trace:
        info.append(f"spans={raw['spans']} written to {os.path.relpath(spans, ROOT)}")
    info += [f"FAILED {r}" for r in raw["reasons"]]
    return rec, info


def _record(path: str, rec: dict):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="FILE", help="append the result to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="compare two files written by --record")
    args = ap.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(*args.compare, os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload is None:
        ap.error("--workload or --compare is required")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            rec, info = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as e:
            print(f"bench: {name}: {e}", file=sys.stderr)
            return 2
        for line in info:
            print(f"# {line}")
        if args.record:
            _record(args.record, rec)
        results.append(rec)

    if args.workload == "all":
        for rec in results:
            for k, m in rec["metrics"].items():
                print(f"# {rec['workload']:<12} {k:<36} {m['value']:>14.6g} {m['unit']}")
        last = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()},
        }
    else:
        last = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(last))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
