"""One workload in one fresh process: set up, run passes, check, report.

Started by ``run.py``, never by hand.  Prints one JSON line on stdout:

* ``--setup-only``: the moment set-up finished, so the parent can time
  interpreter start, ``import gcgmp`` and input building;
* otherwise: per-pass times, per-query latencies, verdict counts,
  failures, fingerprints, peak RSS and, with ``--trace 1``, the per-layer
  summary of the traced passes.

A pass runs the workload's whole population once, in order, as a closed
loop from this one thread.  Passes repeat until ``--seconds`` would be
exceeded by another one; an untraced run makes at least two, so their
reports can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import workloads  # noqa: E402  (needs the paths above)


def run_pass(wl, tracer=None):
    """Run every query once, in order; returns (pass seconds, each query's
    latency, outcomes)."""
    latencies, outcomes = [], []
    t_pass = time.perf_counter()
    for q in wl.queries:
        if tracer is not None:
            tracer.qid = q.qid
        t = time.perf_counter()
        o = q.run()
        latencies.append(time.perf_counter() - t)
        outcomes.append(o)
    if tracer is not None:
        tracer.qid = -1
    return time.perf_counter() - t_pass, latencies, outcomes


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def judge(wl, passes) -> tuple[int, list[str], str]:
    """Failed query count, the first failure reasons, and the workload digest.

    A query fails when it broke the program's contract, when its first
    outcome disagrees with the reference, or when a later pass produced a
    different report.
    """
    failed, reasons = 0, []
    first = passes[0]
    for i, q in enumerate(wl.queries):
        for outcomes in passes:
            o = outcomes[i]
            why = o.error
            if why is None and o is first[i]:
                why = q.check(o)
            if why is None and o.report != first[i].report:
                why = "report differs between passes"
            if why is not None:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{q.label}: {why}")
    by_qid = sorted((q.qid, _sha256(o.report)) for q, o in zip(wl.queries, first))
    return failed, reasons, _sha256("\n".join(d for _, d in by_qid))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    shutil.rmtree(args.workdir, ignore_errors=True)
    os.makedirs(args.workdir)
    os.chdir(args.workdir)  # CLI queries name their files relative to here
    wl = workloads.BY_NAME[args.workload](args.seed, args.workdir)
    # the population outlives every query; keep the collector from
    # rescanning it, as it would not exist in a process serving one query
    gc.freeze()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    result = {"ready": ready, "queries": len(wl.queries)}
    tracer = None
    if args.trace:
        # one untraced pass as the base of the overhead ratio, then the same
        # inputs rebuilt and run with every wrapper installed
        untraced_s, _, _ = run_pass(wl)
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            wl = workloads.BY_NAME[args.workload](args.seed, args.workdir)
            gc.freeze()
            setup_spans = len(tracer)
        except BaseException:
            tracer.uninstall()
            raise
        result["untraced_pass_s"] = untraced_s

    # traced passes are slow and their reports are not compared
    min_passes = 1 if tracer is not None else 2
    passes, pass_s, latencies = [], [], []  # latencies: one list per pass
    t_start = time.perf_counter()
    try:
        while True:
            seconds, lat, outcomes = run_pass(wl, tracer)
            passes.append(outcomes)
            pass_s.append(seconds)
            latencies.append(lat)
            elapsed = time.perf_counter() - t_start
            if len(passes) >= min_passes and elapsed + min(pass_s) > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    failed, reasons, fingerprint = judge(wl, passes)
    first = passes[0]
    result.update({
        "passes": len(passes),
        "pass_s": pass_s,
        "latencies_s": latencies,
        "requested": sum(o.requested for o in first),
        "decided": sum(o.decided for o in first),
        "attempted": len(wl.queries) * len(passes),
        "failed": failed,
        "reasons": reasons,
        "fingerprint": fingerprint,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tracer is not None:
        result["setup_layers"] = tracer.summary(0, setup_spans)
        result["pass_layers"] = tracer.summary(setup_spans, len(tracer))
        result["spans"] = len(tracer)
        result["pass_spans"] = len(tracer) - setup_spans
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
