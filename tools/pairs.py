"""Alternating benchmark pairs of two git revisions, standard library only.

Usage::

    python3 tools/pairs.py PARENT CHANGE --workload graph-scale --seeds 1-10
    python3 tools/pairs.py main "$(git stash create)" --workload all --seeds 1-3

Each revision is extracted with ``git archive`` into its own temporary
directory, and each seed runs that tree's own ``bench/run.py --workload W
--seed S --record FILE`` once per side: the parent first on odd seeds and
the change first on even ones.  Both sides use the benchmark's default run
length.  The records are appended to ``parent.jsonl`` and ``change.jsonl``
in ``--out`` (a new temporary directory by default, kept and printed), and the
command ends with ``bench/run.py --compare`` on them, followed by each
workload's median pass count on each side and their ratio: while the
benchmark keeps every pass's outcomes, ``peak_rss_mb`` grows with the pass
count, so a faster change also reads heavier.  ``git stash create``
names a commit of the uncommitted changes to tracked files without touching
the working tree.  The exit status is 1 when a benchmark run failed or the
two sides' report fingerprints differ for a workload and seed, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def extract(rev: str, dest: str):
    """Write the tree of ``rev`` into ``dest``."""
    os.makedirs(dest)
    git = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", rev],
                           stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=git.stdout, check=True)
    git.stdout.close()
    if git.wait():
        raise SystemExit(f"pairs: git archive {rev} failed")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load_runs(path: str) -> list[dict]:
    """The runs in a --record file, none if it was never written."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def median_passes(recs: list[dict]) -> dict:
    """workload -> the median pass count of its runs."""
    by_workload: dict = {}
    for r in recs:
        by_workload.setdefault(r["workload"], []).append(r["passes"])
    return {w: statistics.median(n) for w, n in by_workload.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="git revision measured as the base")
    ap.add_argument("change", help="git revision measured against it")
    ap.add_argument("--workload", required=True, help="a bench/run.py workload, or all")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                    help="inclusive range such as 1-10 (default)")
    ap.add_argument("--out", help="directory for parent.jsonl and change.jsonl")
    args = ap.parse_args(argv)

    out = args.out or tempfile.mkdtemp(prefix="pairs-")
    os.makedirs(out, exist_ok=True)
    records = {side: os.path.join(out, f"{side}.jsonl") for side in ("parent", "change")}
    failed = False
    with tempfile.TemporaryDirectory(prefix="pairs-trees-") as trees:
        tree = {side: os.path.join(trees, side) for side in records}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            extract(rev, tree[side])
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                print(f"pairs: seed {seed} {side}", flush=True)
                cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
                       "--seed", str(seed), "--record", records[side]]
                failed |= subprocess.run(cmd, cwd=tree[side]).returncode != 0
        runs = {side: load_runs(path) for side, path in records.items()}
        prints = {side: {(r["workload"], r["seed"]): r["fingerprint"] for r in recs}
                  for side, recs in runs.items()}
        for key in sorted(prints["parent"]):
            if prints["parent"][key] != prints["change"].get(key):
                print(f"pairs: {key[0]} seed {key[1]}: report fingerprints differ")
                failed = True
        if all(prints.values()):
            subprocess.run([sys.executable, "bench/run.py", "--compare",
                            records["parent"], records["change"]], cwd=tree["change"])
            passes = {side: median_passes(recs) for side, recs in runs.items()}
            for w in sorted(passes["parent"].keys() & passes["change"].keys()):
                p, c = passes["parent"][w], passes["change"][w]
                print(f"pairs: {w} median passes {p:g} -> {c:g} (x{c / p:.2f})")
    print(f"pairs: records in {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
