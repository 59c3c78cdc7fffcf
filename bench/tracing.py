"""Spans around the program's public functions, for the traced run only.

``install`` rebinds, in each calling module, the names that module looks
up (``gcgmp.cli.check_bounded``, ``gcgmp.checker.step``,
``gcgmp.model.Gcgmp.enabled_actions``, ...) to wrappers that record one
span per call; ``uninstall`` puts the originals back.  Nothing in
``src/gcgmp`` changes.  Only the names other modules call through are
wrapped, so a function's calls to itself (``eval_acf`` recursing into a
conjunction) stay inside its own span.

A span is (name, start, end, parent span, query id, outcome); spans stay in
memory in flat arrays and are written out by ``Tracer.write`` at the end.
A layer's self time is its spans' durations minus the time covered by
their direct child spans.  Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array

from gcgmp import arith, checker, cli, dynamics, logic, model, tcm
from gcgmp.errors import TooLarge

# span name -> the (owner, attribute) pairs it is installed at.  The owner
# is the module (or class) whose code looks the name up at call time.
TARGETS = {
    "cli.main": [(cli, "main")],
    "cli.model_digest": [(cli, "model_digest")],
    "model.load": [(cli, "load_model"), (cli, "builtin_fig1")],
    "model.dump": [(cli, "dump_model")],
    "model.validate": [(cli, "validate"), (model, "validate")],
    "model.enabled_actions": [(model.Gcgmp, "enabled_actions")],
    "arith.eval_acf": [(model, "eval_acf"), (dynamics, "eval_acf")],
    "arith.validity_counterexample": [(arith, "validity_counterexample")],
    "arith.normalize_atom": [(checker, "normalize_atom")],
    "logic.parse_formula": [(cli, "parse_formula"), (tcm, "parse_formula"), (logic, "parse_formula")],
    "logic.bind_formula": [(cli, "bind_formula"), (tcm, "bind_formula"), (logic, "bind_formula")],
    "dynamics.step": [(cli, "step"), (checker, "step"), (dynamics, "step")],
    "dynamics.explore": [(cli, "explore")],
    "checker.bounded": [(cli, "check_bounded"), (checker, "check_bounded")],
    "checker.atl": [(cli, "check_atl"), (checker, "check_atl")],
    "checker.pre_states": [(checker, "pre_states")],
    "checker.saturated": [(cli, "check_saturated"), (checker, "check_saturated")],
    "checker.oracle": [(checker, "enumerate_oracle")],
    "tcm.encode": [(cli, "encode")],
}

NAMES = tuple(TARGETS)

# outcome codes
RETURNED, UNKNOWN, TOO_LARGE, RAISED = 0, 1, 2, 3


class Tracer:
    def __init__(self):
        self.name = array("H")
        self.parent = array("l")
        self.query = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("b")
        self.current = -1
        self.qid = -1  # -1 while building inputs
        self._saved = []

    def __len__(self):
        return len(self.name)

    def _wrap(self, fn, name_id):
        spans = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # children append their own rows before this call returns, so
            # the row is reserved now and its end filled in by index
            idx = len(spans.name)
            parent = spans.current
            spans.name.append(name_id)
            spans.parent.append(parent)
            spans.query.append(spans.qid)
            spans.end.append(0.0)
            spans.outcome.append(RETURNED)
            spans.current = idx
            spans.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
                if getattr(result, "value", True) is None:  # an unknown Verdict
                    spans.outcome[idx] = UNKNOWN
                return result
            except TooLarge:
                spans.outcome[idx] = TOO_LARGE
                raise
            except BaseException:
                spans.outcome[idx] = RAISED
                raise
            finally:
                spans.end[idx] = time.perf_counter()
                spans.current = parent

        return traced

    def install(self):
        for name_id, name in enumerate(NAMES):
            wrapped = {}
            for owner, attr in TARGETS[name]:
                original = owner.__dict__[attr]
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(original, name_id)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def summary(self, first: int, last: int) -> dict:
        """Per span name, over spans ``first`` to ``last - 1``: calls, self
        time, inclusive time, and counts and time by outcome.

        Spans are numbered at entry, so a parent precedes its children; the
        range must start at a root span (set-up and passes do).
        """
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                      "by_outcome": [0, 0, 0, 0], "s_by_outcome": [0.0] * 4}
               for name in NAMES}
        for i in range(first, last):
            row = out[NAMES[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i - first]
            row["by_outcome"][self.outcome[i]] += 1
            row["s_by_outcome"][self.outcome[i]] += dur
        return out

    def write(self, path: str):
        """Write every span as one tab-separated line, gzip-compressed:
        name, start_s, end_s, parent, query, outcome (times relative to the
        first span's start)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\tquery\toutcome\n")
            for i in range(len(self.name)):
                fh.write(f"{NAMES[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.query[i]}\t"
                         f"{self.outcome[i]}\n")
