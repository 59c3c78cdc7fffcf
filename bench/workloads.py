"""The four benchmark workloads: seeded inputs, timed queries, references.

Each ``build_*`` function turns a seed into a fixed population of queries.
Building the population is set-up (it counts towards ``setup_s``); a query's
``run`` is the timed call into the program; its ``check`` compares the
outcome with an independent reference and runs outside the timed region.

The program is driven only through public entry points: ``gcgmp.cli.main``
called in-process, and the public functions of ``checker``, ``model``,
``tcm`` and ``logic``.  Every call goes through the module attribute (for
example ``cli.main``, ``checker.check_atl``) so that a traced run, which
rebinds those attributes, sees it.

Query counts, the layers each workload loads and the ones it bypasses
(the comment above each ``build_*`` says why it was chosen):

* ``fig1-deep``, 8 queries: ``checker.bounded`` (over 90% of a pass);
  bypasses ``model``, ``cli``, ``tcm`` and the fixpoint engines.
* ``tcm-sweep``, 476 queries: ``cli``, ``model`` (dump and load),
  ``logic``, ``tcm``, ``arith`` validity checks, all three engines via
  auto dispatch; bypasses deep search.
* ``cross-check``, 361 queries: ``checker.oracle``, ``dynamics.step``,
  ``model.enabled_actions``, every engine; bypasses ``cli`` and files.
* ``graph-scale``, 33 queries: ``checker.atl`` and ``pre_states``,
  ``checker.saturated`` and ``arith.normalize_atom``, model construction
  in set-up; bypasses ``cli``, the bounded engine and the oracle.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from gcgmp import arith, checker, cli, logic, model, tcm
from gcgmp.dynamics import Configuration, initial_config
from gcgmp.errors import (
    FragmentError,
    NotMonotone,
    TooLarge,
    VariableVsVariableAtom,
)

WORKLOADS = ("fig1-deep", "tcm-sweep", "cross-check", "graph-scale")


@dataclass
class Outcome:
    """What one query produced.

    ``report`` is the canonical text the fingerprint hashes (CLI reports
    without ``wall_ms``).  ``requested`` counts verdicts asked for and
    ``decided`` the definite ones among them.  ``error`` is set when the
    call broke the program's contract (exit code outside 0/1/2/3, a
    traceback, an exception escaping a public function).
    """

    report: str
    requested: int = 0
    decided: int = 0
    error: Optional[str] = None
    data: object = None


@dataclass
class Query:
    qid: int  # position in the unshuffled population, stable across seeds
    label: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], Optional[str]]  # failure reason, or None


@dataclass
class Workload:
    name: str
    queries: list[Query]


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# --- calling the CLI in-process ----------------------------------------------


@dataclass
class CliResult:
    code: Optional[int]
    doc: Optional[dict]
    error: Optional[str]


def call_cli(argv: list[str]) -> CliResult:
    """Run ``gcgmp.cli.main(argv)`` with captured stdout/stderr.

    Enforces the exit-code contract: codes 0-3 only, no traceback on
    stderr, and one JSON document on stdout for codes 0 and 1.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects a flag
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a crash is a finding, not a benchmark abort
            return CliResult(None, None, f"{type(e).__name__}: {e}")
    if code not in (0, 1, 2, 3):
        return CliResult(code, None, f"exit code {code!r} outside 0/1/2/3")
    if "Traceback" in err.getvalue():
        return CliResult(code, None, "traceback on stderr")
    if code in (0, 1):
        try:
            doc = json.loads(out.getvalue())
        except json.JSONDecodeError:
            return CliResult(code, None, "stdout is not one JSON document")
        doc.pop("wall_ms", None)
        return CliResult(code, doc, None)
    return CliResult(code, None, None)


def _cli_outcome(res: CliResult, wants_verdict: bool) -> Outcome:
    if res.error is not None:
        return Outcome("", requested=int(wants_verdict), error=res.error)
    if res.code != 0:
        return Outcome("", requested=int(wants_verdict), error=f"exit code {res.code}")
    decided = int(wants_verdict and res.doc.get("verdict") in ("true", "false"))
    return Outcome(_canonical(res.doc), int(wants_verdict), decided, data=res.doc)


# --- fig1-deep ---------------------------------------------------------------
#
# Why: one small model (the bundled fig1) searched deeply, so over 90% of a
# pass is the bounded engine with its per-query caches warm; the cli and
# model layers do almost nothing.  It is the workload that shows a faster
# bounded engine (ROADMAP item 5) and that must not move when only the
# fixpoint core or the CLI changes.  Queries that exhaust the 2M-node budget
# (for example <<II>> G (v_II >= 0) at depth 60, 28 s, unknown) are left
# out: one of them would be most of a pass.  The seed shuffles the order.

RICH = "<<I,II>>(true U (p1 & v_I > 100 & v_II > 100))"
SAFETY = "<<I>> G (p1 | v_I > 0)"

# (formula, depth, sp, so, pinned verdict, pinned bound_used).  The rich
# query is about 70% of a pass; the variants are kept cheap so that a run
# holds several passes.
FIG1_CHECKS = [
    (RICH, 120, "ml-config", "ml-config", "true", 64),
    (SAFETY, 150, "ml-config", "ml-config", "false", 8),
    ("<<I,II>>(true U (p1 & v_I > 20 & v_II > 20))", 60, "ml-config", "pr-state", "true", 16),
    ("<<I,II>>(true U (p1 & v_I > 12 & v_II > 12))", 60, "pr-config", "pr-config", "true", 8),
    ("<<I,II>>(true U (p1 & v_I > 12 & v_II > 12))", 60, "pr-state", "ml-state", "true", 8),
    (SAFETY, 150, "pr-config", "ml-config", "false", 8),
    ("<<I,II>> G (v_I >= 0 & v_II >= 0)", 40, "ml-config", "ml-config", "true", 8),
]
FIG1_GRAPH_BOUND = 18
FIG1_GRAPH_NODES = 5931  # reachable configurations within 18 steps


def _fig1_check(formula, sp, so, want, want_bound):
    fig1 = model.builtin_fig1()
    f = logic.bind_formula(fig1, logic.parse_formula(formula))
    so_spec = logic.StrategyClassSpec.parse(so)

    def check(o: Outcome) -> Optional[str]:
        doc = o.data
        if doc.get("verdict") != want or doc.get("bound_used") != want_bound:
            return (f"verdict {doc.get('verdict')}@{doc.get('bound_used')}, "
                    f"pinned {want}@{want_bound}")
        if want == "false":
            return None if doc.get("counterexample") else "false verdict without counterexample"
        w = doc.get("witness")
        if not w:
            return "true verdict without witness"
        table = checker.StrategyTable(
            logic.StrategyClassSpec.parse(w["class"]), tuple(w["coalition"]), w["moves"]
        )
        c0 = initial_config(fig1, "s1")
        if not checker.replay_strategy_table(fig1, c0, f, table, so_spec, want_bound):
            return "witness does not replay"
        return None

    return check


def build_fig1_deep(seed: int, workdir: str) -> Workload:
    queries = []
    for qid, (formula, depth, sp, so, want, bound) in enumerate(FIG1_CHECKS):
        argv = ["check", "builtin:fig1", formula, "--depth", str(depth), "--sp", sp, "--so", so]
        queries.append(Query(
            qid, f"check {formula} d={depth} {sp}/{so}",
            lambda argv=argv: _cli_outcome(call_cli(argv), True),
            _fig1_check(formula, sp, so, want, bound),
        ))

    graph_argv = ["export-graph", "builtin:fig1", "--bound", str(FIG1_GRAPH_BOUND), "-o", "fig1.dot"]

    def check_graph(o: Outcome) -> Optional[str]:
        if o.data.get("nodes") != FIG1_GRAPH_NODES:
            return f"{o.data.get('nodes')} nodes, pinned {FIG1_GRAPH_NODES}"
        return None

    queries.append(Query(
        len(queries), "export-graph --bound 18",
        lambda: _cli_outcome(call_cli(graph_argv), False),
        check_graph,
    ))
    random.Random(seed).shuffle(queries)
    return Workload("fig1-deep", queries)


# --- tcm-sweep ---------------------------------------------------------------
#
# Why: about 476 fresh small models, each going through `encode-tcm -o`
# then `check --depth 18` with the auto engine, so the cli (argparse,
# report, digest), model (dump and load), logic (parse, bind) and tcm
# layers dominate, and auto dispatch spreads the instances over the atl,
# saturated and bounded engines.  It bypasses deep search.  The reference is
# the machine-level breadth-first search `tcm.halting_search`: a machine
# that halts within 8 steps must verify true, and one that does not must
# never come out true.  Interpreter start is paid once, in setup_s; a shell
# user pays it on every call.


def _one_transition_machines() -> list:
    """Every machine over states {A, B, F} (initial A, final F) with exactly
    one transition: 3 sources x 3 targets x 25 test/effect patterns."""
    out = []
    for src, dst in itertools.product("ABF", repeat=2):
        for t1, t2 in itertools.product((0, 1), repeat=2):
            # a zero-tested counter cannot be decremented
            for c1 in ((0, 1) if t1 == 0 else (-1, 0, 1)):
                for c2 in ((0, 1) if t2 == 0 else (-1, 0, 1)):
                    out.append(tcm.make_machine(
                        ["A", "B", "F"], "A", ["F"], [(src, t1, t2, dst, c1, c2)]
                    ))
    return out


def _counter_chain(k: int, rng: random.Random):
    """A deterministic machine whose only run halts after exactly ``k`` steps.

    States q0..q{k-1} then F.  Each step moves one counter (chosen by the
    seed) up from zero or back down to zero, and tests the zero pattern it
    starts from, so the game's zero-claims are exercised both ways.
    """
    states = [f"q{i}" for i in range(k)] + ["F"]
    counters = [0, 0]
    rows = []
    for i in range(k):
        c = rng.randrange(2)
        eff = [0, 0]
        eff[c] = -1 if counters[c] else 1
        tests = [int(counters[0] > 0), int(counters[1] > 0)]
        rows.append((states[i], tests[0], tests[1], states[i + 1], eff[0], eff[1]))
        counters[c] += eff[c]
    return tcm.make_machine(states, "q0", ["F"], rows)


def _nonhalting_machines() -> list:
    st = ["A", "B", "F"]
    return [
        tcm.make_machine(st, "A", ["F"], [("A", 0, 0, "A", 0, 0)]),  # idles
        tcm.make_machine(st, "A", ["F"], []),  # no move at all
        tcm.make_machine(st, "A", ["F"], [("A", 0, 1, "F", 0, 0)]),  # false claim
        tcm.make_machine(  # counts up forever
            st, "A", ["F"], [("A", 0, 0, "A", 1, 0), ("A", 1, 0, "B", 1, 0), ("B", 1, 0, "A", 0, 0)]
        ),
        tcm.make_machine(  # shuttles between A and B forever
            st, "A", ["F"], [("A", 0, 0, "B", 0, 1), ("B", 0, 1, "A", 0, -1)]
        ),
    ]


def _tcm_query(qid, path, variant, halts_within):
    out_path = f"g{qid:04d}.json"

    def run() -> Outcome:
        enc = call_cli(["encode-tcm", path, "--variant", variant, "-o", out_path])
        if enc.error is not None or enc.code != 0:
            return _cli_outcome(enc, True)
        init = enc.doc["init"]
        init_arg = f"{init['state']}:{','.join(init['utilities'])}"
        got = _cli_outcome(
            call_cli(["check", out_path, enc.doc["formula"], "--depth", "18", "--init", init_arg]),
            True,
        )
        got.report = _canonical(enc.doc) + "\n" + got.report
        return got

    def check(o: Outcome) -> Optional[str]:
        verdict = o.data.get("verdict")
        if halts_within and verdict != "true":
            return f"machine halts but the {variant} encoding checked {verdict}"
        if not halts_within and verdict == "true":
            return f"machine never halts but the {variant} encoding checked true"
        return None

    return Query(qid, f"{path} {variant}", run, check)


def build_tcm_sweep(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    machines = _one_transition_machines()
    machines += [_counter_chain(k, rng) for k in range(1, 9)]
    machines += _nonhalting_machines()
    queries = []
    for i, m in enumerate(machines):
        path = f"m{i:03d}.json"
        tcm.dump_tcm(m, os.path.join(workdir, path))
        # the reference: 8 machine steps are 16 game steps, inside depth 18;
        # every machine here either halts within 8 steps or never halts
        halts = isinstance(tcm.halting_search(m, 9), tcm.Halts)
        for variant in tcm.VARIANTS:
            queries.append(_tcm_query(len(queries), path, variant, halts))
    rng.shuffle(queries)
    return Workload("tcm-sweep", queries)


# --- cross-check -------------------------------------------------------------
#
# Why: the brute-force `checker.enumerate_oracle` (depth 4) is the reference
# here and also most of the cost, as it is in the test suite, where 14
# oracle calls that end in TooLarge after 60k plays take 57 s of a 67 s
# criterion.  Each instance is a seeded tiny model and formula; it runs every
# engine that accepts it (bounded at depth 4; saturated on non-negative
# models; atl when the formula is constraint-free and every guard always
# holds) plus the oracle, and every definite verdict must agree.  The
# oracle calls `dynamics.step` and `Gcgmp.enabled_actions` uncached, so
# those layers load here; the cli is bypassed.
#
# Oracle cost is heavy-tailed: an instance where both agents have two
# actions under a coalition modality may spend 3-5 s and end in TooLarge.
# A purely random population therefore varies by several seconds from seed
# to seed.  To keep a pass steady the population is stratified: random
# instances come only from shapes whose oracle calls finish in milliseconds
# (at most one agent with two actions, nesting bounded by shape), and one
# pinned "wide" instance is built so that the oracle always spends its whole
# play budget and refuses, which is the waste `checker.oracle.wasted_s`
# measures.

CROSS_RANDOM = 360
CROSS_DEPTH = 4


def _tiny_model(rng: random.Random, nonneg: bool, widths: tuple[int, int]):
    agents = ["a", "b"]
    states = [f"s{i}" for i in range(rng.randint(1, 3))]
    actions = {ag: ["x", "y"][:w] for ag, w in zip(agents, widths)}
    trans, pays, guards = [], [], []
    for s in states:
        for prof in itertools.product(*(actions[a] for a in agents)):
            profile = dict(zip(agents, prof))
            trans.append({"from": s, "profile": profile, "to": rng.choice(states)})
            lo = 0 if nonneg else -2
            pays.append({
                "state": s, "profile": profile,
                "values": {a: str(rng.randint(lo, 2)) for a in agents},
            })
    for ag in agents:
        for s in states:
            # the first action stays unguarded, so no utility is left without a move
            for act in actions[ag][1:]:
                if rng.random() < 0.6:
                    op = rng.choice([">=", "<=", ">"])
                    guards.append({"agent": ag, "state": s, "action": act,
                                   "formula": f"v_{ag} {op} {rng.randint(0, 3)}"})
    labels = {s: [p for p in ("p", "q") if rng.random() < 0.5] for s in states}
    return model.model_from_dict({
        "agents": agents, "states": states, "actions": actions,
        "transitions": trans, "payoffs": pays, "labels": labels,
        "guards": guards, "value_semantics": "mean",
    })


def _atom(rng: random.Random) -> str:
    if rng.random() < 0.4:
        return rng.choice(["p", "q", "true"])
    op = rng.choice(["<", "<=", "=", ">=", ">"])
    return f"v_{rng.choice('ab')} {op} {rng.randint(0, 3)}"


def _state_formula(rng: random.Random, coalitions: int) -> str:
    """A random state formula with exactly ``coalitions`` nested modalities."""
    if coalitions == 0:
        r = rng.random()
        if r < 0.6:
            return _atom(rng)
        if r < 0.8:
            return f"!({_atom(rng)})"
        return f"({_atom(rng)}) & ({_atom(rng)})"
    inner = _state_formula(rng, coalitions - 1)
    coal = rng.choice(["", "a", "b", "a,b"])
    body = rng.random()
    if body < 0.33:
        g = f"<<{coal}>>X ({inner})"
    elif body < 0.66:
        g = f"<<{coal}>>G ({inner})"
    else:
        g = f"<<{coal}>>(({inner}) U ({_atom(rng)}))"
    return f"!({g})" if rng.random() < 0.2 else g


# (action widths of the two agents, modalities) -> instances per 12; every
# shape here keeps the oracle's enumeration in the millisecond range
CROSS_SHAPES = [
    ((1, 1), 0, 1), ((1, 1), 1, 2), ((1, 1), 2, 2),
    ((1, 2), 0, 1), ((2, 1), 0, 1), ((1, 2), 1, 2), ((2, 1), 1, 2),
    ((2, 2), 0, 1),
]


# payoff of (a, b) per profile of the wide instance
WIDE_PAYOFFS = {("x", "x"): ("1", "2"), ("x", "y"): ("3", "1"),
                ("y", "x"): ("2", "3"), ("y", "y"): ("1", "1")}
WIDE_FORMULA = "<<b>>X (v_b > 10)"


def _wide_instance():
    """Both agents choose between two actions at a single state and every
    profile pays both strictly, so no configuration repeats and the oracle
    enumerates configuration-based strategies until its budget runs out.
    Pinned rather than seeded: its cost is most of a pass, and a seeded
    variant varies by a second from seed to seed."""
    doc = {
        "agents": ["a", "b"], "states": ["s0"],
        "actions": {"a": ["x", "y"], "b": ["x", "y"]},
        "transitions": [{"from": "s0", "profile": {"a": p[0], "b": p[1]}, "to": "s0"}
                        for p in WIDE_PAYOFFS],
        "payoffs": [{"state": "s0", "profile": {"a": p[0], "b": p[1]},
                     "values": {"a": v[0], "b": v[1]}} for p, v in WIDE_PAYOFFS.items()],
        "labels": {"s0": ["p"]},
        "guards": [], "value_semantics": "mean",
    }
    return model.model_from_dict(doc), WIDE_FORMULA


def _engines(m, c0, f, nonneg):
    """Verdicts of every engine that accepts the instance (None = unknown)."""
    verdicts = {}
    try:
        verdicts["bounded"] = checker.check_bounded(
            m, c0, f, logic.ML_CONFIG, logic.ML_CONFIG, checker.Budget(CROSS_DEPTH)
        ).value
    except FragmentError:
        pass
    if nonneg:
        try:
            verdicts["saturated"] = checker.check_saturated(m, c0, f).value
        except (NotMonotone, VariableVsVariableAtom, FragmentError):
            pass
    if logic.classify(f) is logic.FragmentTag.ATL_PURE and all(
        arith.validity_counterexample(g) is None for g in m.guards.values()
    ):
        verdicts["atl"] = c0.state in checker.check_atl(m, f)
    try:
        verdicts["oracle"] = checker.enumerate_oracle(
            m, c0, f, logic.ML_CONFIG, logic.ML_CONFIG, depth=CROSS_DEPTH
        ).value
    except TooLarge:
        verdicts["oracle"] = "too-large"
    except FragmentError:
        pass
    return verdicts


def _cross_query(qid, label, m, text, nonneg):
    f = logic.bind_formula(m, logic.parse_formula(text))
    c0 = Configuration(m.states[0], (Fraction(0), Fraction(0)))

    def run() -> Outcome:
        try:
            verdicts = _engines(m, c0, f, nonneg)
        except Exception as e:  # an engine crash is a failed query
            return Outcome("", requested=1, error=f"{type(e).__name__}: {e}")
        shown = {k: {True: "true", False: "false", None: "unknown"}.get(v, v)
                 for k, v in verdicts.items()}
        decided = sum(v in (True, False) for v in verdicts.values())
        return Outcome(_canonical({"formula": text, "verdicts": shown}),
                       requested=len(verdicts), decided=decided, data=verdicts)

    def check(o: Outcome) -> Optional[str]:
        definite = {k: v for k, v in o.data.items() if v in (True, False)}
        if len(set(definite.values())) > 1:
            return f"engines disagree on {text}: {definite}"
        return None

    return Query(qid, label, run, check)


def build_cross_check(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    queries = []
    while len(queries) < CROSS_RANDOM:
        for widths, modalities, count in CROSS_SHAPES:
            for _ in range(count):
                if len(queries) >= CROSS_RANDOM:
                    break
                nonneg = len(queries) % 2 == 0
                m = _tiny_model(rng, nonneg, widths)
                text = _state_formula(rng, modalities)
                queries.append(_cross_query(
                    len(queries), f"tiny {widths} {text}", m, text, nonneg
                ))
    m, text = _wide_instance()
    queries.append(_cross_query(len(queries), f"wide {text}", m, text, True))
    rng.shuffle(queries)
    return Workload("cross-check", queries)


# --- graph-scale -------------------------------------------------------------
#
# Why: the only workload that reaches the fixpoint core and the
# size-dependent model work.  Library calls on generated models of growing
# size: `checker.check_atl` on rings whose U/G fixpoints iterate about n/2
# or n times (each iteration re-scans every state, so the cost is
# quadratic), and `checker.check_saturated` on guarded non-negative "work
# then move" chains with growing guard constants, where every saturated
# evaluation normalizes atoms again.  Set-up builds every model with
# `model_from_dict` and validates a 1,200-state ring with `model.validate`,
# so work moved into model construction shows in setup_s.  It bypasses the
# cli, the bounded engine and the oracle.  References, computed outside
# timing: closed-form winning sets for the rings and an independent
# clamped-graph fixpoint for the saturated instances.

RING_SIZES = (100, 150, 200, 250, 300)
BIG_RING = 1200
# (states, largest guard constant)
WORK_CHAINS = ((12, 2), (14, 2), (16, 3), (18, 3), (20, 4), (22, 4))


def _ring(n: int, rng: random.Random):
    """Turn-based ring r0..r{n-1}; the owner of a state may stay or advance.

    One state, chosen by the seed, is labelled ``goal``.  Player B owns the
    states n//2 and 3n//4 steps before the goal; A owns the rest.  The
    state list is shuffled by the seed.
    """
    goal = rng.randrange(n)
    owner_b = {(goal - n // 2) % n, (goal - 3 * n // 4) % n}
    names = [f"r{i}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    avail, trans, pays = {}, [], []
    for i in range(n):
        s, nxt = names[i], names[(i + 1) % n]
        mover = "B" if i in owner_b else "A"
        avail[s] = {"A": ["stay", "go"], "B": ["wait"]} if mover == "A" else \
            {"A": ["wait"], "B": ["stay", "go"]}
        for a_act in avail[s]["A"]:
            for b_act in avail[s]["B"]:
                prof = {"A": a_act, "B": b_act}
                to = nxt if "go" in (a_act, b_act) else s
                trans.append({"from": s, "profile": prof, "to": to})
                pays.append({"state": s, "profile": prof, "values": {"A": "0", "B": "0"}})
    doc = {
        "agents": ["A", "B"], "states": [names[i] for i in order],
        "actions": {"A": ["go", "stay", "wait"], "B": ["go", "stay", "wait"]},
        "available": avail, "transitions": trans, "payoffs": pays,
        "labels": {names[goal]: ["goal"]}, "guards": [], "value_semantics": "total",
    }
    return model.model_from_dict(doc), goal, owner_b


def _ring_reference(n, goal, owner_b, which):
    """Closed-form winning sets on the ring.

    A forces the goal exactly from the goal and the unbroken run of
    A-owned states right before it; with a single mover per state the game
    is determined, so B avoids the goal forever everywhere else; the grand
    coalition reaches the goal from everywhere.
    """
    if which == "grand":
        return {f"r{i}" for i in range(n)}
    reach = {goal}
    i = (goal - 1) % n
    while i != goal and i not in owner_b:
        reach.add(i)
        i = (i - 1) % n
    if which == "reach":
        return {f"r{i}" for i in reach}
    return {f"r{i}" for i in range(n) if i not in reach}


RING_FORMULAS = (
    ("reach", "<<A>>(true U goal)"),
    ("avoid", "<<B>> G !goal"),
    ("grand", "<<A,B>>(true U goal)"),
)


def _ring_query(qid, n, m, goal, owner_b, which, text):
    f = logic.bind_formula(m, logic.parse_formula(text))

    def run() -> Outcome:
        try:
            won = checker.check_atl(m, f)
        except Exception as e:
            return Outcome("", requested=1, error=f"{type(e).__name__}: {e}")
        return Outcome(_canonical({"n": n, "formula": text, "winning": sorted(won)}),
                       requested=1, decided=1, data=won)

    def check(o: Outcome) -> Optional[str]:
        want = _ring_reference(n, goal, owner_b, which)
        return None if set(o.data) == want else f"ring {n} {text}: winning set differs"

    return Query(qid, f"atl ring {n} {text}", run, check)


def _work_chain(n: int, k: int, rng: random.Random):
    """States c0..c{n-1}; at each, both players either work (+1 to their
    own utility) or move, and the play advances when both move.  Moving is
    guarded by a threshold on the mover's utility: A's thresholds cycle
    0..k along the chain and B's cycle k..0, from an offset the seed picks.
    (Independent random thresholds change the capped graph's size, and the
    cost, twofold from seed to seed.)  The last state is labelled ``goal``
    and absorbs."""
    names = [f"c{i}" for i in range(n)]
    offset = rng.randrange(k + 1)
    trans, pays, guards = [], [], []
    for i, s in enumerate(names):
        nxt = names[min(i + 1, n - 1)]
        for a_act, b_act in itertools.product(("work", "move"), repeat=2):
            prof = {"A": a_act, "B": b_act}
            to = nxt if (a_act, b_act) == ("move", "move") else s
            trans.append({"from": s, "profile": prof, "to": to})
            pays.append({"state": s, "profile": prof, "values": {
                "A": "1" if a_act == "work" else "0",
                "B": "1" if b_act == "work" else "0",
            }})
        step = (i + offset) % (k + 1)
        for ag, bar in (("A", step), ("B", k - step)):
            guards.append({"agent": ag, "state": s, "action": "move",
                           "formula": f"v_{ag} >= {bar}"})
    doc = {
        "agents": ["A", "B"], "states": names,
        "actions": {"A": ["move", "work"], "B": ["move", "work"]},
        "transitions": trans, "payoffs": pays,
        "labels": {names[-1]: ["goal"]}, "guards": guards, "value_semantics": "total",
    }
    return model.model_from_dict(doc)


def _work_formulas(k: int):
    return (
        f"<<A,B>>(true U (goal & v_A > {k}))",
        "<<A>>(true U goal)",
        f"<<B>> G (!goal | v_B >= {k})",
    )


def clamped_verdict(m, c0, f) -> bool:
    """Decide ``f`` at ``c0`` by explicit fixpoints over the configuration
    graph with utilities clamped above every constant in play.

    Independent of the saturation engine: payoffs are non-negative, so a
    utility that passes the largest constant (plus a margin) never comes
    back below it, and clamping cannot change any comparison.
    """
    cap = 2 + max((sum(abs(s) for s in a.lhs.summands + a.rhs.summands
                       if isinstance(s, Fraction))
                   for a in logic.constraint_atoms(f, m)), default=0)
    root = (c0.state, tuple(min(u, cap) for u in c0.utilities))
    moves: dict = {}
    todo = [root]
    while todo:
        node = todo.pop()
        if node in moves:
            continue
        state, us = node
        pools = [
            [act for act in m.available_of(ag, state)
             if arith.eval_acf(m.guard_of(ag, state, act), {ag: us[i]})]
            for i, ag in enumerate(m.agents)
        ]
        outs = []
        for prof in itertools.product(*pools):
            pay = m.payoffs[(state, prof)]
            nxt = (m.transitions[(state, prof)],
                   tuple(min(u + p, cap) for u, p in zip(us, pay)))
            outs.append((prof, nxt))
            todo.append(nxt)
        moves[node] = outs
    every = set(moves)

    def cpre(coalition, target):
        idx = [i for i, ag in enumerate(m.agents) if ag in coalition]
        won = set()
        for node, outs in moves.items():
            by_choice: dict = {}
            for prof, nxt in outs:
                by_choice.setdefault(tuple(prof[i] for i in idx), []).append(nxt)
            if any(all(x in target for x in group) for group in by_choice.values()):
                won.add(node)
        return won

    def sat(g) -> set:
        if isinstance(g, logic.Tru):
            return set(every)
        if isinstance(g, logic.Prop):
            return {x for x in every if g.name in m.label_of(x[0])}
        if isinstance(g, logic.Constraint):
            return {x for x in every if arith.eval_atom(g.atom, dict(zip(m.agents, x[1])))}
        if isinstance(g, logic.Not):
            return every - sat(g.sub)
        if isinstance(g, logic.And):
            return sat(g.left) & sat(g.right)
        body = g.body
        if isinstance(body, logic.Next):
            return cpre(g.coalition, sat(body.sub))
        if isinstance(body, logic.Always):
            z = sat(body.sub)
            while True:
                z2 = z & cpre(g.coalition, z)
                if z2 == z:
                    return z
                z = z2
        hold, goal = sat(body.left), sat(body.right)
        z = set(goal)
        while True:
            z2 = z | (hold & cpre(g.coalition, z))
            if z2 == z:
                return z
            z = z2

    return root in sat(f)


def _saturated_query(qid, n, k, m, text):
    f = logic.bind_formula(m, logic.parse_formula(text))
    c0 = Configuration(m.states[0], (Fraction(0), Fraction(0)))

    def run() -> Outcome:
        try:
            v = checker.check_saturated(m, c0, f).value
        except Exception as e:
            return Outcome("", requested=1, error=f"{type(e).__name__}: {e}")
        return Outcome(_canonical({"n": n, "k": k, "formula": text, "verdict": v}),
                       requested=1, decided=int(v is not None), data=v)

    def check(o: Outcome) -> Optional[str]:
        want = clamped_verdict(m, c0, f)
        return None if o.data is want else f"chain {n}/{k} {text}: {o.data}, reference {want}"

    return Query(qid, f"saturated chain {n}/{k} {text}", run, check)


def build_graph_scale(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    big, _, _ = _ring(BIG_RING, rng)
    problems = model.validate(big)
    if problems:
        raise RuntimeError(f"generated {BIG_RING}-state ring is malformed: {problems[0]}")
    queries = []
    for n in RING_SIZES:
        m, goal, owner_b = _ring(n, rng)
        for which, text in RING_FORMULAS:
            queries.append(_ring_query(len(queries), n, m, goal, owner_b, which, text))
    for n, k in WORK_CHAINS:
        m = _work_chain(n, k, rng)
        for text in _work_formulas(k):
            queries.append(_saturated_query(len(queries), n, k, m, text))
    rng.shuffle(queries)
    return Workload("graph-scale", queries)


BY_NAME = {
    "fig1-deep": build_fig1_deep,
    "tcm-sweep": build_tcm_sweep,
    "cross-check": build_cross_check,
    "graph-scale": build_graph_scale,
}
