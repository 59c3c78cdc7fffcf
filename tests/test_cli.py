"""End-to-end exercises of the command-line front end.

Reports go to stdout as JSON (diagnostics to stderr), and must be
byte-identical across runs except for wall_ms.  Exit codes: 0 completed,
1 validation violations, 2 unusable input, 3 forced engine refused.
"""

import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gcgmp.cli import main
from gcgmp.model import builtin_fig1, dump_model, model_from_dict, model_to_dict, validate
from gcgmp.tcm import Halts, dump_tcm, halting_search, make_machine


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    report = json.loads(out) if out.strip() else None
    return code, report, err


@pytest.fixture()
def fig1_path(tmp_path):
    path = tmp_path / "fig1.json"
    dump_model(builtin_fig1(), path)
    return str(path)


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def incskip_doc():
    return {
        "agents": ["a"],
        "states": ["s"],
        "actions": {"a": ["inc", "skip"]},
        "transitions": {"s": {"inc": "s", "skip": "s"}},
        "payoffs": {"s": {"inc": [1], "skip": [0]}},
        "atoms": [],
        "labels": {},
        "value_semantics": "total",
    }


def incskip_rows_doc():
    """incskip_doc in the row dialect, with a guard on inc."""
    return {
        "agents": ["a"],
        "states": ["s"],
        "actions": {"a": ["inc", "skip"]},
        "transitions": [
            {"from": "s", "profile": {"a": act}, "to": "s"} for act in ("inc", "skip")
        ],
        "payoffs": [
            {"state": "s", "profile": {"a": act}, "values": {"a": pay}}
            for act, pay in (("inc", 1), ("skip", 0))
        ],
        "guards": [{"agent": "a", "state": "s", "action": "inc", "formula": "v_a <= 3"}],
        "atoms": [],
        "labels": {},
        "value_semantics": "total",
    }


def rows_with(path, value):
    """incskip_rows_doc() with the entry at ``path`` replaced by ``value``."""
    doc = incskip_rows_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def machine_doc():
    row = {"from": "A", "e1": 0, "e2": 0, "to": "F", "c1": 1, "c2": 0}
    return {"states": ["A", "F"], "initial": "A", "finals": ["F"], "transitions": [row]}


def strategy_doc():
    return {"class": "ml-state", "moves": {"a": {"s": "inc"}}}


class TestValidate:
    def test_bundled_model_is_clean(self, capsys):
        code, report, _ = run(capsys, "validate", "builtin:fig1")
        assert code == 0
        assert report["ok"] is True
        assert report["violations"] == []

    def test_guard_gap_reports_witness_and_exit_1(self, capsys, tmp_path):
        doc = model_to_dict(builtin_fig1())
        doc["guards"]["I"]["s1"]["C"] = "v_I > 0"  # still gapless at s2; gap at s1/0
        path = write_model(tmp_path, doc)
        code, report, _ = run(capsys, "validate", path)
        assert code == 1
        gaps = [v for v in report["violations"] if v["kind"] == "guard-gap"]
        assert gaps and gaps[0]["witness"] == "0"
        assert gaps[0]["subject"] == ["I", "s1"]

    def test_unreadable_file_exits_2(self, capsys, tmp_path):
        code, report, err = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 2
        assert report is None
        assert "cannot read" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "bad model file" in err

    def test_unknown_field_exits_2(self, capsys, tmp_path):
        doc = incskip_doc()
        doc["flavour"] = "mint"
        code, _, err = run(capsys, "validate", write_model(tmp_path, doc))
        assert code == 2
        assert "flavour" in err


    @pytest.mark.parametrize(
        "field, entry",
        [
            ("transitions", ["s", "s"]),  # per-state entry that is not a mapping
            ("transitions", {"inc,inc": "s", "skip": "s"}),  # two actions, one agent
            ("payoffs", {"inc": "1", "skip": [0]}),  # payoff vector that is not a list
            ("payoffs", {"inc": ["1/0"], "skip": [0]}),
            ("discounts", "1/0"),
        ],
    )
    def test_bad_nested_entries_exit_2(self, capsys, tmp_path, field, entry):
        doc = incskip_doc()
        if field == "discounts":
            doc["discounts"] = {"a": entry}
        else:
            doc[field]["s"] = entry
        code, report, err = run(capsys, "validate", write_model(tmp_path, doc))
        assert code == 2
        assert report is None
        assert "bad model file" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "fields",
        [
            {"agents": "ab", "states": 5},
            {"actions": [["inc", "skip"]]},
            {"available": [["inc"]]},
            {"labels": [["p"]]},
            {"discounts": ["1"]},
            {"labels": {"s": [["p1"]]}},
            {"labels": {"s": [1, "p1"]}},
            {"states": [["s"]]},
            {"agents": [["a"]]},
        ],
        ids=[
            "scalars", "actions", "available", "labels", "discounts",
            "list-label", "mixed-labels", "list-state", "list-agent",
        ],
    )
    def test_bad_top_level_shapes_exit_2(self, capsys, tmp_path, fields):
        doc = {**incskip_doc(), **fields}
        code, report, err = run(capsys, "validate", write_model(tmp_path, doc))
        assert code == 2
        assert report is None
        assert "bad model file" in err
        assert "Traceback" not in err


class TestCheck:
    def test_bounded_refutes_the_pinned_safety_claim(self, capsys, fig1_path):
        code, report, _ = run(
            capsys, "check", fig1_path, "<<I>> G (p1 | v_I > 0)",
            "--engine", "bounded", "--depth", "20",
        )
        assert code == 0
        assert report["verdict"] == "false"
        assert report["engine"] == "bounded"
        assert report["fragment"] == "NGL"
        assert report["counterexample"]
        assert report["bounds"]["depth"] == 20

    def test_bounded_walks_deeper_than_the_recursion_limit(self, tmp_path):
        # one action that loops and pays 1: the goal lies 1,501 steps down a
        # single path, past the interpreter's default limit of 1,000 frames
        doc = {**incskip_doc(), "actions": {"a": ["x"]},
               "transitions": {"s": {"x": "s"}}, "payoffs": {"s": {"x": [1]}}}
        proc = subprocess.run(
            [sys.executable, "-m", "gcgmp.cli", "check", write_model(tmp_path, doc, "one.json"),
             "<<a>>(true U v_a > 1500)", "--depth", "2000", "--engine", "bounded"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)  # exactly one document
        assert (report["verdict"], report["bound_used"]) == ("true", 2000)

    def test_saturated_proves_the_capped_growth_claim(self, capsys, tmp_path):
        path = write_model(tmp_path, incskip_doc())
        code, report, _ = run(
            capsys, "check", path, "<<a>> G (v_a <= 2)", "--engine", "saturated"
        )
        assert code == 0
        assert report["verdict"] == "true"
        assert report["engine"] == "saturated"

    def test_auto_routes_to_saturated_then_atl(self, capsys, tmp_path):
        path = write_model(tmp_path, incskip_doc())
        _, report, _ = run(capsys, "check", path, "<<a>> G (v_a <= 2)")
        assert report["engine"] == "saturated"
        _, report, _ = run(capsys, "check", path, "<<a>> X true")
        assert report["engine"] == "atl"
        assert report["verdict"] == "true"

    def test_exact_reports_name_their_class_pair(self, capsys, tmp_path):
        path = write_model(tmp_path, incskip_doc())
        for formula, engine in [("<<a>> G (v_a <= 2)", "saturated"), ("<<a>> X true", "atl")]:
            _, report, _ = run(capsys, "check", path, formula, "--so", "pr-config")
            assert report["engine"] == engine
            assert report["strategy_class"] == {"proponents": "ml-config",
                                                "opponents": "pr-config"}

    @pytest.mark.parametrize("engine", ["atl", "saturated"])
    def test_forcing_an_exact_engine_on_a_refused_class_pair_exits_3(self, capsys, tmp_path,
                                                                     engine):
        path = write_model(tmp_path, incskip_doc())
        code, report, err = run(capsys, "check", path, "<<a>> X true", "--engine", engine,
                                "--sp", "pr-state")
        assert (code, report) == (3, None)
        assert err.splitlines() == [f"gcgmp: the {engine} engine does not answer for "
                                    "proponents pr-state against opponents ml-config"]
        _, report, _ = run(capsys, "check", path, "<<a>> X true", "--sp", "pr-state")
        assert (report["engine"], report["verdict"]) == ("bounded", "true")

    def test_auto_falls_back_to_bounded_on_fig1(self, capsys):
        # guards are real, payoffs go negative: only the bounded engine applies
        code, report, _ = run(
            capsys, "check", "builtin:fig1", "<<I,II>> X p2", "--depth", "6"
        )
        assert code == 0
        assert report["engine"] == "bounded"
        assert report["verdict"] == "false"  # guards pin both players to C at 0,0
        _, shifted, _ = run(
            capsys, "check", "builtin:fig1", "<<I,II>> X p2",
            "--depth", "6", "--init", "s1:5,5",
        )
        assert shifted["verdict"] == "true"

    def test_forcing_atl_on_constraint_formula_exits_3(self, capsys):
        code, report, err = run(
            capsys, "check", "builtin:fig1", "<<I>> G (p1 | v_I > 0)", "--engine", "atl"
        )
        assert code == 3
        assert report is None
        assert "constraint-free" in err

    def test_forcing_atl_under_real_guards_exits_3(self, capsys):
        code, _, err = run(capsys, "check", "builtin:fig1", "<<I,II>> X p2", "--engine", "atl")
        assert code == 3
        assert "guard" in err

    def test_forcing_saturated_on_negative_payoffs_exits_3(self, capsys):
        code, _, err = run(
            capsys, "check", "builtin:fig1", "<<I>> G (v_I >= 0)", "--engine", "saturated"
        )
        assert code == 3
        assert "does not apply" in err

    def test_unknown_is_exit_0_with_bound(self, capsys, tmp_path):
        doc = incskip_doc()
        doc["actions"]["a"] = ["inc"]
        doc["transitions"]["s"] = {"inc": "s"}
        doc["payoffs"]["s"] = {"inc": [1]}
        path = write_model(tmp_path, doc)
        code, report, _ = run(
            capsys, "check", path, "<<a>> (true U v_a >= 5)",
            "--engine", "bounded", "--depth", "3",
        )
        assert code == 0
        assert report["verdict"] == "unknown"
        assert report["bound_used"] == 3

    def test_init_placement_changes_the_verdict(self, capsys, fig1_path):
        f = "(<<I,II>> X p2) & !(<<>> X p2)"
        _, at_origin, _ = run(capsys, "check", fig1_path, f, "--engine", "bounded", "--init", "s1:0,0")
        _, unpinned, _ = run(capsys, "check", fig1_path, f, "--engine", "bounded", "--init", "s1:5,5")
        assert at_origin["verdict"] == "false"  # guards pin both players to C at 0,0
        assert unpinned["verdict"] == "true"

    @pytest.mark.parametrize(
        "formula, hint",
        [
            ("<<I>> G (", "bad formula"),
            ("<<zz>> X true", "does not fit"),
            ("G p1", "state formula"),
            ("<<I>> X p9", "does not fit"),
            pytest.param("!" * 3000 + "p1", "bad formula", id="3000-negations"),
            pytest.param("(" * 3000 + "p1" + ")" * 3000, "bad formula", id="3000-parentheses"),
            pytest.param("<<I>> X (v_I > \u00b9)", "bad formula", id="superscript-digit"),
        ],
    )
    def test_unusable_formulas_exit_2(self, capsys, formula, hint):
        code, _, err = run(capsys, "check", "builtin:fig1", formula)
        assert code == 2
        assert hint in err

    @pytest.mark.parametrize("init", ["s9", "s1:1", "s1:1,2,3", "s1:one,two"])
    def test_unusable_inits_exit_2(self, capsys, init):
        code, _, _ = run(capsys, "check", "builtin:fig1", "<<I,II>> X p2", "--init", init)
        assert code == 2

    @pytest.mark.parametrize("engine", ["auto", "bounded"])
    @pytest.mark.parametrize(
        "formula", ["<<I>>(X p1 & G p2)", "<<I>>G X p1", "<<I>>p1", "!<<I>>(G F p1)"]
    )
    def test_formulas_outside_every_engine_exit_3(self, capsys, formula, engine):
        code, report, err = run(capsys, "check", "builtin:fig1", formula, "--engine", engine)
        assert code == 3
        assert report is None
        assert len(err.splitlines()) == 1
        assert "bounded engine does not apply" in err

    def test_illformed_model_is_refused_before_checking(self, capsys, tmp_path):
        doc = incskip_doc()
        del doc["payoffs"]["s"]["inc"]
        path = write_model(tmp_path, doc)
        code, _, err = run(capsys, "check", path, "<<a>> X true")
        assert code == 2
        assert "not well-formed" in err

    @pytest.mark.parametrize("brk", ["\r", "\n", "\u2028"])
    def test_line_break_in_a_name_stays_on_one_line(self, capsys, tmp_path, brk):
        doc = incskip_doc()
        doc["transitions"]["t"] = {brk: "s"}
        path = write_model(tmp_path, doc)
        code, report, err = run(capsys, "check", path, "<<a>> X true")
        assert (code, report) == (2, None)
        assert len(err.splitlines()) == 1
        assert repr(brk)[1:-1] in err


class TestSimulate:
    def test_pinned_cooperation_prefix(self, capsys, fig1_path):
        code, report, _ = run(
            capsys, "simulate", fig1_path, "--init", "s1",
            "--profile-script", "C,C C,C",
        )
        assert code == 0
        assert report["trace"] == [
            {"state": "s1", "utilities": ["0", "0"]},
            {"state": "s1", "utilities": ["2", "2"]},
            {"state": "s1", "utilities": ["4", "4"]},
        ]
        assert report["lasso"] is None
        assert report["values"] is None

    def test_pinned_six_step_trace(self, capsys, fig1_path):
        code, report, _ = run(
            capsys, "simulate", fig1_path, "--init", "s1",
            "--profile-script", "C,C D,D D,C C,D C,D C,D",
        )
        assert code == 0
        assert [t["state"] for t in report["trace"]] == [
            "s1", "s1", "s2", "s2", "s2", "s2", "s2",
        ]
        assert report["trace"][-1] == {"state": "s2", "utilities": ["0", "5"]}
        assert report["profiles"][1] == ["D", "D"]

    def test_pinned_eight_step_trace(self, capsys, fig1_path):
        code, report, _ = run(
            capsys, "simulate", fig1_path, "--init", "s1",
            "--profile-script", "C,C D,C C,D C,D C,D C,D C,D C,D",
        )
        assert code == 0
        assert report["trace"][-1] == {"state": "s3", "utilities": ["-1", "-8"]}

    def test_default_run_follows_least_enabled_actions(self, capsys):
        code, report, _ = run(capsys, "simulate", "builtin:fig1")
        assert code == 0
        assert report["steps_run"] == 20
        assert {t["state"] for t in report["trace"]} == {"s1"}  # guards pin C,C at zero
        assert report["trace"][3]["utilities"] == ["6", "6"]

    def test_guard_violation_aborts_with_step_index(self, capsys, fig1_path):
        code, report, _ = run(
            capsys, "simulate", fig1_path, "--init", "s1", "--profile-script", "D,C"
        )
        assert code == 0
        assert report["aborted"] == {
            "step": 1,
            "agent": "I",
            "action": "D",
            "message": "agent I may not play D here (step 1): guard rejects utility",
        }
        assert report["steps_run"] == 0
        assert report["values"] is None

    def test_lasso_reports_play_values(self, capsys, tmp_path):
        path = write_model(tmp_path, incskip_doc())
        code, report, _ = run(
            capsys, "simulate", path, "--profile-script", "skip skip skip"
        )
        assert code == 0
        assert report["lasso"] == {"loop": 0}
        assert report["values"] == {"a": "0"}

    def test_value_override_and_value_errors(self, capsys, tmp_path):
        doc = {
            "agents": ["a"],
            "states": ["s", "t"],
            "actions": {"a": ["go"]},
            "transitions": {"s": {"go": "t"}, "t": {"go": "s"}},
            "payoffs": {"s": {"go": [2]}, "t": {"go": [-2]}},
            "atoms": [],
            "labels": {},
            "value_semantics": "total",
        }
        path = write_model(tmp_path, doc)
        _, mean, _ = run(capsys, "simulate", path, "--steps", "2", "--value", "mean")
        assert mean["lasso"] == {"loop": 0}
        assert mean["values"] == {"a": "0"}
        _, total, _ = run(capsys, "simulate", path, "--steps", "2", "--value", "total")
        assert "error" in total["values"]["a"]
        _, disc, _ = run(capsys, "simulate", path, "--steps", "2", "--value", "discounted")
        assert "error" in disc["values"]["a"]

    def test_steps_cap_against_script_length(self, capsys, fig1_path):
        _, report, _ = run(
            capsys, "simulate", fig1_path, "--profile-script", "C,C C,C C,C",
            "--steps", "2",
        )
        assert report["steps_run"] == 2

    def test_strategy_file_drives_covered_agents(self, capsys, tmp_path):
        path = write_model(tmp_path, incskip_doc())
        strat = tmp_path / "strat.json"
        strat.write_text(
            json.dumps({"class": "ml-state", "moves": {"a": {"s": "skip"}}}),
            encoding="utf-8",
        )
        code, report, _ = run(
            capsys, "simulate", path, "--strategy-file", str(strat), "--steps", "4"
        )
        assert code == 0
        assert report["lasso"] == {"loop": 0}
        assert report["values"] == {"a": "0"}

    def test_perfect_recall_strategy_keys(self, capsys, tmp_path):
        path = write_model(tmp_path, incskip_doc())
        strat = tmp_path / "strat.json"
        strat.write_text(
            json.dumps(
                {"class": "pr-state", "moves": {"a": {"s": "inc", "s > s": "skip"}}}
            ),
            encoding="utf-8",
        )
        _, report, _ = run(
            capsys, "simulate", path, "--strategy-file", str(strat), "--steps", "2"
        )
        assert [t["utilities"] for t in report["trace"]] == [["0"], ["1"], ["1"]]

    def test_strategy_gap_aborts(self, capsys, tmp_path):
        path = write_model(tmp_path, incskip_doc())
        strat = tmp_path / "strat.json"
        strat.write_text(
            json.dumps({"class": "ml-config", "moves": {"a": {"s|0": "inc"}}}),
            encoding="utf-8",
        )
        _, report, _ = run(
            capsys, "simulate", path, "--strategy-file", str(strat), "--steps", "5"
        )
        assert report["aborted"]["step"] == 2
        assert "s|1" in report["aborted"]["message"]

    def test_strategy_for_unknown_agent_exits_2(self, capsys, tmp_path):
        path = write_model(tmp_path, incskip_doc())
        strat = tmp_path / "strat.json"
        strat.write_text(json.dumps({"class": "ml-state", "moves": {"z": {}}}))
        code, _, err = run(capsys, "simulate", path, "--strategy-file", str(strat))
        assert code == 2
        assert "unknown agents" in err

    @pytest.mark.parametrize(
        "doc",
        [[1, 2], {"moves": [1]}, {"moves": {"a": ["inc"]}}, {"moves": {"a": {"s": 1}}},
         {"class": ["ml-state"]}],
        ids=["list-document", "list-moves", "list-table", "int-action", "list-class"],
    )
    def test_malformed_strategy_files_exit_2(self, capsys, tmp_path, doc):
        path = write_model(tmp_path, incskip_doc())
        strat = tmp_path / "strat.json"
        strat.write_text(json.dumps(doc), encoding="utf-8")
        code, report, err = run(capsys, "simulate", path, "--strategy-file", str(strat))
        assert (code, report) == (2, None)
        assert "Traceback" not in err and err.count("\n") == 1

    def test_bad_script_tokens_exit_2(self, capsys, fig1_path):
        for script in ["C", "C,C,C", "C,Z"]:
            code, _, _ = run(capsys, "simulate", fig1_path, "--profile-script", script)
            assert code == 2

    def test_script_and_strategy_are_mutually_exclusive(self, fig1_path, capsys):
        with pytest.raises(SystemExit) as ex:
            main(["simulate", fig1_path, "--profile-script", "C,C",
                  "--strategy-file", "x.json"])
        assert ex.value.code == 2
        capsys.readouterr()


class TestEncodeTcm:
    def test_bundled_machine_round_trips_through_check(self, capsys, tmp_path):
        out = tmp_path / "game.json"
        ftxt = tmp_path / "halting.txt"
        code, report, _ = run(
            capsys, "encode-tcm", "builtin:drain", "--variant", "guard-based",
            "-o", str(out), "--emit-formula", str(ftxt),
        )
        assert code == 0
        assert report["game_states"] == 7  # A,B,F + three checkpoints + err
        assert report["model_written"] == str(out)
        formula = ftxt.read_text(encoding="utf-8").strip()
        assert "halt" in formula
        code2, verdict, _ = run(
            capsys, "check", str(out), formula, "--engine", "bounded", "--depth", "18"
        )
        assert code2 == 0
        assert verdict["verdict"] == "true"

    def test_state_variant_inlines_model_when_no_output(self, capsys):
        code, report, _ = run(capsys, "encode-tcm", "builtin:drain", "--variant", "state-based")
        assert code == 0
        assert "model_written" not in report
        m = model_from_dict(report["model"])
        assert validate(m) == []
        assert "v_p1 >= 0" in report["formula"]

    @pytest.mark.parametrize("variant", ["guard-based", "state-based"])
    @pytest.mark.parametrize(
        "machine",
        [
            # no checkpoint claims a counter zero, so no state carries e1/e2
            make_machine(["A", "F"], "A", ["F"], [("A", 1, 1, "F", -1, -1)]),
            # no finals, so no state carries halt
            make_machine(["A", "B"], "A", [], [("A", 0, 0, "B", 1, 0)]),
        ],
        ids=["nonzero-claims-only", "no-finals"],
    )
    def test_emitted_formula_names_only_carried_labels(
        self, capsys, tmp_path, machine, variant
    ):
        src, out = tmp_path / "m.json", tmp_path / "game.json"
        dump_tcm(machine, src)
        code, enc, _ = run(
            capsys, "encode-tcm", str(src), "--variant", variant, "-o", str(out)
        )
        assert code == 0
        code, report, err = run(
            capsys, "check", str(out), enc["formula"], "--depth", "18"
        )
        assert code == 0, err
        halts = isinstance(halting_search(machine, 8), Halts)
        assert report["verdict"] == ("true" if halts else "false")

    def test_bad_machine_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"states": ["A"], "initial": "Z", "transitions": []}))
        code, _, err = run(capsys, "encode-tcm", str(path))
        assert code == 2
        assert "initial" in err

    def test_reserved_state_name_exits_2(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps({"states": ["err"], "initial": "err", "finals": [], "transitions": []})
        )
        code, _, err = run(capsys, "encode-tcm", str(path))
        assert code == 2
        assert "reserved" in err

    @pytest.mark.parametrize(
        "patch, complaint",
        [
            (None, "JSON object"),
            ({"states": [0, 1], "initial": 0, "finals": [1]}, "strings"),
            ({"states": [["a"]]}, "strings"),
            ({"finals": [["F"]]}, "strings"),
            ({"finals": 5}, "finals must be a list"),
            ({"transitions": "x"}, "transitions must be a list"),
            ({"transitions": [[1, 2]]}, "transition 0 must be"),
            ({"c1": 0.5}, "integers"),
            ({"e1": True}, "integers"),
            ({"c2": "1"}, "integers"),
        ],
        ids=["list-document", "int-states", "list-state", "list-final", "int-finals",
             "string-transitions", "list-row", "float-effect", "bool-test", "string-effect"],
    )
    def test_malformed_machines_exit_2(self, capsys, tmp_path, patch, complaint):
        doc = machine_doc()
        row = doc["transitions"][0]
        if patch is None:
            doc = [doc]
        else:
            for key, value in patch.items():
                (row if key in row else doc)[key] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, report, err = run(capsys, "encode-tcm", str(path))
        assert (code, report) == (2, None)
        assert complaint in err and "Traceback" not in err and err.count("\n") == 1


class TestExportGraph:
    def test_fig1_two_steps(self, capsys, tmp_path):
        out = tmp_path / "g.dot"
        code, report, _ = run(
            capsys, "export-graph", "builtin:fig1", "--init", "s1",
            "--bound", "2", "-o", str(out),
        )
        assert code == 0
        assert report["nodes"] == 6
        assert report["edges"] == 5
        assert report["truncated"] is True
        text = out.read_text(encoding="utf-8")
        assert text.startswith("digraph")
        assert 's1 | 0,0' in text

    def test_inline_dot_without_output(self, capsys):
        code, report, _ = run(capsys, "export-graph", "builtin:fig1", "--bound", "1")
        assert code == 0
        assert report["dot"].startswith("digraph")

    @pytest.mark.parametrize(
        "command, flag",
        [("check", "--depth"), ("simulate", "--steps"), ("export-graph", "--bound")],
        ids=["check-depth", "simulate-steps", "export-graph-bound"],
    )
    def test_negative_bound_exits_2(self, capsys, command, flag):
        formula = ["<<I>> X p1"] if command == "check" else []
        code, report, err = run(capsys, command, "builtin:fig1", *formula, flag, "-1")
        assert code == 2
        assert report is None
        assert flag in err


class TestReportHygiene:
    def test_reports_are_stable_modulo_wall_time(self, capsys, fig1_path):
        argv = ["simulate", fig1_path, "--init", "s1", "--profile-script", "C,C C,C"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        first.pop("wall_ms")
        second.pop("wall_ms")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_common_fields_present(self, capsys):
        _, report, _ = run(capsys, "validate", "builtin:fig1")
        for field in ["command", "model_sha256", "wall_ms"]:
            assert field in report

    def test_hash_tracks_content(self, capsys, tmp_path):
        _, a, _ = run(capsys, "validate", "builtin:fig1")
        doc = model_to_dict(builtin_fig1())
        doc["payoffs"]["s1"]["C,C"] = ["3", "3"]
        _, b, _ = run(capsys, "validate", write_model(tmp_path, doc))
        assert a["model_sha256"] != b["model_sha256"]
        _, again, _ = run(capsys, "validate", "builtin:fig1")
        assert a["model_sha256"] == again["model_sha256"]

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gcgmp.cli", "validate", "builtin:fig1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True


# --- the exit-code contract under fuzzing ---------------------------------

_FIELDS = sorted(model_to_dict(builtin_fig1()))  # every top-level model field
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.sampled_from([
        "s", "t", "a", "b", "inc", "skip", "p", "1/2", "-1", "1/0", "inc,skip",
        "v_a >= 1", "v_b < 0", "mean", "total", "discounted", "",
    ])
    | st.text(max_size=4)
)
_JSON = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["s", "t", "a", "inc"]) | st.text(max_size=3), kids,
                      max_size=3),
    max_leaves=8,
)
_TOKENS = [
    "<<a>>", "<<>>", "<<b>>", "<<a,a>>", "X", "G", "F", "U", "!", "&", "|", "(", ")",
    "true", "false", "p", "q", "v_a", "v_b", "w_a", ">", ">=", "<=", "=", "1", "1/2",
    "-1", "2*v_a", "+",
]
_FORMULAS = [  # well-formed for incskip_doc(), so that the engines run too
    "<<a>> X true", "<<a>> G (v_a <= 2)", "<<a>> (true U v_a >= 3)", "<<>> G (v_a < 1/2)",
    "!(<<a>> X (v_a > 0))", "<<a>> (w_a > 0)", "(<<a>> F v_a = 2) & <<a>> G v_a >= 0",
    "<<a>> X G true", "<<a>> (X true & G true)", "<<a>> true",
]
_INITS = [
    "s", "t", "s:", "s:1", "s:1/2", "s: -1", "s:1,2", "s:x", ":1", "s:1/0", "s:1e3", "s:nan",
]


@st.composite
def mutated(draw, fresh, fields):
    """fresh() with up to three entries, at any depth, replaced or deleted;
    ``fields`` are top-level keys that may be added."""
    doc = fresh()
    for _ in range(draw(st.integers(0, 3))):
        node = doc
        while True:
            if isinstance(node, dict):
                keys = list(node) + (fields if node is doc else ["s", "t", "a", "inc"])
            else:
                keys = list(range(len(node)))
            key = draw(st.sampled_from(keys))
            child = node.get(key) if isinstance(node, dict) else node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            if isinstance(node, dict) and draw(st.integers(0, 3)) == 0:
                node.pop(key, None)
            else:
                node[key] = draw(_JSON)
            break
    return doc


def keeps_the_contract(capsys, *argvs):
    for argv in argvs:
        try:
            code = main(argv)
            returned = True
        except SystemExit as e:  # argparse refusing the command line
            code = e.code
            returned = False
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3)
        if out.strip():
            json.loads(out)  # exactly one JSON document
        assert "Traceback" not in err
        if returned and code in (2, 3):
            assert len(err.splitlines()) <= 1, err


class TestExitCodeContract:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        doc=mutated(incskip_doc, _FIELDS) | mutated(incskip_rows_doc, _FIELDS),
        formula=st.sampled_from(_FORMULAS)
        | st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=10).map(" ".join)
        | st.text(max_size=10),
        init=st.sampled_from(_INITS) | st.text(max_size=6),
        engine=st.sampled_from(["auto", "atl", "saturated", "bounded"]),
    )
    # a name field holding a list or an object, which no dict key can be
    @example(doc=rows_with(("transitions", 0, "from"), ["s"]),
             formula="<<a>> X true", init="s", engine="auto")
    @example(doc=rows_with(("payoffs", 1, "state"), {"s": "s"}),
             formula="<<a>> X true", init="s", engine="auto")
    @example(doc=rows_with(("guards", 0, "action"), ["inc"]),
             formula="<<a>> X true", init="s", engine="auto")
    @example(doc=rows_with(("transitions", 1, "profile", "a"), {"skip": 0}),
             formula="<<a>> X true", init="s", engine="auto")
    def test_any_input_keeps_the_contract(self, capsys, tmp_path, doc, formula, init, engine):
        path = write_model(tmp_path, doc)
        check = ["check", path, f"--init={init}", "--depth", "4", "--engine", engine, "--", formula]
        keeps_the_contract(capsys, ["validate", path], check)

    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        doc=mutated(incskip_doc, _FIELDS),
        machine=mutated(machine_doc, ["states", "initial", "finals", "transitions"]) | _JSON,
        strategy=mutated(strategy_doc, ["class", "moves"]) | _JSON,
        script=st.lists(st.sampled_from(["inc", "skip", "inc,skip", "x", ","]), max_size=4)
        .map(" ".join) | st.text(max_size=6),
        init=st.sampled_from(_INITS) | st.text(max_size=6),
        count=st.integers(0, 4),
        variant=st.sampled_from(["guard-based", "state-based"]),
    )
    def test_other_subcommands_keep_the_contract(
        self, capsys, tmp_path, doc, machine, strategy, script, init, count, variant
    ):
        path = write_model(tmp_path, doc)
        machine_path = write_model(tmp_path, machine, "machine.json")
        strategy_path = write_model(tmp_path, strategy, "strategy.json")
        keeps_the_contract(
            capsys,
            ["encode-tcm", machine_path, "--variant", variant],
            ["simulate", path, f"--init={init}", "--steps", str(count),
             "--strategy-file", strategy_path],
            ["simulate", path, f"--init={init}", f"--profile-script={script}"],
            ["export-graph", path, f"--init={init}", "--bound", str(count)],
        )
