"""End-to-end CLI behaviour through cli_main, including exit codes."""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FAMILY_TEXT
import homelog.cli as cli
import homelog.planner as planner
from homelog.cli import (
    EXIT_FLOUNDER,
    EXIT_INTERNAL,
    EXIT_NO_ANSWER,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    cli_main,
)
from homelog.engine import BudgetExceeded, FlounderError, SolveConfig, SolveTimeout
from homelog.parser import ParseError, parse_program
from homelog.planner import PlanOptions, UnresolvableTask
from homelog.program import PredId
from homelog.world import Action, IllegalAction, SchemaError
from homelog.scenes import MINIMAL_SCENE_JSON, SIX_OBJECT_SCENE_JSON

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family.pl"
    path.write_text(FAMILY_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(SIX_OBJECT_SCENE_JSON, encoding="utf-8")
    return str(path)


# -- parse ------------------------------------------------------------------------


def test_parse_pretty_prints(family_file, capsys):
    assert cli_main(["parse", family_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "parent(tony, abe)." in out
    assert len(parse_program(out)) == 12


def test_parse_prints_each_anonymous_variable_as_written(tmp_path, capsys):
    text = "pair(_, X) :- q(X, _).\nsame(_A1, _).\n"
    path = tmp_path / "anon.pl"
    path.write_text(text, encoding="utf-8")
    assert cli_main(["parse", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == text


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pl"
    bad.write_text("foo(", encoding="utf-8")
    assert cli_main(["parse", str(bad)]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_a_non_decimal_digit_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "digit.pl"
    bad.write_text("p(\u00b2).\n", encoding="utf-8")
    assert cli_main(["parse", str(bad)]) == EXIT_PARSE
    assert "line 1, column 3: unexpected character" in capsys.readouterr().err


def test_a_byte_order_mark_only_counts_at_the_start_of_a_file(tmp_path, capsys):
    path = tmp_path / "bom.pl"
    path.write_text("\ufeffp(a).\n", encoding="utf-8")
    assert cli_main(["solve", str(path), "-q", "p(X)."]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["X = a"]
    path.write_text("\ufeffp(a).\n\ufeffq(b).\n", encoding="utf-8")
    assert cli_main(["solve", str(path), "-q", "p(X)."]) == EXIT_PARSE
    assert "line 2, column 1: unexpected character '\\ufeff'" in capsys.readouterr().err


def test_missing_file_is_a_usage_error(capsys):
    assert cli_main(["parse", "/nonexistent/nowhere.pl"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


# -- solve ------------------------------------------------------------------------


def test_solve_prints_answers(family_file, capsys):
    assert cli_main(["solve", family_file, "-q", "?- niece(X, Y)."]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["X = sarah, Y = jill"]


def test_solve_accepts_bare_queries(family_file, capsys):
    assert cli_main(["solve", family_file, "-q", "niece(X, Y)."]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["X = sarah, Y = jill"]


def test_solve_ground_yes(family_file, capsys):
    assert cli_main(["solve", family_file, "-q", "parent(tony, abe)."]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["yes"]


def test_solve_no_answers(family_file, capsys):
    assert cli_main(["solve", family_file, "-q", "parent(sarah, X)."]) == EXIT_NO_ANSWER
    assert "no answers" in capsys.readouterr().err


def test_solve_flounder_reports_error(family_file, capsys):
    code = cli_main(["solve", family_file, "-q", "not parent(X, abe)."])
    assert code == EXIT_FLOUNDER
    assert "error" in capsys.readouterr().err


def test_floundering_exits_apart_from_no_answers(tmp_path, capsys):
    path = tmp_path / "p.pl"
    path.write_text("p(a).\n", encoding="utf-8")
    code = cli_main(["solve", str(path), "-q", "p(X), not p(Y)."])
    assert code == EXIT_FLOUNDER
    assert code not in (EXIT_OK, EXIT_NO_ANSWER, EXIT_USAGE, EXIT_TIMEOUT, EXIT_PARSE, EXIT_INTERNAL)
    assert "error: negated call not ground: not p(" in capsys.readouterr().err
    assert f"{EXIT_FLOUNDER} floundering" in " ".join(README.read_text(encoding="utf-8").split())


def test_insert_sorted_on_a_non_list_flounders(family_file, capsys):
    assert cli_main(["solve", family_file, "-q", "insert_sorted(a, b, L)."]) == EXIT_FLOUNDER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: insert_sorted/3 needs a proper list\n"


def test_solve_budget_exit_code(family_file, capsys):
    code = cli_main([
        "solve", family_file, "-q", "niece(X, Y).",
        "--no-loop-check", "--steps", "2000",
    ])
    assert code == EXIT_TIMEOUT
    assert "stopped" in capsys.readouterr().err


def test_solve_trace_goes_to_stderr(family_file, capsys):
    assert cli_main(["solve", family_file, "-q", "parent(tony, abe).", "--trace"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["yes"]
    assert "call parent" in captured.err


def test_solve_leaves_anonymous_variables_out(tmp_path, capsys):
    path = tmp_path / "pair.pl"
    path.write_text("pair(a, b).\n", encoding="utf-8")
    assert cli_main(["solve", str(path), "-q", "pair(X, _)."]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["X = a"]
    assert cli_main(["solve", str(path), "-q", "pair(_, _)."]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["yes"]
    assert cli_main(["solve", str(path), "-q", "pair(X, _A1)."]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["X = a, _A1 = b"]


def test_a_query_anonymous_variable_traces_and_flounders_as_written(tmp_path, capsys):
    path = tmp_path / "pq.pl"
    path.write_text("p(a).\nq(b).\n", encoding="utf-8")
    assert cli_main(["solve", str(path), "-q", "p(_), not q(_).", "--trace"]) == EXIT_FLOUNDER
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "call p(_)"
    assert err[-1] == "error: negated call not ground: not q(_)"


def test_solve_answer_labels_skip_the_query_variables(tmp_path, capsys):
    path = tmp_path / "q.pl"
    path.write_text("q(X, Y) :- X = f(Y).\np(a, W).\n", encoding="utf-8")
    assert cli_main(["solve", str(path), "-q", "q(_A, _B)."]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["_A = f(_C), _B = _C"]
    assert cli_main(["solve", str(path), "-q", "p(_A, X)."]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["_A = a, X = _B"]


def test_solve_with_a_zero_timeout_stops_before_any_answer(tmp_path, capsys):
    path = tmp_path / "nat.pl"
    path.write_text("nat(z). nat(s(X)) :- nat(X).\n", encoding="utf-8")
    code = cli_main(["solve", str(path), "-q", "nat(X).", "--no-loop-check", "--timeout", "0"])
    assert code == EXIT_TIMEOUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "timeout: wall-clock limit reached\n"


def test_solve_reads_not_with_parentheses_as_negation(tmp_path, capsys):
    path = tmp_path / "happy.pl"
    path.write_text("person(a). person(b). sad(b).\nhappy(X) :- person(X), not(sad(X)).\n", encoding="utf-8")
    assert cli_main(["solve", str(path), "-q", "happy(X)."]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["X = a"]
    assert cli_main(["solve", str(path), "-q", "person(X), not(sad(X))."]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["X = a"]
    assert cli_main(["parse", str(path)]) == EXIT_OK
    assert "happy(X) :- person(X), not sad(X)." in capsys.readouterr().out
    path.write_text("p(X) :- not(not(q(X))).\n", encoding="utf-8")
    assert cli_main(["solve", str(path), "-q", "p(a)."]) == EXIT_PARSE
    assert "double negation is not supported" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--steps", "-1"), ("--max-depth", "-1"), ("--timeout", "-1"), ("--timeout", "nan")],
)
def test_solve_rejects_out_of_range_limits(tmp_path, capsys, flag, value):
    # Without the check, NaN compared false with the clock and this
    # diverging search never stopped.
    path = tmp_path / "loop.pl"
    path.write_text("p(X) :- q(X).\nq(X) :- p(s(X)).\n", encoding="utf-8")
    limits = {"--steps": "100000000", "--max-depth": "100000000", "--timeout": "5", flag: value}
    argv = ["solve", str(path), "-q", "p(z)."] + [x for kv in limits.items() for x in kv]
    assert cli_main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "at least 0" in captured.err


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_plan_rejects_out_of_range_timeouts(scene_file, capsys, value):
    code = cli_main(["plan", "--scene", scene_file, "--task", "grab_remote", "--timeout", value])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: wall_timeout")


@pytest.mark.parametrize("flag", ["--steps", "--max-depth"])
def test_solve_limits_of_zero_stay_valid(family_file, capsys, flag):
    assert cli_main(["solve", family_file, "-q", "parent(tony, abe).", flag, "0"]) == EXIT_TIMEOUT
    assert capsys.readouterr().err.startswith("stopped: ")


def test_plan_times_out_when_the_deadline_passes_between_lengths(scene_file, capsys, monkeypatch):
    # The planner's clock reads 0 for the deadline and length 1, which finds
    # no plan, and then jumps past the deadline before length 2.
    readings = iter([0.0, 0.0])
    monkeypatch.setattr(planner, "time", SimpleNamespace(monotonic=lambda: next(readings, 100.0)))
    code = cli_main(["plan", "--scene", scene_file, "--task", "grab_remote", "--timeout", "5"])
    assert code == EXIT_TIMEOUT
    assert capsys.readouterr().err == "timeout: wall-clock limit reached\n"


@pytest.mark.parametrize(
    "command, module, name",
    [("plan", planner, "state_to_facts"), ("plan", cli, "load_scene"), ("solve", cli, "parse_program")],
    ids=["plan_facts", "plan_scene", "solve_program"],
)
def test_a_timeout_counts_from_the_command_start(command, module, name, scene_file, family_file, capsys, monkeypatch):
    # The phase before the first solve sleeps past the deadline; the solver
    # reads the clock on its first step and stops there.
    real = getattr(module, name)

    def slow(*args):
        time.sleep(0.2)
        return real(*args)

    monkeypatch.setattr(module, name, slow)
    argv = {
        "plan": ["plan", "--scene", scene_file, "--task", "grab_remote"],
        "solve": ["solve", family_file, "-q", "parent(X, Y)."],
    }[command]
    assert cli_main(argv + ["--timeout", "0.05"]) == EXIT_TIMEOUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "timeout: wall-clock limit reached\n"


@pytest.mark.parametrize(
    "held, task, unlimited",
    [(["remotecontrol1"], "grab_remote", EXIT_OK), ([], "grab_remote_and_shirt", EXIT_NO_ANSWER)],
    ids=["goal_already_satisfied", "unresolvable_task"],
)
def test_plan_with_a_zero_timeout_stops_before_resolving_the_task(tmp_path, capsys, held, task, unlimited):
    # No solve runs on either: the goal holds at the start, or the minimal
    # scene has no shirt.  Only plan's check on entry can stop them.
    doc = json.loads(MINIMAL_SCENE_JSON)
    doc["agent"].update(close=held, held=held)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["plan", "--scene", str(path), "--task", task]
    assert cli_main(argv) == unlimited
    capsys.readouterr()
    assert cli_main(argv + ["--timeout", "0"]) == EXIT_TIMEOUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "timeout: wall-clock limit reached\n"


def test_solve_nested_negation_within_the_step_budget(tmp_path, capsys):
    # 24 nested negations once ran out of a step budget halved per level.
    path = tmp_path / "even.pl"
    path.write_text("even(z). even(s(X)) :- not even(X).\n", encoding="utf-8")
    query = "even(" + "s(" * 24 + "z" + ")" * 25 + "."
    assert cli_main(["solve", str(path), "-q", query]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["yes"]


def test_bad_query_is_a_parse_error(family_file, capsys):
    assert cli_main(["solve", family_file, "-q", "niece(X"]) == EXIT_PARSE


# -- prune and graph -----------------------------------------------------------------


def test_prune_removes_irrelevant_clauses(family_file, capsys):
    assert cli_main(["prune", family_file, "-q", "niece(X, Y)."]) == EXIT_OK
    out = capsys.readouterr().out
    pruned = parse_program(out)
    assert len(pruned) == 9
    assert not pruned.defines(PredId("male", 1))
    assert not pruned.defines(PredId("grandparent", 2))
    assert pruned.defines(PredId("female", 1))
    assert "female(jill)." in out


def test_prune_writes_output_file(family_file, tmp_path, capsys):
    dest = tmp_path / "pruned.pl"
    assert cli_main(["prune", family_file, "-q", "niece(X, Y).", "-o", str(dest)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert len(parse_program(dest.read_text(encoding="utf-8"))) == 9


def test_graph_emits_dot(family_file, capsys):
    assert cli_main(["graph", family_file, "-q", "niece(X, Y)."]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("digraph deps {")
    assert '"niece/2" -> "auntuncle/2";' in out
    assert '"niece/2" [shape=doublecircle];' in out


def test_graph_writes_dot_file(family_file, tmp_path):
    dest = tmp_path / "deps.dot"
    assert cli_main(["graph", family_file, "-q", "niece(X, Y).", "--dot", str(dest)]) == EXIT_OK
    assert dest.read_text(encoding="utf-8").startswith("digraph deps {")


# -- plan ------------------------------------------------------------------------------


def test_plan_prints_actions_and_confirmation(scene_file, capsys):
    assert cli_main(["plan", "--scene", scene_file, "--task", "grab_remote"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "walk(remotecontrol1)",
        "grab(remotecontrol1)",
        "GOAL SATISFIED",
    ]


def test_plan_reads_a_scene_file_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "scene.json"
    path.write_text("\ufeff" + SIX_OBJECT_SCENE_JSON, encoding="utf-8")
    assert cli_main(["plan", "--scene", str(path), "--task", "grab_remote"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "GOAL SATISFIED"


def test_plan_from_random_scene(capsys):
    assert cli_main(["plan", "--scene", "random:3:8", "--task", "grab_remote"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "GOAL SATISFIED"
    assert len(lines) == 3  # walk, grab, confirmation


@pytest.mark.parametrize(
    "actions, err",
    [
        (
            [Action("grab", "remotecontrol1")],
            "error: plan failed validation: step 0: not close to remotecontrol1\n",
        ),
        ([Action("walk", "remotecontrol1")], "error: plan failed validation\n"),
    ],
    ids=["illegal_step", "goal_missed"],
)
def test_a_plan_the_simulator_rejects_fails_validation(actions, err, monkeypatch, capsys):
    # The plan is replayed for real: one has an illegal step, one misses the goal.
    monkeypatch.setattr(cli, "plan", lambda *args: actions)
    assert cli_main(["plan", "--scene", "random:7:10", "--task", "grab_remote"]) == EXIT_NO_ANSWER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_plan_unresolvable_task(capsys):
    code = cli_main(["plan", "--scene", "random:2:3", "--task", "sit_on_couch"])
    assert code == EXIT_NO_ANSWER
    assert "no object of type couch" in capsys.readouterr().err


def test_plan_length_cap_yields_no_plan(scene_file, capsys):
    code = cli_main(["plan", "--scene", scene_file, "--task", "grab_remote", "--max-len", "1"])
    assert code == EXIT_NO_ANSWER
    assert "no plan" in capsys.readouterr().err


def test_plan_timeout_exit_code(capsys):
    code = cli_main([
        "plan", "--scene", "random:7:100",
        "--task", "grab_remote_and_shirt", "--timeout", "0.0005",
    ])
    assert code == EXIT_TIMEOUT
    assert "timeout" in capsys.readouterr().err


def test_plan_rejects_unknown_task(scene_file, capsys):
    assert cli_main(["plan", "--scene", scene_file, "--task", "fly_to_moon"]) == EXIT_USAGE


def test_plan_rejects_malformed_scene_argument(capsys):
    assert cli_main(["plan", "--scene", "random:5", "--task", "grab_remote"]) == EXIT_USAGE


def test_plan_schema_error(tmp_path, capsys):
    bad = tmp_path / "scene.json"
    bad.write_text('{"rooms": []}', encoding="utf-8")
    assert cli_main(["plan", "--scene", str(bad), "--task", "grab_remote"]) == EXIT_PARSE
    assert "scene error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where, room",
    [("object", ["livingroom100"]), ("agent", {"id": "livingroom100"})],
)
def test_plan_rejects_a_room_that_is_not_a_string(tmp_path, capsys, where, room):
    doc = json.loads(SIX_OBJECT_SCENE_JSON)
    (doc["objects"][0] if where == "object" else doc["agent"])["room"] = room
    bad = tmp_path / "scene.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert cli_main(["plan", "--scene", str(bad), "--task", "grab_remote"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "scene error" in err and f"{where} room" in err


def test_plan_has_no_prune_switch(capsys):
    argv = ["plan", "--scene", "random:7:6", "--task", "grab_remote", "--no-prune"]
    assert cli_main(argv) == EXIT_USAGE


# -- top level -----------------------------------------------------------------------


def test_help_exits_cleanly(capsys):
    assert cli_main(["--help"]) == EXIT_OK
    assert "homelog" in capsys.readouterr().out


def test_no_arguments_is_a_usage_error(capsys):
    assert cli_main([]) == EXIT_USAGE


def test_bench_is_not_a_subcommand(capsys):
    assert cli_main(["bench", "--scene", "random:7:6"]) == EXIT_USAGE


def readme_cli_lines():
    """Every `homelog ...` line in README's fenced sh blocks."""
    lines, in_sh = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("homelog "):
            lines.append(line)
    return lines


def test_readme_cli_examples_parse():
    lines = readme_cli_lines()
    assert lines
    parser = cli._build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_parsed_defaults_are_the_library_defaults():
    parser = cli._build_parser()
    solve_args = parser.parse_args(["solve", "f.pl", "-q", "p"])
    assert solve_args.max_depth == SolveConfig().max_depth
    assert solve_args.steps == SolveConfig().step_budget
    plan_args = parser.parse_args(["plan", "--scene", "random:7:6", "--task", "grab_remote"])
    assert plan_args.max_len == PlanOptions().max_plan_len


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert cli_main(["frobnicate"]) == EXIT_USAGE


def test_internal_error_has_its_own_exit_code(family_file, monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_parse", broken)
    assert cli_main(["parse", family_file]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"


_FAILURE_ROWS = [
    (UnresolvableTask("couch"), EXIT_NO_ANSWER, "error: "),
    (IllegalAction("not close to remotecontrol1", 0), EXIT_NO_ANSWER, "error: plan failed validation: "),
    (SolveTimeout("wall-clock limit reached"), EXIT_TIMEOUT, "timeout: "),
    (BudgetExceeded("step budget exhausted"), EXIT_TIMEOUT, "stopped: "),
    (FlounderError("negated call not ground"), EXIT_FLOUNDER, "error: "),
    (ParseError("unexpected token", 1, 1), EXIT_PARSE, "parse error: "),
    (SchemaError("bad scene"), EXIT_PARSE, "scene error: "),
    (OSError("no such file"), EXIT_USAGE, "error: "),
    (ValueError("bad value"), EXIT_USAGE, "error: "),
    (RuntimeError("boom"), EXIT_INTERNAL, "internal error: RuntimeError: "),
]


@pytest.mark.parametrize("command", ["solve", "plan"])
@pytest.mark.parametrize(
    "failure, code, prefix", _FAILURE_ROWS, ids=[type(row[0]).__name__ for row in _FAILURE_ROWS]
)
def test_every_failure_maps_to_one_exit_code_and_prefix(
    command, failure, code, prefix, family_file, monkeypatch, capsys
):
    def fail(*args):
        raise failure

    monkeypatch.setattr(cli, command, fail)
    argv = {
        "solve": ["solve", family_file, "-q", "parent(X, Y)."],
        "plan": ["plan", "--scene", "random:7:10", "--task", "grab_remote"],
    }[command]
    assert cli_main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{prefix}{failure}\n"


# What a command prints as its last stderr line when it fails by returning
# a code rather than raising: no answer or plan, and argparse's usage error.
_RETURNED_FAILURES = {EXIT_NO_ANSWER: ("no answers.", "no plan found."), EXIT_USAGE: ("homelog ",)}

_CLAUSES = [
    "p(a). ", "p(b). ", "q(X) :- p(X). ", "r(X) :- p(X), not q(X). ", "edge(a, b). edge(b, a). ",
    "path(X, Y) :- edge(X, Y). ", "path(X, Y) :- path(X, Z), edge(Z, Y). ",
    "nat(z). nat(s(X)) :- nat(X). ", "s(X) :- not t(X). ", "m(L) :- member(x, L). ",
    "u(X, Y) :- X = f(Y), Y \\= a. ", "% comment\n",
]
_BROKEN = ["p(", ")", ":-", "foo bar.", "'", "X.", "1a", "p(X) :- not(not(q(X))).", "[a|", "\\", "9."]
_QUERIES = [
    "p(X).", "?- q(X).", "path(a, Y).", "nat(X).", "r(b).", "X = f(X).", "not p(Y).", "s(X).",
    "p(X), not q(Y).", "m(L).", "member(X, L).", "u(A, B).", "zz(_).",
]
_HUGE = "9" * 40
_BAD_LIMITS = ["-1", "nan", "inf", "-inf", "x", "1e308", _HUGE]


def _mostly(usual, rare):
    """A draw from `usual` three times in four, else from `rare`."""
    return st.integers(0, 3).flatmap(lambda i: usual if i else rare)


@st.composite
def _program_bytes(draw):
    parts = draw(st.lists(st.sampled_from(_CLAUSES), max_size=6))
    if draw(st.integers(0, 2)) == 0:
        broken = draw(st.sampled_from(_BROKEN) | st.text(max_size=6))
        parts.insert(draw(st.integers(0, len(parts))), broken)
    data = "".join(parts).encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 4)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\xed\xa0\x80"])) + data[cut:]
    return data


@st.composite
def _scene_bytes(draw):
    """The six-object scene document with up to three faults: a key
    dropped, a value of the wrong type, a duplicate id, an unknown key, or
    text that is no JSON object."""
    doc = json.loads(SIX_OBJECT_SCENE_JSON)
    wrong = st.sampled_from([3, "", "maybe", None, [], {}, True, "on", "x y", ["ghost"], ["couch1"]])
    for _ in range(max(0, draw(st.integers(-3, 3)))):
        kind = draw(st.sampled_from(["drop", "extra", "top", "object", "agent", "duplicate", "room"]))
        target = doc.get({"object": "objects", "duplicate": "objects", "agent": "agent"}.get(kind, "rooms"))
        if kind == "drop":
            doc.pop(draw(st.sampled_from(["rooms", "objects", "agent"])), None)
        elif kind == "extra":
            doc["doors"] = []
        elif kind == "top":
            doc[draw(st.sampled_from(["rooms", "objects", "agent"]))] = draw(wrong)
        elif kind == "duplicate" and isinstance(target, list) and target and isinstance(target[0], dict):
            twin_id = draw(st.sampled_from([target[0].get("id"), "livingroom100", "character0"]))
            target.append({**target[0], "id": twin_id})
        elif kind == "object" and isinstance(target, list) and target and isinstance(target[0], dict):
            key = draw(st.sampled_from(["id", "type", "room", "powered", "grabbable", "sittable", "switchable", "size"]))
            if draw(st.booleans()):
                target[0].pop(key, None)
            else:
                target[0][key] = draw(wrong)
        elif kind == "agent" and isinstance(target, dict):
            target[draw(st.sampled_from(["room", "close", "held", "mood"]))] = draw(wrong)
        elif kind == "room" and isinstance(target, list):
            target.append({"id": draw(st.sampled_from(["livingroom100", "remotecontrol1", "x"])), "type": "bedroom"})
    text = json.dumps(doc)
    text = draw(_mostly(st.just(text), st.sampled_from([text[:-1], "[]", "", "{"])))
    return draw(_mostly(st.just(b""), st.sampled_from([b"\xef\xbb\xbf", b"\xff"]))) + text.encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_command_exits_with_a_documented_code_and_its_prefix(data):
    """Drawn programs, queries, scene documents and limits, through all
    five commands: no input is an internal error (exit 5), and every
    failure's last stderr line carries the prefix of its exit code.  Each
    run is bounded: solve by a step budget of at most 20,000 and plan by a
    scene of at most 12 objects and a plan length of at most 4, or else by
    a timeout of at most 0.05 s."""
    draw = data.draw
    command = draw(st.sampled_from(["parse", "solve", "prune", "graph", "plan"]))
    short = st.sampled_from(["0", "0.05"])
    timeout = draw(_mostly(st.none(), st.sampled_from(["0", "0.05"] + _BAD_LIMITS)))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if command == "plan":
            scene = tmp / "scene.json"
            scene.write_bytes(draw(_scene_bytes()))
            random_arg = st.builds("random:{}:{}".format, st.integers(0, 20), st.integers(1, 12))
            odd_arg = st.sampled_from(["random:0:0", "random:1:-2", "random:1", "random:a:3", "random:1:1e3"])
            argv = ["plan", "--scene", draw(st.just(str(scene)) | _mostly(random_arg, odd_arg))]
            argv += ["--task", draw(_mostly(st.sampled_from(sorted(planner.TASK_CATALOG)), st.just("fly")))]
            max_len = draw(_mostly(st.sampled_from(["1", "2", "4"]), st.sampled_from(["-1", "0", "nan", _HUGE])))
            argv += ["--max-len", max_len]
            if max_len == _HUGE:
                timeout = draw(short)
        else:
            path = tmp / "program.pl"
            path.write_bytes(draw(_program_bytes()))
            argv = [command, str(draw(_mostly(st.just(path), st.just(tmp / "missing.pl"))))]
            if command != "parse":
                argv += ["-q", draw(_mostly(st.sampled_from(_QUERIES), st.sampled_from(["?-", "", "p("]) | st.text(max_size=8)))]
            if command != "solve":
                timeout = None
        if command == "solve":
            steps = draw(_mostly(st.sampled_from(["300", "20000"]), st.sampled_from(["0"] + _BAD_LIMITS)))
            argv += ["--steps", steps]
            if steps == _HUGE:
                timeout = draw(short)
            depth = draw(_mostly(st.none(), st.sampled_from(["0", "3"] + _BAD_LIMITS)))
            argv += [] if depth is None else ["--max-depth", depth]
            argv += draw(st.sampled_from([[], ["--no-loop-check"], ["--trace"]]))
        if command in ("prune", "graph"):
            flag = "-o" if command == "prune" else "--dot"
            argv += draw(st.sampled_from([[], [flag, str(tmp / "out")], [flag, str(tmp / "no" / "out")]]))
        if timeout is not None:
            argv += ["--timeout", timeout]

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    documented = (EXIT_OK, EXIT_NO_ANSWER, EXIT_USAGE, EXIT_TIMEOUT, EXIT_PARSE, EXIT_FLOUNDER)
    assert code in documented, (argv, err.getvalue()[-300:])
    if code != EXIT_OK:
        prefixes = tuple(p for _, c, p in _FAILURE_ROWS if c == code) + _RETURNED_FAILURES.get(code, ())
        last = err.getvalue().splitlines()[-1]
        assert last.startswith(prefixes), (argv, last)


def _run_module(*args):
    """`python -m homelog ARGS` in a fresh interpreter, importing from src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "homelog", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_module_entry_point_plans_and_exits_with_cli_codes(tmp_path):
    done = _run_module("plan", "--scene", "random:7:100", "--task", "grab_remote_and_shirt")
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.splitlines()[-1] == "GOAL SATISFIED"
    missing = _run_module("parse", str(tmp_path / "missing.pl"))
    assert missing.returncode == EXIT_USAGE
