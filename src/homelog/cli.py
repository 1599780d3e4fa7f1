"""Command-line interface: parse, solve, prune, graph, plan.

Exit codes: 0 success, 1 no answer / no plan, 2 usage error, 3 timeout
or budget exhausted, 4 parse or scene-schema error, 5 internal error,
6 floundering (a negated call or insert_sorted/3 reached non-ground).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .engine import BudgetExceeded, FlounderError, SolveConfig, SolveTimeout, solve
from .parser import ParseError, parse_program, parse_query
from .planner import (
    TASK_CATALOG,
    PlanOptions,
    UnresolvableTask,
    execute_plan,
    goal_satisfied,
    plan,
)
from .program import format_program
from .relevance import build_depgraph, prune_program, to_dot
from .world import IllegalAction, SchemaError, WorldState, load_scene, random_scene

EXIT_OK = 0
EXIT_NO_ANSWER = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_PARSE = 4
EXIT_INTERNAL = 5
EXIT_FLOUNDER = 6

# Every failure a command lets out, in the order they are tested: the
# exit code and the prefix of its one stderr line.
_FAILURES = (
    (UnresolvableTask, EXIT_NO_ANSWER, "error"),
    (IllegalAction, EXIT_NO_ANSWER, "error: plan failed validation"),
    (SolveTimeout, EXIT_TIMEOUT, "timeout"),
    (BudgetExceeded, EXIT_TIMEOUT, "stopped"),
    (FlounderError, EXIT_FLOUNDER, "error"),
    (ParseError, EXIT_PARSE, "parse error"),
    (SchemaError, EXIT_PARSE, "scene error"),
    ((OSError, ValueError), EXIT_USAGE, "error"),
)


def _read_text(path: str) -> str:
    """A UTF-8 file's text, without the byte order mark some editors write."""
    with open(path, "r", encoding="utf-8-sig") as f:
        return f.read()


def _parse_query_arg(text: str):
    """Queries may be given with or without the leading ?- marker."""
    stripped = text.strip()
    if not stripped.startswith("?-"):
        stripped = "?- " + stripped
    return parse_query(stripped)


def _load_scene_arg(value: str) -> WorldState:
    """A scene argument is either a file path or random:SEED:N."""
    if value.startswith("random:"):
        parts = value.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected random:SEED:N, got {value!r}")
        return random_scene(int(parts[1]), int(parts[2]))
    return load_scene(_read_text(value))


def _solve_config(args: argparse.Namespace) -> SolveConfig:
    trace = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    return SolveConfig(
        max_depth=args.max_depth,
        step_budget=args.steps,
        loop_check=not args.no_loop_check,
        wall_timeout=args.timeout,
        trace=trace,
    )


def _write_out(text: str, path: Optional[str]) -> None:
    """Write the text to the named file, or else to stdout."""
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        print(text, end="")


def _cmd_parse(args: argparse.Namespace) -> int:
    program = parse_program(_read_text(args.file))
    print(format_program(program), end="")
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    start = time.monotonic()
    program = parse_program(_read_text(args.file))
    goals = _parse_query_arg(args.query)
    count = 0
    for answer in solve(program, goals, _solve_config(args).time_left(start)):
        print(answer)
        count += 1
    if count == 0:
        print("no answers.", file=sys.stderr)
        return EXIT_NO_ANSWER
    return EXIT_OK


def _cmd_prune(args: argparse.Namespace) -> int:
    program = parse_program(_read_text(args.file))
    goals = _parse_query_arg(args.query)
    _write_out(format_program(prune_program(program, goals)), args.output)
    return EXIT_OK


def _cmd_graph(args: argparse.Namespace) -> int:
    program = parse_program(_read_text(args.file))
    goals = _parse_query_arg(args.query)
    _write_out(to_dot(build_depgraph(program, goals)), args.dot)
    return EXIT_OK


def _cmd_plan(args: argparse.Namespace) -> int:
    start = time.monotonic()
    scene = _load_scene_arg(args.scene)
    task = TASK_CATALOG[args.task]
    options = PlanOptions(
        max_plan_len=args.max_len,
        config=SolveConfig(wall_timeout=args.timeout).time_left(start),
    )
    actions = plan(scene, task, options)
    if actions is None:
        print("no plan found.", file=sys.stderr)
        return EXIT_NO_ANSWER
    final = execute_plan(scene, actions)
    if not goal_satisfied(final, task):
        print("error: plan failed validation", file=sys.stderr)
        return EXIT_NO_ANSWER
    for action in actions:
        print(action)
    print("GOAL SATISFIED")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homelog",
        description="Logic-programming engine with query-relevance pruning "
        "and a household planning domain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solve_defaults = SolveConfig()

    p = sub.add_parser("parse", help="syntax-check a program and pretty-print it")
    p.add_argument("file")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("solve", help="run a query and print each answer")
    p.add_argument("file")
    p.add_argument("-q", "--query", required=True)
    p.add_argument("--max-depth", type=int, default=solve_defaults.max_depth)
    p.add_argument("--steps", type=int, default=solve_defaults.step_budget)
    p.add_argument("--timeout", type=float, default=None)
    p.add_argument("--no-loop-check", action="store_true")
    p.add_argument("--trace", action="store_true", help="log derivation steps to stderr")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("prune", help="remove clauses irrelevant to a query")
    p.add_argument("file")
    p.add_argument("-q", "--query", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("graph", help="emit the predicate dependency graph as DOT")
    p.add_argument("file")
    p.add_argument("-q", "--query", required=True)
    p.add_argument("--dot", help="output file (default stdout)")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("plan", help="plan a task in a scene and print the actions")
    p.add_argument("--scene", required=True, help="scene file or random:SEED:N")
    p.add_argument("--task", required=True, choices=sorted(TASK_CATALOG))
    p.add_argument("--max-len", type=int, default=PlanOptions().max_plan_len)
    p.add_argument("--timeout", type=float, default=None)
    p.set_defaults(func=_cmd_plan)

    return parser


def cli_main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except Exception as e:
        for kind, code, prefix in _FAILURES:
            if isinstance(e, kind):
                print(f"{prefix}: {e}", file=sys.stderr)
                return code
        # A fault in homelog itself: one line instead of a traceback.
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
