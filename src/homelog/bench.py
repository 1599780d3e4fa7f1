"""Pruned-vs-unpruned planning benchmark with markdown/CSV reports."""

from __future__ import annotations

import csv
import io
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from math import inf
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import BudgetExceeded, SolveConfig, SolveTimeout
from .planner import (
    PlanOptions,
    Task,
    UnresolvableTask,
    domain_kb,
    encode_task,
    execute_plan,
    goal_satisfied,
    plan,
)
from .relevance import prune_program
from .world import WorldState, state_to_facts

__all__ = ["BenchRow", "BenchReport", "run_bench", "format_markdown", "format_csv"]


@dataclass(frozen=True, slots=True)
class BenchRow:
    task: str
    scene_size: int
    unpruned_s: Optional[float]  # None means the run timed out
    pruned_s: Optional[float]
    facts_before: int
    facts_after: int
    plan_len: Optional[int]
    speedup: Optional[float]  # inf when only the unpruned run timed out
    note: str = ""


@dataclass(frozen=True, slots=True)
class BenchReport:
    rows: Tuple[BenchRow, ...]
    env: Dict[str, str] = field(default_factory=dict)
    timeout: float = 60.0
    repeats: int = 3


def _environment() -> Dict[str, str]:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": str(os.cpu_count() or 1),
        "clock": "time.monotonic",
    }


def _timed_plan(
    scene: WorldState, task: Task, prune: bool, timeout: float, repeats: int
) -> Tuple[Optional[float], Optional[List]]:
    """Median wall time over repeats, or (None, None) on the first timeout."""
    times = []
    actions = None
    options = PlanOptions(prune=prune, config=SolveConfig(wall_timeout=timeout))
    for _ in range(repeats):
        start = time.monotonic()
        try:
            actions = plan(scene, task, options)
        except SolveTimeout:
            return None, None
        times.append(time.monotonic() - start)
    return statistics.median(times), actions


def _bench_row(
    scene: WorldState, task: Task, timeout: float, repeats: int
) -> BenchRow:
    size = len(scene.objects)
    try:
        goal = encode_task(task, scene)
    except UnresolvableTask as e:
        return BenchRow(task.name, size, None, None, 0, 0, None, None, note=str(e))

    program = domain_kb() + state_to_facts(scene)
    facts_before = program.fact_count()
    facts_after = prune_program(program, [goal]).fact_count()

    try:
        unpruned_s, unpruned_plan = _timed_plan(scene, task, False, timeout, repeats)
        pruned_s, pruned_plan = _timed_plan(scene, task, True, timeout, repeats)
    except BudgetExceeded as e:
        return BenchRow(
            task.name, size, None, None, facts_before, facts_after, None, None, note=str(e)
        )

    actions = pruned_plan if pruned_plan is not None else unpruned_plan
    note = ""
    plan_len: Optional[int] = None
    if pruned_s is not None and pruned_plan is None:
        note = "no plan found"
    elif actions is not None:
        plan_len = len(actions)
        final = execute_plan(scene, actions)
        if not goal_satisfied(final, task):
            note = "plan failed validation"
    if (
        unpruned_plan is not None
        and pruned_plan is not None
        and len(unpruned_plan) != len(pruned_plan)
    ):
        note = "pruned and unpruned plan lengths differ"

    speedup: Optional[float] = None
    if pruned_s is not None and unpruned_s is not None and pruned_s > 0:
        speedup = unpruned_s / pruned_s
    elif pruned_s is not None and unpruned_s is None:
        speedup = inf

    return BenchRow(
        task.name, size, unpruned_s, pruned_s, facts_before, facts_after,
        plan_len, speedup, note,
    )


def run_bench(
    scene: WorldState,
    tasks: Sequence[Task],
    timeout: float = 60.0,
    repeats: int = 3,
) -> BenchReport:
    """Time every task with pruning off then on; plans are validated by
    execution before they are reported."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    rows = [_bench_row(scene, t, timeout, repeats) for t in tasks]
    return BenchReport(tuple(rows), _environment(), timeout, repeats)


_COLUMNS = (
    "task",
    "objects",
    "unpruned (s)",
    "pruned (s)",
    "facts before",
    "facts after",
    "plan length",
    "speedup",
    "note",
)


def _cells(row: BenchRow) -> List[str]:
    def seconds(value: Optional[float]) -> str:
        return "TIMEOUT" if value is None else f"{value:.3f}"

    if row.speedup is None:
        speedup = ""
    elif row.speedup == inf:
        speedup = "∞ (timeout)"
    else:
        speedup = f"{row.speedup:.2f}"
    return [
        row.task,
        str(row.scene_size),
        seconds(row.unpruned_s),
        seconds(row.pruned_s),
        str(row.facts_before),
        str(row.facts_after),
        "" if row.plan_len is None else str(row.plan_len),
        speedup,
        row.note,
    ]


def format_markdown(report: BenchReport) -> str:
    lines = []
    for key, value in report.env.items():
        lines.append(f"- {key}: {value}")
    lines.append(f"- timeout: {report.timeout:g} s, repeats: {report.repeats} (median)")
    lines.append("")
    lines.append("| " + " | ".join(_COLUMNS) + " |")
    lines.append("|" + "|".join(" --- " for _ in _COLUMNS) + "|")
    for row in report.rows:
        lines.append("| " + " | ".join(_cells(row)) + " |")
    return "\n".join(lines) + "\n"


def format_csv(report: BenchReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_COLUMNS)
    for row in report.rows:
        writer.writerow(_cells(row))
    return buf.getvalue()
