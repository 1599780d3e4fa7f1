"""Benchmark rows and their markdown/CSV renderings."""

import csv
import io
from math import inf

import pytest

from homelog.bench import BenchReport, BenchRow, format_csv, format_markdown, run_bench
from homelog.planner import TASK_CATALOG
from homelog.world import random_scene

SAMPLE = BenchReport(
    rows=(
        BenchRow("grab_remote", 6, 0.5, 0.125, 40, 30, 2, 4.0),
        BenchRow("grab_remote_and_shirt", 6, None, 0.25, 40, 30, 4, inf),
        BenchRow("sit_on_couch", 6, None, None, 40, 30, None, None, note="hard"),
    ),
    env={"python": "3.x", "cpus": "4"},
    timeout=60.0,
    repeats=3,
)


def test_markdown_layout():
    text = format_markdown(SAMPLE)
    lines = text.splitlines()
    assert "- python: 3.x" in lines
    assert "- timeout: 60 s, repeats: 3 (median)" in lines
    header = next(l for l in lines if l.startswith("| task"))
    assert header == (
        "| task | objects | unpruned (s) | pruned (s) | facts before"
        " | facts after | plan length | speedup | note |"
    )
    table = [l for l in lines if l.startswith("|")]
    # header, separator, one line per row
    assert len(table) == 2 + len(SAMPLE.rows)
    assert "| grab_remote | 6 | 0.500 | 0.125 | 40 | 30 | 2 | 4.00 |  |" in lines
    assert "| grab_remote_and_shirt | 6 | TIMEOUT | 0.250 | 40 | 30 | 4 | ∞ (timeout) |  |" in lines
    assert "| sit_on_couch | 6 | TIMEOUT | TIMEOUT | 40 | 30 |  |  | hard |" in lines


def test_csv_matches_markdown_cell_for_cell():
    md_rows = [
        [c.strip() for c in line.strip("|").split("|")]
        for line in format_markdown(SAMPLE).splitlines()
        if line.startswith("|") and "---" not in line
    ]
    csv_rows = list(csv.reader(io.StringIO(format_csv(SAMPLE))))
    assert csv_rows == md_rows


def test_csv_is_well_formed():
    rows = list(csv.reader(io.StringIO(format_csv(SAMPLE))))
    assert rows[0][0] == "task"
    assert all(len(r) == len(rows[0]) for r in rows)
    assert rows[1][2] == "0.500"
    assert rows[2][2] == "TIMEOUT"
    assert rows[3][8] == "hard"


def test_run_bench_on_the_six_object_scene(six_scene):
    tasks = [TASK_CATALOG["walk_to_remote"], TASK_CATALOG["grab_remote"]]
    report = run_bench(six_scene, tasks, timeout=30.0, repeats=1)
    assert [r.task for r in report.rows] == ["walk_to_remote", "grab_remote"]
    for row, want_len in zip(report.rows, (1, 2)):
        assert row.scene_size == 6
        assert row.plan_len == want_len
        assert row.note == ""
        assert row.pruned_s is not None and row.pruned_s < 30.0
        assert row.unpruned_s is not None
        assert row.speedup is not None and row.speedup > 0
        assert 0 < row.facts_after <= row.facts_before
    assert report.env["clock"] == "time.monotonic"


def test_run_bench_isolates_unresolvable_tasks():
    # Scenes with fewer than six objects get filler objects only, so no
    # couch or remote exists and both tasks are unresolvable by type.
    scene = random_scene(2, 3)
    report = run_bench(scene, [TASK_CATALOG["sit_on_couch"], TASK_CATALOG["walk_to_remote"]],
                       timeout=10.0, repeats=1)
    first, second = report.rows
    assert "couch" in first.note
    assert first.plan_len is None and first.speedup is None
    assert second.task == "walk_to_remote"
    assert "remotecontrol" in second.note


def test_run_bench_is_deterministic_in_shape(six_scene):
    tasks = [TASK_CATALOG["grab_remote"]]
    a = run_bench(six_scene, tasks, timeout=30.0, repeats=1)
    b = run_bench(six_scene, tasks, timeout=30.0, repeats=1)
    strip = lambda r: (r.task, r.scene_size, r.facts_before, r.facts_after, r.plan_len, r.note)
    assert [strip(r) for r in a.rows] == [strip(r) for r in b.rows]


def test_run_bench_rejects_zero_repeats(six_scene):
    with pytest.raises(ValueError):
        run_bench(six_scene, [TASK_CATALOG["grab_remote"]], repeats=0)
