"""Per-layer tracing from outside the package.

`Tracer.install` rebinds the names that `homelog.planner` and
`homelog.engine` imported from the other modules, so every call the
planner makes into the engine, slicer, world and parser, and every call
the engine makes to unify or rename a term, goes through a wrapper here.
Nothing in `src/` changes.  Layer calls become spans; the two
high-frequency `terms` calls only bump a count and a time sum.
Everything stays in memory until `write`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import homelog.engine as engine
import homelog.planner as planner
from homelog.terms import list_parts

# A span is [id, parent id, op index, name, start, end, attrs].
ID, PARENT, OP, NAME, START, END, ATTRS = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self.unify_calls = 0
        self.unify_s = 0.0
        self.rename_calls = 0
        self.rename_s = 0.0
        self._open: List[list] = []
        self._saved: Dict[tuple, object] = {}

    # -- spans -----------------------------------------------------------------

    def _begin(self, name: str, attrs: dict) -> list:
        parent = self._open[-1][ID] if self._open else None
        rec = [len(self.spans), parent, self.op, name, perf_counter(), None, attrs]
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str, **attrs):
        rec = self._begin(name, attrs)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            self._open.pop()

    def _timed_solve(self, answers, length: Optional[int]):
        """Wrap a solve generator: its span's busy time sums the time spent
        inside the generator, which is where the engine does its work."""
        rec = self._begin("engine.solve", {"length": length, "answers": 0, "busy": 0.0})
        attrs = rec[ATTRS]
        while True:
            self._open.append(rec)
            t = perf_counter()
            try:
                answer = next(answers)
            except StopIteration:
                return
            finally:
                rec[END] = perf_counter()
                attrs["busy"] += rec[END] - t
                self._open.pop()
            attrs["answers"] += 1
            yield answer

    # -- rebinding ---------------------------------------------------------------

    def install(self) -> None:
        real_solve = engine.solve
        real_unify = engine.unify_in_place
        real_rename = engine.rename_apart_term
        real_prune = planner.prune_program
        real_facts = planner.state_to_facts
        real_parse = planner.parse_program

        def unify_in_place(*args):
            t = perf_counter()
            try:
                return real_unify(*args)
            finally:
                self.unify_s += perf_counter() - t
                self.unify_calls += 1

        def rename_apart_term(*args):
            t = perf_counter()
            try:
                return real_rename(*args)
            finally:
                self.rename_s += perf_counter() - t
                self.rename_calls += 1

        def engine_solve(program, goals, config=None):
            return self._timed_solve(real_solve(program, goals, config), None)

        def planner_solve(program, goals, config=None):
            # The planner asks for transform(Goals, [A1, ..., An]).
            length = len(list_parts(goals[0].atom.args[1])[0])
            return self._timed_solve(real_solve(program, goals, config), length)

        def prune_program(program, query):
            with self.span("relevance.prune", clauses_in=len(program)) as rec:
                out = real_prune(program, query)
                rec[ATTRS]["clauses_out"] = len(out)
            return out

        def state_to_facts(state):
            with self.span("world.facts") as rec:
                out = real_facts(state)
                rec[ATTRS]["facts"] = len(out)
            return out

        def parse_program(text):
            with self.span("parser.parse", kb=len(text) / 1024):
                return real_parse(text)

        self._rebind(engine, "unify_in_place", unify_in_place)
        self._rebind(engine, "rename_apart_term", rename_apart_term)
        self._rebind(engine, "solve", engine_solve)
        self._rebind(planner, "solve", planner_solve)
        self._rebind(planner, "prune_program", prune_program)
        self._rebind(planner, "state_to_facts", state_to_facts)
        self._rebind(planner, "parse_program", parse_program)

    def _rebind(self, module, name: str, fn) -> None:
        self._saved[(module, name)] = getattr(module, name)
        setattr(module, name, fn)

    def uninstall(self) -> None:
        for (module, name), fn in self._saved.items():
            setattr(module, name, fn)
        self._saved.clear()

    # -- results -----------------------------------------------------------------

    def layer_metrics(self, ops: int) -> Dict[str, Tuple[float, str]]:
        """(value, unit) per layer metric, over the spans of indexed ops.

        Times and counts are per op, or per plan for the planner, relevance
        and world layers; parser.parse_s is per parse call and includes the
        knowledge-base parse in set-up.
        """
        spans = [s for s in self.spans if s[END] is not None]

        def dur(s: list) -> float:
            return s[ATTRS]["busy"] if s[NAME] == "engine.solve" else s[END] - s[START]

        def named(name: str) -> List[list]:
            return [s for s in spans if s[NAME] == name and s[OP] is not None]

        def per(total: float, n: int) -> float:
            return total / n if n else 0.0

        plans = named("planner.plan")
        n_plans = len(plans)
        plan_ids = {s[ID] for s in plans}
        solves = named("engine.solve")
        plan_solves = [s for s in solves if s[PARENT] in plan_ids]
        solve_s = sum(dur(s) for s in solves)
        plan_solve_s = sum(dur(s) for s in plan_solves)
        in_plans_s = sum(dur(s) for s in spans if s[PARENT] in plan_ids)
        prunes = named("relevance.prune")
        facts = named("world.facts")
        parses = [s for s in spans if s[NAME] == "parser.parse"]
        parse_s = sum(dur(s) for s in parses)

        out = {
            "terms.unify_calls": (per(self.unify_calls, ops), "count"),
            "terms.unify_s": (per(self.unify_s, ops), "s"),
            "terms.us_per_unify": (per(1e6 * self.unify_s, self.unify_calls), "us"),
            "terms.rename_calls": (per(self.rename_calls, ops), "count"),
            "terms.rename_s": (per(self.rename_s, ops), "s"),
            "engine.solve_s": (per(solve_s, ops), "s"),
            "engine.self_s": (per(solve_s - self.unify_s - self.rename_s, ops), "s"),
            "engine.answers": (per(sum(s[ATTRS]["answers"] for s in solves), ops), "count"),
            "planner.solve_calls_per_plan": (per(len(plan_solves), n_plans), "count"),
        }
        for k in range(1, 5):
            at_k = sum(dur(s) for s in plan_solves if s[ATTRS]["length"] == k)
            out[f"planner.solve_s.len{k}"] = (per(at_k, n_plans), "s")
        wasted = sum(dur(s) for s in plan_solves if not s[ATTRS]["answers"])
        kept = sum(s[ATTRS]["clauses_out"] for s in prunes)
        offered = sum(s[ATTRS]["clauses_in"] for s in prunes)
        out.update({
            "planner.wasted_solve_share": (per(wasted, plan_solve_s), "ratio"),
            "planner.self_s": (per(sum(dur(s) for s in plans) - in_plans_s, n_plans), "s"),
            "relevance.prune_s": (per(sum(dur(s) for s in prunes), n_plans), "s"),
            "relevance.kept_ratio": (per(kept, offered), "ratio"),
            "world.facts_s": (per(sum(dur(s) for s in facts), n_plans), "s"),
            "world.facts_per_plan": (per(sum(s[ATTRS]["facts"] for s in facts), n_plans), "count"),
            "world.replay_s": (per(sum(dur(s) for s in named("world.replay")), n_plans), "s"),
            "parser.parse_s": (per(parse_s, len(parses)), "s"),
            "parser.kb_per_s": (per(sum(s[ATTRS]["kb"] for s in parses), parse_s), "KB/s"),
        })
        return out

    def write(self, path: str, provenance: dict) -> None:
        counters = {
            "terms.unify_calls": self.unify_calls,
            "terms.unify_s": self.unify_s,
            "terms.rename_calls": self.rename_calls,
            "terms.rename_s": self.rename_s,
        }
        fields = ("id", "parent", "op", "name", "start", "end", "attrs")
        with open(path, "w") as f:
            json.dump({
                "provenance": provenance,
                "counters": counters,
                "spans": [dict(zip(fields, s)) for s in self.spans],
            }, f)
