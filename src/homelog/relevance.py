"""Predicate-level dependency graphs and query-directed program slicing.

The graph has one node per predicate and an edge from a rule's head
predicate to each body predicate, flagged when the body literal sits
under negation.  Slicing keeps exactly the clauses whose head predicate
is reachable from the query's predicates; the comparison builtins and
the solver prelude are never pruned away.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .engine import PRELUDE_PREDS
from .program import BUILTIN_PREDS, Literal, PredId, Program, forward_closure

__all__ = [
    "BUILTIN_PREDS",
    "DepGraph",
    "build_depgraph",
    "reachable",
    "prune_program",
    "to_dot",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DepGraph:
    nodes: FrozenSet[PredId]
    # (head predicate, body predicate, body literal is negated)
    edges: FrozenSet[Tuple[PredId, PredId, bool]]
    roots: FrozenSet[PredId]


def build_depgraph(program: Program, query: Sequence[Literal]) -> DepGraph:
    """Dependency graph of the program with the query predicates as roots."""
    nodes: Set[PredId] = set(BUILTIN_PREDS) | set(PRELUDE_PREDS)
    edges: Set[Tuple[PredId, PredId, bool]] = set()
    for clause in program:
        head = clause.head_pred
        nodes.add(head)
        for lit in clause.body:
            nodes.add(lit.pred)
            edges.add((head, lit.pred, lit.negated))
    roots = {lit.pred for lit in query}
    nodes |= roots
    return DepGraph(frozenset(nodes), frozenset(edges), frozenset(roots))


def reachable(graph: DepGraph) -> FrozenSet[PredId]:
    """Forward closure from the roots; negated edges are followed too.

    Builtins and the prelude are always included, so an empty root set
    yields exactly those.
    """
    adj: Dict[PredId, List[PredId]] = {}
    for src, dst, _ in graph.edges:
        adj.setdefault(src, []).append(dst)
    closure = forward_closure(adj, graph.roots)
    return frozenset(closure.union(BUILTIN_PREDS, PRELUDE_PREDS, graph.roots))


def prune_program(program: Program, query: Sequence[Literal]) -> Program:
    """Slice of the program relevant to the query, in source order.

    Slicing never changes what the solver can derive for the query: it
    only drops clauses whose head predicate the query can never call.
    """
    graph = build_depgraph(program, query)
    keep = reachable(graph)
    for root in sorted(graph.roots, key=str):
        if root not in program.index and root not in PRELUDE_PREDS and root not in BUILTIN_PREDS:
            log.warning("query predicate %s is not defined; slice keeps only the prelude", root)
    return Program(c for c in program if c.head_pred in keep)


def _quote(pred: PredId) -> str:
    return '"' + str(pred).replace("\\", "\\\\") + '"'


def to_dot(graph: DepGraph) -> str:
    """Render the graph in DOT form; roots doubled, negated edges dashed."""
    lines = [
        "digraph deps {",
        "  rankdir=LR;",
        "  node [shape=ellipse];",
    ]
    for node in sorted(graph.nodes, key=str):
        attrs = " [shape=doublecircle]" if node in graph.roots else ""
        lines.append(f"  {_quote(node)}{attrs};")
    for src, dst, negated in sorted(graph.edges, key=lambda e: (str(e[0]), str(e[1]), e[2])):
        attrs = " [style=dashed]" if negated else ""
        lines.append(f"  {_quote(src)} -> {_quote(dst)}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"
