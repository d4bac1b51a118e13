"""Support, optimality and permanence over a coverage graph.

Support is bits of class-labelled evidence flowing up the reduced edges:
a sink of class c injects its length into class c, every node adds its
per-class residual, and a node's support is divided equally among its
coverers.  Optimality trades compression gain against impurity with a
mixing factor beta; permanence discounts a rule's optimality by its best
transitive coverer and is the forgetting priority (lowest goes first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .covgraph import CoverageGraph

NEG_INF = float("-inf")

ClassVector = Dict[str, float]


@dataclass
class MetricsTable:
    support: Dict[int, ClassVector]
    opt: Dict[int, ClassVector]
    opt_generic: Dict[int, float]
    argmax_class: Dict[int, str]
    perm: Dict[int, ClassVector]
    perm_generic: Dict[int, float]


def compute_support(
    graph: CoverageGraph,
    classes: Sequence[str],
    order: Optional[Sequence[int]] = None,
) -> Dict[int, ClassVector]:
    """Per-node, per-class conservative support, leaves first (over `order`,
    the graph's topological order, when the caller already has it)."""
    lengths = graph.lengths
    if order is None:
        order = graph.topological_order()
    support: Dict[int, ClassVector] = {}
    for nid in reversed(order):
        rule = graph.nodes[nid]
        row = {c: graph.residual(nid, c) for c in classes}
        if not graph.suc(nid):
            if rule.class_label is not None:
                row[rule.class_label] += lengths[nid]
        else:
            for child in graph.suc(nid):
                share = 1.0 / len(graph.anc(child))
                child_row = support[child]
                for c in classes:
                    row[c] += child_row[c] * share
        support[nid] = row
    return support


def conservation_check(
    graph: CoverageGraph,
    support: Mapping[int, ClassVector],
    classes: Sequence[str],
) -> Dict[str, float]:
    """Residual-adjusted flow balance per class.

    Root totals must equal leaf totals plus the residual mass held at
    interior nodes; with zero residuals this is the plain leaves-vs-roots
    conservation law.  Returns the absolute imbalance per class.
    """
    leaves = graph.leaves()
    roots = graph.roots()
    balance: Dict[str, float] = {}
    for c in classes:
        leaf_sum = sum(support[v][c] for v in leaves)
        root_sum = sum(support[v][c] for v in roots)
        interior = sum(
            graph.residual(v, c) for v in graph.nodes if graph.suc(v)
        )
        balance[c] = abs(root_sum - leaf_sum - interior)
    return balance


def optimality_row(
    length: float,
    supports: Mapping[str, float],
    beta: float,
    classes: Sequence[str],
) -> Tuple[ClassVector, float, str]:
    """Per-class optimality, its generic max, and the argmax class."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    total = sum(supports[c] for c in classes)
    row: ClassVector = {}
    for c in classes:
        impurity = total - supports[c]
        row[c] = beta * (supports[c] - length) - (1.0 - beta) * impurity
    best = sorted(classes, key=lambda c: (-row[c], c))[0]
    return row, row[best], best


def permanence_value(opt_value: float, best_coverer_opt: float) -> float:
    """Optimality discounted by the best coverer's; a negative one, or -inf
    for a rule with no coverer, counts as 0."""
    return opt_value - max(0.0, best_coverer_opt)


def compute_table(
    graph: CoverageGraph,
    beta: float,
    classes: Sequence[str],
) -> MetricsTable:
    lengths = graph.lengths
    order = graph.topological_order()
    support = compute_support(graph, classes, order)
    opt: Dict[int, ClassVector] = {}
    opt_generic: Dict[int, float] = {}
    argmax: Dict[int, str] = {}
    for nid, row in support.items():
        length = lengths[nid]
        opt[nid], opt_generic[nid], argmax[nid] = optimality_row(
            length, row, beta, classes
        )

    # Best coverer optimality per class, propagated root-down over the
    # reduced edges; reachability there equals the full relation's closure.
    best_cov: Dict[int, ClassVector] = {
        nid: {c: NEG_INF for c in classes} for nid in graph.nodes
    }
    for nid in order:
        for child in graph.suc(nid):
            target = best_cov[child]
            mine = best_cov[nid]
            node_opt = opt[nid]
            for c in classes:
                cand = node_opt[c] if node_opt[c] > mine[c] else mine[c]
                if cand > target[c]:
                    target[c] = cand

    perm: Dict[int, ClassVector] = {}
    perm_generic: Dict[int, float] = {}
    for nid in graph.nodes:
        opt_row, best_row = opt[nid], best_cov[nid]
        row = {c: permanence_value(opt_row[c], best_row[c]) for c in classes}
        perm[nid] = row
        perm_generic[nid] = max(row.values())

    return MetricsTable(
        support=support,
        opt=opt,
        opt_generic=opt_generic,
        argmax_class=argmax,
        perm=perm,
        perm_generic=perm_generic,
    )
