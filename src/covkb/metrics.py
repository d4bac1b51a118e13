"""Support, optimality and permanence over a coverage graph.

Support is bits of class-labelled evidence flowing up the reduced edges:
a sink of class c injects its length into class c, every node adds its
per-class residual, and a node's support is divided equally among its
coverers.  Optimality trades compression gain against impurity with a
mixing factor beta; permanence discounts a rule's optimality by its best
transitive coverer and is the forgetting priority (lowest goes first),
computed fresh only when a forget batch or an exporter reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .covgraph import CoverageGraph, _cone_order

ClassVector = Dict[str, float]


@dataclass
class MetricsTable:
    support: Dict[int, ClassVector]
    opt: Dict[int, ClassVector]
    opt_generic: Dict[int, float]
    argmax_class: Dict[int, str]


def _support_row(graph: CoverageGraph, nid: int, classes, support) -> ClassVector:
    """One node's support, from its children's rows in `support`."""
    row = {c: graph.residual(nid, c) for c in classes}
    if not graph.suc(nid):
        label = graph.nodes[nid].class_label
        if label is not None:
            row[label] += graph.lengths[nid]
    for child in graph.suc(nid):
        share = 1.0 / len(graph.anc(child))
        child_row = support[child]
        for c in classes:
            row[c] += child_row[c] * share
    return row


def compute_support(graph: CoverageGraph, classes: Sequence[str]) -> Dict[int, ClassVector]:
    """Per-node, per-class conservative support: a fresh table's, which
    does not depend on beta."""
    return compute_table(graph, 0.0, classes).support


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
    previous: Optional[MetricsTable] = None,
    touched: Iterable[int] = (),
) -> MetricsTable:
    """Support and optimality of `graph`, rescoring only rows `touched` can change.

    `previous` is the table at this beta before the mutations recorded in
    `touched` (`CoverageGraph.touched`); without it every node is a seed.
    New dicts and rows are filled, so `previous` never changes.
    """
    if previous is None:
        previous = MetricsTable({}, {}, {}, {})
        touched = graph.nodes
    tables = [dict(getattr(previous, f.name)) for f in fields(MetricsTable)]
    support, opt, opt_generic, argmax = tables
    seeds = {nid for nid in touched if nid in graph.nodes}
    for nid in set(touched) - seeds:  # removed nodes
        for table in tables:
            table.pop(nid, None)

    # Leaves first over the ancestor cone: support reads the children's
    # rows and parent counts, and a seed's parent count may have changed.
    # A seed may also be a new node under a removed node's id.
    lengths = graph.lengths
    for nid in _cone_order(seeds, graph.parents):
        row = _support_row(graph, nid, classes, support)
        if row != support.get(nid) or nid in seeds:
            support[nid] = row
            opt[nid], opt_generic[nid], argmax[nid] = optimality_row(
                lengths[nid], row, beta, classes
            )
    return MetricsTable(*tables)


def compute_permanence(
    graph: CoverageGraph, table: MetricsTable, classes: Sequence[str]
) -> Tuple[Dict[int, ClassVector], Dict[int, float]]:
    """Per-node, per-class permanence and its generic max, from `table`'s
    optimality.  Roots first, a node's best coverer optimality per class is
    the max over its reduced parents' optimality and best coverer's: the
    reduction's reachability equals the full relation's closure."""
    opt, best_cov, perm, perm_generic = table.opt, {}, {}, {}
    for nid in _cone_order(graph.nodes, graph.reduced):
        best = dict.fromkeys(classes, float("-inf"))
        for parent in graph.parents[nid]:
            parent_opt, parent_best = opt[parent], best_cov[parent]
            for c in classes:
                cand = parent_opt[c] if parent_opt[c] > parent_best[c] else parent_best[c]
                if cand > best[c]:
                    best[c] = cand
        best_cov[nid] = best
        opt_row = opt[nid]
        perm[nid] = row = {c: permanence_value(opt_row[c], best[c]) for c in classes}
        perm_generic[nid] = max(row.values())
    return perm, perm_generic
