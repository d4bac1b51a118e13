"""Test-only reference oracles, independent of the library's fast paths."""

from typing import Dict, Mapping, Optional, Sequence

from covkb.covgraph import CoverageGraph

ClassVector = Dict[str, float]


class SizeCapExceeded(Exception):
    """The brute-force oracle refuses graphs past its size cap."""


def brute_force_support(
    graph: CoverageGraph,
    classes: Sequence[str],
    lengths: Optional[Mapping[int, float]] = None,
    size_cap: int = 12,
) -> Dict[int, ClassVector]:
    """Independent support oracle by explicit path enumeration.

    Every mass source (a labelled sink's length, any node's residual) is
    pushed upward along every reduced-edge path separately; the weight of a
    path is the product of 1/|anc(hop target)| over its hops.  Exponential,
    hence the size cap.
    """
    if len(graph) > size_cap:
        raise SizeCapExceeded(f"{len(graph)} nodes exceeds cap {size_cap}")
    lengths = graph.lengths if lengths is None else lengths

    def spread(start: int) -> Dict[int, float]:
        reached: Dict[int, float] = {}

        def climb(node: int, weight: float) -> None:
            reached[node] = reached.get(node, 0.0) + weight
            parents = graph.anc(node)
            if parents:
                share = weight / len(parents)
                for p in parents:
                    climb(p, share)

        climb(start, 1.0)
        return reached

    support: Dict[int, ClassVector] = {
        nid: {c: 0.0 for c in classes} for nid in graph.nodes
    }
    for source in graph.nodes:
        rule = graph.nodes[source]
        masses: ClassVector = {}
        for c in classes:
            res = graph.residual(source, c)
            if res:
                masses[c] = masses.get(c, 0.0) + res
        if not graph.suc(source) and rule.class_label is not None:
            masses[rule.class_label] = (
                masses.get(rule.class_label, 0.0) + lengths[source]
            )
        if not masses:
            continue
        reached = spread(source)
        for node, weight in reached.items():
            row = support[node]
            for c, m in masses.items():
                row[c] += m * weight
    return support
