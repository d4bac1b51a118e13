"""Test-only reference oracles, independent of the library's fast paths."""

from typing import Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple

from covkb.covgraph import CoverageGraph
from covkb.deduce import Background, DeriveLimits, forward_closure, match_atom
from covkb.rules import CANDIDATE, EVIDENCE, Atom, Compound, Rule, rule_length

ClassVector = Dict[str, float]


class _EdgeListOracle:
    """Coverage oracle that answers from a fixed (general, specific) list."""

    def __init__(self, edges: Iterable[Tuple[int, int]]):
        self.edges = set(edges)

    def covers_pair(self, general: Rule, specific: Rule) -> bool:
        return (general.id, specific.id) in self.edges

    def head_forms(self, rule: Rule) -> Tuple[None]:
        return (None,)  # one key for every rule: every pair is asked


def graph_from_structure(
    specs: Mapping[int, Tuple[Optional[str], float]],
    edges: Iterable[Tuple[int, int]],
) -> CoverageGraph:
    """Graph over `node(<id>)` rules from (class-label, length) specs.

    The nodes are inserted in spec order through `insert_rule`, against an
    oracle that answers from `edges`, so cycle repair and reduction run as
    they do at runtime.  Labelled nodes are evidence, which covers nothing,
    so an edge out of one is refused rather than silently dropped.
    """
    edges = list(edges)
    for u, v in edges:
        if u not in specs or v not in specs or u == v:
            raise ValueError(f"edge ({u},{v}) is a self edge or names an unknown node")
        if specs[u][0] is not None:
            raise ValueError(f"edge ({u},{v}) leaves labelled node {u}")
    oracle = _EdgeListOracle(edges)
    g = CoverageGraph()
    for nid, (label, length) in specs.items():
        g.insert_rule(node_rule(nid, label, length), oracle)
    return g


def node_rule(nid: int, label: Optional[str], length: float) -> Rule:
    """The fact `node(<nid>)`: evidence of class `label`, or a candidate."""
    return Rule(
        id=nid,
        head=Atom("node", (Compound(str(nid)),)),
        class_label=label,
        length_override=float(length),
        origin=EVIDENCE if label is not None else CANDIDATE,
    )


def reference_full(rules: Iterable[Rule], oracle) -> Dict[int, Set[int]]:
    """The full relation a global pass gives over `rules`.

    The pairwise relation, less each edge u->w that lies on a cycle (w
    reaches u) unless u comes before w in (length, id) order.
    """
    rules = list(rules)
    pairwise: Dict[int, Set[int]] = {
        g.id: {
            s.id for s in rules
            if s.id != g.id and g.origin != EVIDENCE and oracle.covers_pair(g, s)
        }
        for g in rules
    }

    def reaches(src: int, dst: int) -> bool:
        seen, stack = {src}, [src]
        while stack:
            for w in pairwise[stack.pop()]:
                if w == dst:
                    return True
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    rank = {r.id: (rule_length(r), r.id) for r in rules}
    return {
        u: {w for w in targets if rank[u] < rank[w] or not reaches(w, u)}
        for u, targets in pairwise.items()
    }


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


def derives_goal(
    bg: Background,
    extra: Sequence[Rule],
    goal: Atom,
    limits: DeriveLimits = DeriveLimits(),
) -> bool:
    """True iff ground `goal` follows from bg plus `extra` within limits:
    a full saturation, then a lookup for a fact that `goal` is an instance of."""
    store = forward_closure(bg.extended(extra), limits=limits)
    return any(match_atom(f, goal, {}) is not None for f in store.candidates(goal))
