"""Coverage DAG over working rules and evidence.

The graph stores two edge sets over the same nodes: the full pairwise
coverage relation, with each mutual-coverage cycle cut down to the forward
edges of a (length, id) order, and its transitive reduction, which is
unique for DAGs and is what the support metrics propagate over.
Evidence nodes never cover anything, so they are always sinks.

Each node also keeps a bitmask of its strict descendants (bit = node id).
A mutation changes the descendants of its node's ancestors only, so it
updates masks and reduction over that ancestor cone alone, by delta where
it can: an insert that closes no cycle adds the new node's descendants to
each cone node, and a sink's removal clears one bit per ancestor.  Cycle
repair and an internal node's removal re-derive the cone (`_refresh`)
from each node's own `full` edges.  Each path is exact for any relation,
transitive or not.

Each node carries a per-class residual: support inherited from forgotten
descendants, kept as intrinsic node mass.

An insert asks the oracle only about pairs whose heads can match.  The
oracle gives each rule its head forms: its own key first, then every key a
general must have to cover it.  The graph indexes every node under each of
its forms and every non-evidence node under its own key, so a node's
candidate coverees and coverers are dict lookups; other pairs are never
asked.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Mapping, Set, Tuple

from .deduce import CoverageOracle
from .rules import EVIDENCE, Rule, rule_length


class GraphError(Exception):
    pass


def transitive_reduce(
    node_ids: Iterable[int], edges: Mapping[int, Set[int]]
) -> Dict[int, Set[int]]:
    """Unique minimal edge set with the same reachability as `edges`.

    The relation must be acyclic (GraphError otherwise).  An edge u->v is
    dropped exactly when v is a strict descendant of another child of u.
    No mutation calls it: it is the global reference that the graph's local
    upkeep must equal.
    """
    ids = sorted(node_ids)
    index = {v: i for i, v in enumerate(ids)}
    order = _cone_order(ids, edges)

    # Strict-descendant bitmasks, built leaves-first.
    desc = {v: 0 for v in ids}
    for v in reversed(order):
        mask = 0
        for child in edges.get(v, ()):
            mask |= (1 << index[child]) | desc[child]
        desc[v] = mask

    reduced: Dict[int, Set[int]] = {v: set() for v in ids}
    for u in ids:
        children = edges.get(u, ())
        redundant = 0
        for c in children:
            redundant |= desc[c]
        reduced[u] = {c for c in children if not (1 << index[c]) & redundant}
    return reduced


def _cone_order(starts: Iterable[int], edges: Mapping[int, Iterable[int]]) -> List[int]:
    """`starts` and all they reach over `edges`, each node before every node
    it reaches: the reverse postorder of one depth-first search.

    A node stays `active` while its descendants are walked, so an edge back
    into it closes a cycle: GraphError.  A node missing from `edges` has no
    children.
    """
    active: Set[int] = set()
    done: Set[int] = set()
    post: List[int] = []
    for start in starts:
        if start in done:
            continue
        active.add(start)
        stack = [(start, iter(edges.get(start, ())))]  # a frame: node, its unread children
        while stack:
            v, children = stack[-1]
            for w in children:
                if w not in done:
                    if w in active:
                        raise GraphError("cycle detected in coverage relation")
                    active.add(w)
                    stack.append((w, iter(edges.get(w, ()))))
                    break
            else:
                stack.pop()
                active.discard(v)
                done.add(v)
                post.append(v)
    post.reverse()
    return post


class CoverageGraph:
    """Mutable coverage DAG owned by a single knowledge-base instance.

    `lengths` holds each node's description length (`rule_length`, so
    `length_override` wins) and `forms` its head forms
    (`CoverageOracle.head_forms`).  Both come from the oracle's clause record
    (`CoverageOracle.record`), so they are computed once per canonical key
    and length override, not once per node: a clause that is forgotten and
    arrives again under a new id reuses them.  `desc` holds
    each node's strict descendants over `full` as a bitmask.  `touched`
    holds, until the metrics owner takes it, each node whose support inputs
    (reduced children, their parent counts, residuals) changed, and each
    removed node.  `insert_rule`, `remove_rule` and `set_residual` add to
    it, `replace_rule` does not, since protection flags enter no metric.
    Callers rescore from it, so every mutation must go through these methods.
    """

    def __init__(self):
        self.nodes: Dict[int, Rule] = {}
        self.lengths: Dict[int, float] = {}
        self.full: Dict[int, Set[int]] = {}
        self.reduced: Dict[int, Set[int]] = {}
        self.parents: Dict[int, Set[int]] = {}
        self.desc: Dict[int, int] = {}
        self.residuals: Dict[int, Dict[str, float]] = {}
        self.touched: Set[int] = set()
        self.forms: Dict[int, Tuple[Hashable, ...]] = {}
        # key -> {node id: insertion number}: non-evidence nodes under their
        # own key, every node under each of its forms.
        self._by_head: Dict[Hashable, Dict[int, int]] = {}
        self._by_form: Dict[Hashable, Dict[int, int]] = {}
        self._inserted = 0

    # -- accessors ----------------------------------------------------------

    def __contains__(self, nid: int) -> bool:
        return nid in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def suc(self, nid: int) -> Set[int]:
        return self.reduced[nid]

    def anc(self, nid: int) -> Set[int]:
        return self.parents[nid]

    def leaves(self) -> List[int]:
        return sorted(v for v in self.nodes if not self.reduced[v])

    def roots(self) -> List[int]:
        return sorted(v for v in self.nodes if not self.parents[v])

    def residual(self, nid: int, label: str) -> float:
        return self.residuals[nid].get(label, 0.0)

    def set_residual(self, nid: int, label: str, value: float) -> None:
        if not (math.isfinite(value) and value >= 0):
            raise GraphError("residuals must be finite and non-negative")
        self.residuals[nid][label] = value
        self.touched.add(nid)

    def node_length(self, nid: int) -> float:
        return self.lengths[nid]

    def topological_order(self) -> List[int]:
        """Roots first; reverse it for a leaves-first sweep."""
        return _cone_order(self.nodes, self.reduced)

    # -- mutation -----------------------------------------------------------

    def insert_rule(self, rule: Rule, oracle: CoverageOracle) -> None:
        if rule.id in self.nodes:
            raise GraphError(f"node id {rule.id} already present")
        length, forms = oracle.record(rule, lambda: (rule_length(rule), oracle.head_forms(rule)))
        nodes = self.nodes
        pairs_out: Set[int] = set()
        if rule.origin != EVIDENCE:
            for other in self._by_form.get(forms[0], ()):
                if oracle.covers_pair(rule, nodes[other]):
                    pairs_out.add(other)
        coverers: Dict[int, int] = {}
        for key in forms:
            coverers.update(self._by_head.get(key, ()))
        pairs_in = {
            other for other in sorted(coverers, key=coverers.__getitem__)  # node order
            if oracle.covers_pair(nodes[other], rule)
        }
        self._add_node(rule, pairs_out, length, forms)
        for other_id in pairs_in:
            self.full[other_id].add(rule.id)
        # The graph was acyclic, so the only cycle an insert can close runs
        # through the new node, among its ancestors: repair drops edges only
        # inside this cone, taken before it.
        cone = set(_cone_order(pairs_in | {rule.id}, self.parents))
        if self._repair_cycle(rule.id, cone):
            self._refresh(cone)
        else:
            self._add_below(rule.id, cone)

    def replace_rule(self, rule: Rule) -> None:
        """Swap the stored rule object (protection flips); structure unchanged."""
        old = self.nodes.get(rule.id)
        if old is None:
            raise GraphError(f"unknown node id {rule.id}")
        if rule.with_protection(old.protected) != old:
            raise GraphError(f"replace_rule may only flip protection of node {rule.id}")
        self.nodes[rule.id] = rule

    def remove_rule(self, nid: int) -> None:
        """Drop a node, redistributing its support mass to its coverers.

        A sink's full contribution (its length, if class-labeled, plus all
        residuals) is split equally over anc(nid); an internal node passes
        on only its residuals.  With no ancestors the mass is lost.  A sink
        leaves its ancestors one bit fewer; an internal node's removal
        re-derives their masks and reductions (`_refresh`).

        Edges cut by cycle repair stay cut: rule-rule verdicts are transitive
        (theta-subsumption), so a repaired cycle is a set of equivalent rules
        whose forward edges relate every remaining pair.  A non-transitive
        verdict (one a budget cut off) would lose an edge here.
        """
        if nid not in self.nodes:
            raise GraphError(f"unknown node id {nid}")
        rule = self.nodes[nid]
        ancestors = sorted(self.parents[nid])
        amounts: Dict[str, float] = {}
        for label, value in self.residuals[nid].items():
            if value:
                amounts[label] = amounts.get(label, 0.0) + value
        if not self.reduced[nid] and rule.class_label is not None:
            amounts[rule.class_label] = amounts.get(rule.class_label, 0.0) + self.lengths[nid]
        if ancestors:
            share = 1.0 / len(ancestors)
            for parent in ancestors:
                bucket = self.residuals[parent]
                for label, value in amounts.items():
                    bucket[label] = bucket.get(label, 0.0) + value * share
        cone = set(_cone_order(self.parents[nid], self.parents))  # all that reached nid
        sink = not self.full[nid]
        for u in cone:
            self.full[u].discard(nid)
            if sink:
                self.desc[u] ^= 1 << nid  # every strict ancestor has the bit
        self.touched |= self.parents[nid] | self.reduced[nid] | {nid}
        for p in self.parents.pop(nid):
            self.reduced[p].discard(nid)
        for c in self.reduced.pop(nid):
            self.parents[c].discard(nid)
        forms = self.forms[nid]
        heads = forms[:1] if rule.origin != EVIDENCE else ()
        for index, keys in ((self._by_head, heads), (self._by_form, forms)):
            for key in keys:
                bucket = index[key]
                del bucket[nid]
                if not bucket:
                    del index[key]
        for table in (self.nodes, self.lengths, self.forms, self.residuals, self.full, self.desc):
            del table[nid]
        if not sink:
            self._refresh(cone)

    # -- internals -----------------------------------------------------------

    def _add_node(
        self, rule: Rule, covered: Set[int], length: float, forms: Tuple[Hashable, ...]
    ) -> None:
        self.nodes[rule.id] = rule
        self.lengths[rule.id] = length
        self.forms[rule.id] = forms
        seq, self._inserted = self._inserted, self._inserted + 1
        if rule.origin != EVIDENCE:
            self._by_head.setdefault(forms[0], {})[rule.id] = seq
        for key in forms:
            self._by_form.setdefault(key, {})[rule.id] = seq
        self.full[rule.id] = covered
        self.reduced[rule.id] = set()
        self.parents[rule.id] = set()
        self.residuals[rule.id] = {}
        self.touched.add(rule.id)

    def _refresh(self, cone: Set[int]) -> None:
        """Recompute `desc`, `reduced` and `parents` over `cone`, leaves first.

        `cone` must hold every node whose `full` edges changed, with all
        its ancestors; no other node's descendants can have changed.  A
        child c of u is kept in the reduction exactly when no other child
        of u reaches it.  A `reduced` set is replaced only when it changes, so
        an untouched node keeps the set order its support was summed in.
        GraphError if the cone has a cycle.  Only cycle repair and internal
        removals call it; other mutations update by delta.
        """
        order = _cone_order(cone, {u: self.full[u] & cone for u in cone})
        for u in reversed(order):
            self._derive(u)

    def _derive(self, u: int) -> None:
        """`u`'s mask and reduction from its `full` children's masks."""
        desc, children = self.desc, self.full[u]
        redundant = 0
        for c in children:
            redundant |= desc[c]
        kept = {c for c in children if not (1 << c) & redundant}
        mask = redundant  # a dropped child's bit is already in it
        for c in kept:
            mask |= 1 << c
        desc[u] = mask
        self._set_reduced(u, kept)

    def _set_reduced(self, u: int, kept: Set[int]) -> None:
        """Make `kept` u's reduction, unless it holds the same children."""
        old = self.reduced[u]
        if kept == old:
            return
        for c in old - kept:
            self.parents[c].discard(u)
        for c in kept - old:
            self.parents[c].add(u)
        self.touched.update(old ^ kept, (u,))
        self.reduced[u] = kept

    def _add_below(self, v: int, cone: Set[int]) -> None:
        """Masks and reductions after an insert of `v` that closed no cycle.

        Each other node of the ancestor `cone` gains the descendants `new`
        and drops the children inside it from its reduction; v joins that
        of each coverer with no other child in the cone.  A changed set is
        rebuilt in `full[u]`'s order, as `_derive` builds it, so support
        sums keep their operand order."""
        full, desc, reduced = self.full, self.desc, self.reduced
        self._derive(v)
        new = desc[v] | 1 << v
        for u in cone - {v}:
            mask = desc[u]
            desc[u] = mask | new
            old = reduced[u]
            dropped = {c for c in old if (1 << c) & new} if mask & new else ()
            joins = v in full[u] and old.isdisjoint(cone)
            if dropped or joins:
                self._set_reduced(u, {
                    c for c in full[u] if c in old and c not in dropped or c == v and joins})

    def _repair_cycle(self, v: int, cone: Set[int]) -> bool:
        """Break the mutual-coverage cycles through the new node `v`.

        Mutual coverage means logical equivalence.  The cycles through v
        form its strongly connected component: v plus each node that reaches
        one of v's coverers (the insert's ancestor `cone`) and is reached
        from one of its coverees (`desc`, still the masks from before v
        arrived).  Within it, nodes are ordered by (length, id) and only
        forward edges of that order survive, so the shortest rule plays the
        generalisation role.  Returns whether v closed a cycle.
        """
        below = 0
        for c in self.full[v]:
            below |= (1 << c) | self.desc[c]
        cycle = [u for u in cone if (1 << u) & below]
        if not cycle:
            return False
        cycle.append(v)
        rank = {
            nid: pos
            for pos, nid in enumerate(sorted(cycle, key=lambda n: (self.lengths[n], n)))
        }
        for nid in cycle:
            self.full[nid] = {
                w for w in self.full[nid] if w not in rank or rank[nid] < rank[w]
            }
        return True
