"""Knowledge state and its lifecycle: ingest, forget, promote, demote.

The state partitions rules into the working space (graph nodes, volatile),
the consolidated set (promoted rules: protected graph nodes that also join
the deductive background) and the immutable seed background B0, which
backs deduction but never appears in the graph.

Capacity and the forgetting fraction are interpreted over the whole graph
population (consolidated nodes occupy working-space slots; only
unprotected nodes are removable), so a growing consolidated set makes
forgetting fire more often.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .covgraph import CoverageGraph
from .deduce import Background, CoverageConfig, CoverageOracle, VerdictStore
from .metrics import MetricsTable, compute_table
from .rules import BACKGROUND, CANDIDATE, EVIDENCE, Rule, canonical_form

AVG_OPT = "avg_opt"
AVG_OPT_CLAMPED = "avg_opt_clamped"
FIXED = "fixed"


@dataclass(frozen=True)
class Threshold:
    """How a promotion/demotion threshold is evaluated."""

    kind: str  # avg_opt | avg_opt_clamped | fixed
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in (AVG_OPT, AVG_OPT_CLAMPED, FIXED):
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        if self.kind == FIXED and math.isnan(self.value):
            raise ValueError("fixed threshold must be a number")


NO_DEMOTION = Threshold(FIXED, float("-inf"))


@dataclass(frozen=True)
class Policy:
    beta: float = 0.5
    theta_p: Threshold = field(default_factory=lambda: Threshold(AVG_OPT_CLAMPED))
    theta_d: Threshold = NO_DEMOTION
    forget_fraction: float = 0.25
    consolidation_class: Optional[str] = None

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if not 0.0 < self.forget_fraction <= 1.0:
            raise ValueError("forget_fraction must lie in (0, 1]")


@dataclass
class StepLog:
    """Per-step record; the CSV columns plus a few in-memory extras."""

    step: int
    arrivals_examples: int
    arrivals_rules: int
    population_w: int
    consolidated_count: int
    avg_opt_w: Optional[float]
    avg_opt_cons: Optional[float]
    n_forgotten: int
    forgotten_ids: Tuple[int, ...]
    promoted_ids: Tuple[int, ...]
    demoted_ids: Tuple[int, ...]
    root_support: Dict[str, float]
    warnings: Tuple[str, ...]
    inserted_ids: Tuple[int, ...] = ()


class KnowledgeState:
    """Owns the coverage graph, the background and the lifecycle policy."""

    def __init__(
        self,
        b0: Sequence[Rule],
        classes: Sequence[str],
        capacity: int = 0,
        policy: Optional[Policy] = None,
        coverage: Optional[CoverageConfig] = None,
        verdicts: Optional[VerdictStore] = None,
    ):
        if capacity < 0:
            raise ValueError("capacity must be >= 0 (0 means unbounded)")
        self.classes = tuple(classes)
        self.capacity = capacity
        self.policy = policy or Policy()
        self.coverage = coverage or CoverageConfig()
        self._next_id = 1
        seed = []
        self._canonical: Dict[str, int] = {}
        # Canonical form of each live node, computed once at ingest.
        self._keys: Dict[int, str] = {}
        for r in b0:
            rule = replace(
                r, id=self._fresh_id(), origin=BACKGROUND, protected=True,
                class_label=None,
            )
            seed.append(rule)
            self._canonical[canonical_form(rule)] = rule.id
        self.b0_ids = frozenset(r.id for r in seed)
        self.background = Background(seed)
        self.oracle = CoverageOracle(self.background, self.coverage, self._keys, verdicts)
        self.graph = CoverageGraph()
        self.metrics: Optional[MetricsTable] = None
        self._metrics_key: Optional[Tuple[int, float]] = None
        self.step_count = 0
        self._warnings: List[str] = []

    # -- plumbing ------------------------------------------------------------

    def _fresh_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def warn(self, message: str) -> None:
        self._warnings.append(message)

    def drain_warnings(self) -> Tuple[str, ...]:
        out = tuple(self._warnings) + tuple(self.oracle.warnings)
        self._warnings = []
        self.oracle.warnings = []
        return out

    def ensure_metrics(self) -> MetricsTable:
        """The metrics of the current graph and policy.

        The cached table is reused while `graph.revision` and the policy's
        beta equal those it was computed at.
        """
        key = (self.graph.revision, self.policy.beta)
        if self._metrics_key != key:
            self.metrics = compute_table(self.graph, self.policy.beta, self.classes)
            self._metrics_key = key
        return self.metrics

    def population(self) -> int:
        return len(self.graph)

    def over_capacity(self) -> bool:
        return self.capacity > 0 and len(self.graph) > self.capacity

    def consolidated_ids(self) -> List[int]:
        return sorted(
            nid for nid, r in self.graph.nodes.items()
            if r.protected and r.origin == CANDIDATE
        )

    # -- ingestion -----------------------------------------------------------

    def ingest(self, rules: Sequence[Rule]) -> List[int]:
        """Insert arrivals, dropping canonical duplicates of anything known."""
        inserted: List[int] = []
        for r in rules:
            if r.origin == BACKGROUND:
                raise ValueError("background rules cannot arrive at runtime")
            key = canonical_form(r)
            if key in self._canonical:
                continue
            rule = replace(r, id=self._fresh_id(), protected=False)
            self._keys[rule.id] = key
            self.graph.insert_rule(rule, self.oracle)
            self._canonical[key] = rule.id
            inserted.append(rule.id)
        return inserted

    # -- forgetting ----------------------------------------------------------

    def _forget_order(self, table: MetricsTable) -> List[int]:
        candidates = [
            nid for nid, r in self.graph.nodes.items() if not r.protected
        ]
        return sorted(
            candidates,
            key=lambda nid: (
                table.perm_generic[nid],
                -self.graph.node_length(nid),
                -nid,
            ),
        )

    def forget_step(self) -> List[int]:
        """Remove the lowest-permanence unprotected nodes, batch by batch.

        Batch size is ceil(fraction * population), clipped to the removable
        candidates; batches repeat until the population fits the capacity.
        Metrics are refreshed between batches, not between removals.
        """
        removed: List[int] = []
        while True:
            table = self.ensure_metrics()
            order = self._forget_order(table)
            n = min(
                math.ceil(self.policy.forget_fraction * len(self.graph)), len(order)
            )
            if n <= 0:
                if self.over_capacity():
                    self.warn(
                        "OverCapacityStuck: all survivors protected, "
                        f"population {len(self.graph)} > capacity {self.capacity}"
                    )
                break
            for nid in order[:n]:
                self.graph.remove_rule(nid)
                self._canonical.pop(self._keys.pop(nid, None), None)
                removed.append(nid)
            if not self.over_capacity():
                break
        self.ensure_metrics()
        return removed

    # -- promotion / demotion -------------------------------------------------

    def _threshold(self, spec: Threshold, table: MetricsTable) -> float:
        if spec.kind == FIXED:
            return spec.value
        if not self.graph.nodes:
            return 0.0
        avg = sum(table.opt_generic[n] for n in self.graph.nodes) / len(self.graph)
        if spec.kind == AVG_OPT_CLAMPED:
            return max(0.0, avg)
        return avg

    def promote_pass(self) -> List[int]:
        table = self.ensure_metrics()
        theta = self._threshold(self.policy.theta_p, table)
        wanted_class = self.policy.consolidation_class
        promoted: List[Rule] = []
        for nid in sorted(self.graph.nodes):
            rule = self.graph.nodes[nid]
            if rule.protected or rule.origin != CANDIDATE:
                continue  # evidence is never promotable
            if table.opt_generic[nid] <= theta:
                continue
            if wanted_class is not None and table.argmax_class[nid] != wanted_class:
                continue
            promoted.append(rule.with_protection(True))
        for rule in promoted:
            self.graph.replace_rule(rule)
        if promoted:
            self.background = self.background.extended(promoted)
            self.oracle.set_background(self.background)
        return [r.id for r in promoted]

    def demote_pass(self) -> List[int]:
        table = self.ensure_metrics()
        theta = self._threshold(self.policy.theta_d, table)
        demoted: List[int] = []
        for nid in sorted(self.graph.nodes):
            rule = self.graph.nodes[nid]
            if not rule.protected or rule.origin != CANDIDATE:
                continue  # B0 is not a node and can never be demoted
            if table.opt_generic[nid] < theta:
                self.graph.replace_rule(rule.with_protection(False))
                demoted.append(nid)
        if demoted:
            self.background = self.background.without_ids(demoted)
            self.oracle.set_background(self.background)
        return demoted

    # -- the step ------------------------------------------------------------

    def step(self, arrivals: Sequence[Rule]) -> StepLog:
        """One tick: ingest, forget when over capacity, demote, promote, log."""
        self.step_count += 1
        arrivals = list(arrivals)
        n_examples = sum(1 for r in arrivals if r.origin == EVIDENCE)
        inserted = self.ingest(arrivals)
        forgotten: List[int] = []
        if self.over_capacity():
            forgotten = self.forget_step()
        demoted = self.demote_pass()
        promoted = self.promote_pass()
        table = self.ensure_metrics()

        cons = self.consolidated_ids()
        all_ids = sorted(self.graph.nodes)
        avg_w = (
            sum(table.opt_generic[n] for n in all_ids) / len(all_ids)
            if all_ids
            else None
        )
        avg_cons = (
            sum(table.opt_generic[n] for n in cons) / len(cons) if cons else None
        )
        roots = self.graph.roots()
        root_support = {
            c: sum(table.support[r][c] for r in roots) for c in self.classes
        }
        return StepLog(
            step=self.step_count,
            arrivals_examples=n_examples,
            arrivals_rules=len(arrivals) - n_examples,
            population_w=len(self.graph),
            consolidated_count=len(cons),
            avg_opt_w=avg_w,
            avg_opt_cons=avg_cons,
            n_forgotten=len(forgotten),
            forgotten_ids=tuple(forgotten),
            promoted_ids=tuple(promoted),
            demoted_ids=tuple(demoted),
            root_support=root_support,
            warnings=self.drain_warnings(),
            inserted_ids=tuple(inserted),
        )
