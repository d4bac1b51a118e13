"""Stateful property test of the lifecycle over a small chess-like pool.

Ingest, steps, forget batches, promotion, demotion and beta changes run in
any order; promotions and demotions change the oracle's background.  After
every rule the graph must be acyclic with its reduction and parent sets
exact, the cached metrics must equal a fresh pass, permanence must equal
the ancestor-by-ancestor reference and support must be conserved.
"""

import os
from dataclasses import replace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from covkb.deduce import VerdictStore
from covkb.lifecycle import AVG_OPT_CLAMPED, FIXED, KnowledgeState, Policy, Threshold
from covkb.metrics import compute_permanence, compute_table, conservation_check
from covkb.parser import parse_program
from covkb.rules import BACKGROUND, CANDIDATE, EVIDENCE

from conftest import CHESS_DIR
from oracles import assert_structure_exact, reference_permanence


def _pool(name, origin):
    with open(os.path.join(CHESS_DIR, name), encoding="utf-8") as fh:
        return [r for r in parse_program(fh.read()) if r.origin == origin]


B0 = _pool("background.kbr", BACKGROUND)
# Every third clause keeps each piece's rules and both classes of evidence.
ARRIVALS = _pool("evidence.kbr", EVIDENCE)[::3] + _pool("candidates.kbr", CANDIDATE)[::3]
POLICY = Policy(
    beta=0.1, theta_d=Threshold(FIXED, 0.0), forget_fraction=0.5, consolidation_class="+"
)
BATCHES = st.lists(st.sampled_from(ARRIVALS), max_size=4)


class LifecycleMachine(RuleBasedStateMachine):
    verdicts = None  # each state gets a private VerdictStore

    def __init__(self):
        super().__init__()
        self.state = KnowledgeState(
            B0, ("+", "-"), capacity=8, policy=POLICY, verdicts=self.verdicts
        )

    @rule(batch=BATCHES)
    def ingest(self, batch):
        self.state.ingest(batch)

    @rule(batch=BATCHES)
    def step(self, batch):
        self.state.step(batch)

    @rule()
    def forget_step(self):
        self.state.forget_step()

    # Drawn thresholds reach background changes often: -inf promotes every
    # candidate of the consolidation class, inf demotes every promoted rule.
    @rule(theta=st.sampled_from([Threshold(AVG_OPT_CLAMPED), Threshold(FIXED, float("-inf"))]))
    def promote_pass(self, theta):
        self.state.policy = replace(self.state.policy, theta_p=theta)
        self.state.promote_pass()

    @rule(theta=st.sampled_from([Threshold(FIXED, 0.0), Threshold(FIXED, float("inf"))]))
    def demote_pass(self, theta):
        self.state.policy = replace(self.state.policy, theta_d=theta)
        self.state.demote_pass()

    @rule(beta=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    def set_beta(self, beta):
        self.state.policy = replace(self.state.policy, beta=beta)

    @invariant()
    def structure_is_exact(self):
        self.state.graph.topological_order()  # GraphError on a cycle
        assert_structure_exact(self.state.graph)

    @invariant()
    def metrics_match_a_fresh_pass(self):
        state = self.state
        table = state.ensure_metrics()
        assert table == compute_table(state.graph, state.policy.beta, state.classes)
        assert compute_permanence(state.graph, table, state.classes) == reference_permanence(
            state.graph, table.opt, state.classes)
        balance = conservation_check(state.graph, table.support, state.classes)
        assert max(balance.values()) <= 1e-9


class SharedVerdictsMachine(LifecycleMachine):
    verdicts = VerdictStore()  # one store for every state the test builds


MACHINE_SETTINGS = settings(max_examples=40, stateful_step_count=40, deadline=None)
TestLifecyclePrivateVerdicts = LifecycleMachine.TestCase
TestLifecyclePrivateVerdicts.settings = MACHINE_SETTINGS
TestLifecycleSharedVerdicts = SharedVerdictsMachine.TestCase
TestLifecycleSharedVerdicts.settings = MACHINE_SETTINGS
