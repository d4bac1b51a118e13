import copy
import itertools
import random
from collections import deque
from dataclasses import replace

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from covkb import covgraph
from covkb.covgraph import (
    CoverageGraph,
    GraphError,
    _cone_order,
    transitive_reduce,
)
from covkb.deduce import (
    Background,
    KEY_POSITIONS,
    CoverageOracle,
    DeriveLimits,
    covers,
)
from covkb.lifecycle import KnowledgeState
from covkb.metrics import compute_permanence, compute_table
from covkb.parser import parse_program
from covkb.rules import EVIDENCE, Atom, Compound, Rule, Var, canonical_form, rule_length
from oracles import (
    _EdgeListOracle,
    assert_structure_exact,
    closure,
    graph_from_structure,
    match_atom,
    node_rule,
    reference_full,
    reference_permanence,
)


def reduce_by_edge_removal(ids, edges):
    """Independent reduction oracle: drop an edge iff still reachable."""
    adj = {u: set(vs) for u, vs in edges.items()}
    for u in ids:
        adj.setdefault(u, set())

    def reachable(src, dst):
        seen, queue = set(), deque([src])
        while queue:
            x = queue.popleft()
            for y in adj.get(x, ()):
                if y == dst:
                    return True
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return False

    for u in list(adj):
        for v in sorted(adj[u]):
            adj[u].discard(v)
            if not reachable(u, v):
                adj[u].add(v)
    return {u: set(vs) for u, vs in adj.items()}


class TestTransitiveReduce:
    def test_triangle(self):
        out = transitive_reduce([1, 2, 3], {1: {2, 3}, 2: {3}})
        assert out == {1: {2}, 2: {3}, 3: set()}

    def test_idempotent(self):
        edges = {1: {2}, 2: {3}, 3: set()}
        assert transitive_reduce([1, 2, 3], edges) == edges

    def test_empty(self):
        assert transitive_reduce([], {}) == {}

    def test_cycle_detected(self):
        with pytest.raises(GraphError):
            transitive_reduce([1, 2], {1: {2}, 2: {1}})

    def test_matches_edge_removal_oracle_on_random_dags(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 12)
            ids = list(range(n))
            edges = {i: set() for i in ids}
            for i in ids:
                for j in ids:
                    if i < j and rng.random() < 0.35:
                        edges[i].add(j)
            got = transitive_reduce(ids, edges)
            want = reduce_by_edge_removal(ids, edges)
            assert got == want


class TestConeOrder:
    """`_cone_order`: every reachable node once, each before all it reaches."""

    @staticmethod
    def assert_order(starts, edges):
        order = _cone_order(starts, edges)
        reach = closure(list(starts), edges)
        assert sorted(order) == sorted(set(starts).union(*reach.values()))
        pos = {v: i for i, v in enumerate(order)}
        assert all(pos[u] < pos[w] for u in pos for w in edges.get(u, ()))

    def test_diamond_shared_descendant_is_no_cycle(self):
        # 4 is reached twice, once after its walk is done
        edges = {1: {2, 3}, 2: {4}, 3: {4}, 4: set()}
        for starts in itertools.permutations([1, 2, 3, 4]):
            self.assert_order(starts, edges)
        self.assert_order([1], edges)

    def test_child_reached_again_before_it_is_walked(self):
        # 1 queues 2, then reaches it through 3 first
        self.assert_order([1], {1: {2, 3}, 3: {2}})

    def test_random_dags(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 12)
            edges = {i: {j for j in range(i + 1, n) if rng.random() < 0.35} for i in range(n)}
            self.assert_order(rng.sample(range(n), rng.randint(1, n)), edges)

    @pytest.mark.parametrize(
        "starts, edges",
        [
            ([1], {1: {2}, 2: {3}, 3: {2}}),  # reachable cycle not through the start
            ([1], {1: {1}}),  # self-loop
            ([1, 4], {1: {2}, 2: {1}, 4: set()}),  # cycle met after another start is done
        ],
    )
    def test_cycle_raises(self, starts, edges):
        with pytest.raises(GraphError, match="cycle"):
            _cone_order(starts, edges)


class TestFamilyGraph:
    def test_full_relation_matches_pairwise_oracle(self, family):
        state, ids = family
        bg = state.background
        nodes = state.graph.nodes
        for a in nodes.values():
            for b in nodes.values():
                if a.id == b.id:
                    continue
                if a.origin == EVIDENCE:
                    expected = False  # evidence never covers
                else:
                    expected = covers(bg, a, b, state.oracle.limits)
                assert (b.id in state.graph.full[a.id]) == expected

    def test_reduction_matches_independent_oracle(self, family):
        state, _ = family
        want = reduce_by_edge_removal(sorted(state.graph.nodes), state.graph.full)
        assert {u: set(v) for u, v in state.graph.reduced.items()} == want

    def test_example_one_ancestors(self, family):
        state, ids = family
        assert state.graph.anc(ids[1]) == {ids[100], ids[110]}

    def test_roots_and_leaves(self, family):
        state, ids = family
        assert set(state.graph.roots()) == {ids[138], ids[35]}
        assert set(state.graph.leaves()) == {ids[k] for k in (1, 2, 3, 4, 5)}


class TestStructureBasics:
    def test_single_evidence_node(self):
        g = graph_from_structure({1: ("+", 5.0)}, [])
        assert g.leaves() == [1] and g.roots() == [1]

    def test_alpha_equivalent_pair_breaks_to_single_edge(self):
        bg = Background([])
        oracle = CoverageOracle(bg, DeriveLimits())
        (a,) = parse_program("p(X) :- q(X).")
        (b,) = parse_program("p(Y) :- q(Y).")
        b = Rule(**{**b.__dict__, "id": 2})
        g = CoverageGraph()
        for rule in (a, b):
            g.insert_rule(rule, oracle)
        # equal lengths, so the lower id wins the coverer role
        assert g.full[a.id] == {b.id}
        assert g.full[b.id] == set()

    def test_disjoint_cycles_repaired_in_one_pass(self):
        # A non-transitive 3-cycle 1 -> 2 -> 3 -> 1 ordered (length, id) as
        # 2 < 3 < 1, and an equal-length 2-cycle 4 <-> 5 where the lower id
        # wins; 3 -> 4, 1 -> 6, 5 -> 6 and 7 -> 1 lie on no cycle.
        g = graph_from_structure(
            {
                1: (None, 5.0), 2: (None, 3.0), 3: (None, 4.0),
                4: (None, 2.0), 5: (None, 2.0), 6: ("+", 8.0), 7: (None, 1.0),
            },
            [(1, 2), (2, 3), (3, 1), (4, 5), (5, 4), (3, 4), (1, 6), (5, 6), (7, 1)],
        )
        assert g.full == {
            1: {6}, 2: {3}, 3: {1, 4}, 4: {5}, 5: {6}, 6: set(), 7: {1},
        }

    def test_insert_rule_covering_all_roots(self, family):
        state, ids = family
        (top,) = parse_program("daughter(A,B) :- female(C).")
        top = Rule(**{**top.__dict__, "id": 999})
        state.graph.insert_rule(top, state.oracle)
        # covers 35-chain and (via 138) everything else: unique root now
        assert state.graph.roots() == [999]

    def test_insert_duplicate_id_rejected(self, family):
        state, ids = family
        with pytest.raises(GraphError):
            state.graph.insert_rule(state.graph.nodes[ids[110]], state.oracle)


class TestRemoveRule:
    def diamond(self):
        # t covers a and b; both cover leaf e of class + (length 8).
        # The full relation carries the transitive pair (t, e) as a real
        # coverage oracle would; reduction hides it until a removal
        # re-exposes it.
        return graph_from_structure(
            {1: (None, 2.0), 2: (None, 3.0), 3: (None, 4.0), 4: ("+", 8.0)},
            [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)],
        )

    def test_leaf_mass_split_equally(self):
        g = self.diamond()
        g.remove_rule(4)
        assert g.residual(2, "+") == pytest.approx(4.0)
        assert g.residual(3, "+") == pytest.approx(4.0)

    def test_leaf_with_residual_passes_everything(self):
        g = self.diamond()
        g.set_residual(4, "-", 1.0)
        g.remove_rule(4)
        assert g.residual(2, "+") == pytest.approx(4.0)
        assert g.residual(2, "-") == pytest.approx(0.5)

    def test_isolated_node_mass_lost(self):
        g = graph_from_structure({1: (None, 5.0)}, [])
        g.set_residual(1, "+", 3.0)
        g.remove_rule(1)
        assert len(g) == 0  # the 3.0 bits are gone with it

    def test_internal_node_redistributes_residual_only(self):
        g = self.diamond()
        g.set_residual(2, "+", 6.0)
        g.remove_rule(2)
        # node 2's residual moves to its only ancestor, 1; the leaf's own
        # mass keeps flowing (now via 3 alone), nothing is lost
        assert g.residual(1, "+") == pytest.approx(6.0)
        assert g.anc(4) == {3}
        assert g.residual(3, "+") == 0.0

    def test_internal_removal_re_exposes_sole_path(self):
        # chain 1 -> 2 -> 3 plus the transitive pair (1, 3): dropping 2
        # must surface the direct edge so the leaf mass still reaches 1
        g = graph_from_structure(
            {1: (None, 1.0), 2: (None, 2.0), 3: ("+", 8.0)},
            [(1, 2), (1, 3), (2, 3)],
        )
        assert g.anc(3) == {2}
        g.remove_rule(2)
        assert g.anc(3) == {1}

    def test_removal_preserves_reachability_of_survivors(self, family):
        state, ids = family
        g = state.graph
        full_before = {u: set(v) for u, v in g.full.items()}
        g.remove_rule(ids[73])
        reach = closure(sorted(g.nodes), g.reduced)
        for u, targets in full_before.items():
            if u == ids[73]:
                continue
            for v in targets:
                if v == ids[73]:
                    continue
                assert v in reach[u] or v in g.reduced[u]

    def test_unknown_id(self):
        g = self.diamond()
        with pytest.raises(GraphError):
            g.remove_rule(42)

    def test_residuals_never_negative(self):
        g = self.diamond()
        for bad in (-0.5, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(GraphError):
                g.set_residual(1, "+", bad)


class TestRandomGraphInvariants:
    def test_reduction_preserves_closure(self):
        rng = random.Random(5150)
        for _ in range(30):
            n = rng.randint(2, 20)
            specs = {}
            edges = []
            for i in range(n):
                specs[i] = (None, 1.0 + i * 0.25)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.3:
                        edges.append((i, j))
            sinks = {i for i in range(n) if not any(u == i for u, _ in edges)}
            for i in sinks:
                if rng.random() < 0.7:
                    specs[i] = ("+", specs[i][1])
            g = graph_from_structure(specs, edges)
            full_closure = closure(sorted(g.nodes), g.full)
            reduced_closure = closure(sorted(g.nodes), g.reduced)
            assert full_closure == reduced_closure
            order = g.topological_order()
            assert sorted(order) == sorted(g.nodes)
            pos = {v: i for i, v in enumerate(order)}
            assert all(pos[u] < pos[v] for u in g.reduced for v in g.reduced[u])


def test_insert_isolated_evidence(family):
    state, _ = family
    (ev,) = parse_program("#classes + -\n#evidence +\nsister(pat,joan).")
    ev = Rule(**{**ev.__dict__, "id": 500})
    state.graph.insert_rule(ev, state.oracle)
    assert state.graph.anc(500) == set()
    assert state.graph.suc(500) == set()


class TestClauseRecord:
    """A node's length and head forms come from the oracle's record of its
    canonical key and length override, made once and kept across removals."""

    @staticmethod
    def count_lengths(monkeypatch):
        made = []
        monkeypatch.setattr(covgraph, "rule_length", lambda r: made.append(r) or rule_length(r))
        return made

    def test_reinserted_clause_matches_a_fresh_computation(self, family, monkeypatch):
        state, _ = family
        g, oracle = state.graph, state.oracle
        rules = list(g.nodes.values())
        for rule in rules:
            g.remove_rule(rule.id)
        made = self.count_lengths(monkeypatch)
        for rule in rules:
            again = replace(rule, id=rule.id + 1000)
            g.insert_rule(again, oracle)
            assert g.lengths[again.id] == rule_length(again)
            assert g.forms[again.id] == oracle.head_forms(again)
        assert made == []  # every record was made when the family first entered

    def test_each_length_override_keeps_its_own_length(self, monkeypatch):
        oracle = CoverageOracle(Background([]), DeriveLimits())
        rules = parse_program("p(X) :- q(X).\n#length 3\np(Y) :- q(Y).\n#length 5\np(Z) :- q(Z).")
        assert len({canonical_form(r) for r in rules}) == 1
        assert [r.length_override for r in rules] == [None, 3.0, 5.0]
        made = self.count_lengths(monkeypatch)
        g = CoverageGraph()
        for cycle in range(3):  # arrive, be forgotten, arrive again under new ids
            for rule in rules[:: -1 if cycle % 2 else 1]:
                g.insert_rule(replace(rule, id=rule.id + 10 * cycle), oracle)
            assert {nid % 10: g.lengths[nid] for nid in g.nodes} == {
                r.id: rule_length(r) for r in rules}
            for nid in list(g.nodes):
                g.remove_rule(nid)
        assert made == rules  # one length per override


# Theta-equivalent clauses (the first three; the two `r` orderings) make
# insertion close mutual-coverage cycles; background facts let some
# candidates fire on the labelled evidence.  The later heads have other
# shapes (compound arguments, a constant against a variable, another
# predicate of one and of two arguments), so the head-key index skips
# pairs.  The background clause derives q, so generals with q in the body
# fire on evidence through the saturated store.
POOL = parse_program(
    "#classes + -\n#candidates\n"
    "p(X) :- q(X).\n"
    "p(X) :- q(X), q(Y).\n"
    "p(Y) :- q(Y).\n"
    "p(X) :- q(X), r(X).\n"
    "p(X) :- r(X), q(X).\n"
    "p(a) :- q(a).\n"
    "p(X) :- q(X), q(Y), r(Z).\n"
    "p(X) :- r(X).\n"
    "#evidence +\np(a).\np(b).\n"
    "#evidence -\np(c).\n"
    "#candidates\n"
    "p(f(X)) :- q(X).\n"
    "p(f(a)) :- q(a).\n"
    "p(g(X)) :- r(X).\n"
    "p(f(X)).\n"
    "u(X,Y) :- q(X), r(Y).\n"
    "u(a,Y) :- q(a), r(Y).\n"
    "t(X) :- q(X), s(X).\n"
    "#evidence +\np(f(a)).\nu(a,c).\nt(d).\n"
    "#evidence -\np(g(b)).\nu(b,b).\n"
)
POOL_BG = parse_program("q(a). q(b). r(a). r(c). s(d). q(X) :- s(X).")


def shapes_match(general, specific):
    """Reference for the head-key rule: the general's head, each argument
    cut to its top-level shape over fresh variables, matches the specific's
    head, whose variables are rigid.  Pool heads have at most
    KEY_POSITIONS arguments, so the key reads all of them."""
    fresh = (Var(f"_{i}") for i in itertools.count())
    top = Atom(general.pred, tuple(
        next(fresh) if isinstance(a, Var)
        else Compound(a.functor, tuple(next(fresh) for _ in a.args))
        for a in general.args
    ))
    return match_atom(top, specific, {}) is not None


OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "remove", "residual", "protect", "score", "beta"]),
        st.integers(0, 1000),
        st.floats(0.0, 10.0),
    ),
    min_size=10,
    max_size=40,
)


class TestLocalUpkeep:
    """Structure upkeep over arbitrary coverage relations.

    Verdicts cut off by derivation limits need not be transitive, so the
    relations here are random: most are not transitive, many are cyclic.
    """

    def test_random_relations_keep_structure_exact(self):
        rng = random.Random(8)
        for _ in range(80):
            n = rng.randint(3, 14)
            density = rng.choice([0.15, 0.3, 0.5])
            oracle = _EdgeListOracle(
                (u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < density
            )
            g = CoverageGraph()
            absent = list(range(n))
            for _ in range(3 * n):
                if absent and (not g.nodes or rng.random() < 0.6):
                    nid = absent.pop(rng.randrange(len(absent)))
                    label = rng.choice([None, None, None, "+"])
                    g.insert_rule(node_rule(nid, label, rng.choice([1, 2, 3.5])), oracle)
                else:
                    nid = rng.choice(sorted(g.nodes))
                    g.remove_rule(nid)
                    absent.append(nid)  # ids come back, so stale bits would show
                assert_structure_exact(g)

    def test_removal_adds_no_edge_the_relation_lacks(self):
        # 1 covers 2 and 2 covers 3, but 1 does not cover 3.
        g = graph_from_structure({1: (None, 1), 2: (None, 2), 3: ("+", 3)}, [(1, 2), (2, 3)])
        g.remove_rule(2)
        assert g.reduced == {1: set(), 3: set()}
        assert g.parents == {1: set(), 3: set()}
        assert g.desc == {1: 0, 3: 0}


# Without the explain phase.  On a copy with a broken rule, a failing run
# took about 5 minutes and up to 855 MB with it, since its line tracing
# also slows shrinking, and 25-120 s and at most 131 MB without it.
NO_EXPLAIN = [p for p in Phase if p != Phase.explain]


class TestMutationInvariants:
    @settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
    @given(OPS)
    # removing a root leaves its child with no parent and nothing else touched
    @example([("insert", 0, 0.0), ("insert", 0, 0.0), ("score", 0, 0.0), ("remove", 0, 0.0)])
    # a longer rule under a removed rule's id, with the same (empty) support
    @example([("insert", 0, 0.0), ("score", 0, 0.0), ("remove", 0, 0.0), ("insert", 1, 0.0)])
    # a second coverer of p(a) halves the share the first one receives
    @example([("insert", 8, 0.0), ("insert", 7, 0.0), ("score", 0, 0.0), ("insert", 0, 0.0)])
    def test_random_mutations_keep_derived_state_exact(self, ops):
        self.check(ops)

    def check(self, ops):
        # The drawn ops decide when to score, so mutations pile up between
        # metric passes and each pass rescores their joint cones.
        assert all(r.head.arity <= KEY_POSITIONS for r in POOL)
        state = KnowledgeState(POOL_BG, ("+", "-"))
        g, oracle = state.graph, state.oracle
        asked = []
        covers_pair = oracle.covers_pair

        def recorded(general, specific):
            asked.append((general.id, specific.id))
            return covers_pair(general, specific)

        oracle.covers_pair = recorded
        held = state.ensure_metrics()
        held_copy = copy.deepcopy(held)
        for kind, pick, value in ops + [("score", 0, 0.0)]:
            live = sorted(g.nodes)
            if kind == "insert":
                rule = POOL[pick % len(POOL)]
                # the lowest free id past B0's, so removed ids come back
                nid = min(set(range(1000, 1001 + len(live))) - set(live))
                rule = replace(rule, id=nid)
                before = list(g.nodes.values())
                asked.clear()
                g.insert_rule(rule, oracle)
                # exactly the pairs whose heads may match, in node order
                assert asked == [
                    (rule.id, o.id) for o in before
                    if rule.origin != EVIDENCE and shapes_match(rule.head, o.head)
                ] + [
                    (o.id, rule.id) for o in before
                    if o.origin != EVIDENCE and shapes_match(o.head, rule.head)
                ]
            elif kind == "beta":
                state.policy = replace(state.policy, beta=value / 10.0)
            elif kind == "score":
                table = state.ensure_metrics()
                assert table == compute_table(g, state.policy.beta, state.classes)
                assert held == held_copy  # a table handed out never changes
                held, held_copy = table, copy.deepcopy(table)
            elif not live:
                continue
            elif kind == "remove":
                g.remove_rule(live[pick % len(live)])
            elif kind == "residual":
                g.set_residual(live[pick % len(live)], ("+", "-")[pick % 2], value)
            else:
                rule = g.nodes[live[pick % len(live)]]
                touched = set(g.touched)
                g.replace_rule(rule.with_protection(not rule.protected))
                assert g.touched == touched

            ids = sorted(g.nodes)
            assert sorted(_cone_order(ids, g.full)) == ids  # GraphError on a cycle
            assert_structure_exact(g)
            assert g.lengths == {nid: rule_length(r) for nid, r in g.nodes.items()}
            # local cycle repair leaves the relation a global pass would
            assert reference_full(g.nodes.values(), oracle) == g.full
            # permanence of the current graph; a fresh table, so mutations
            # still pile up for the held one between "score" ops
            fresh = compute_table(g, state.policy.beta, state.classes)
            assert compute_permanence(g, fresh, state.classes) == reference_permanence(
                g, fresh.opt, state.classes)

    def test_replace_rule_only_flips_protection(self):
        g = graph_from_structure({1: (None, 2.0)}, [])
        with pytest.raises(GraphError):
            g.replace_rule(replace(g.nodes[1], class_label="+"))
