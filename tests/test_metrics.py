import copy
import random

import pytest

from covkb.metrics import (
    compute_permanence,
    compute_support,
    compute_table,
    conservation_check,
    optimality_row,
    permanence_value,
)

from oracles import SizeCapExceeded, brute_force_support, graph_from_structure


CLASSES = ("+", "-")


def diamond():
    # leaf e (L=8, class +) under a and b, both under t
    return graph_from_structure(
        {1: (None, 2.0), 2: (None, 3.0), 3: (None, 4.0), 4: ("+", 8.0)},
        [(1, 2), (1, 3), (2, 4), (3, 4)],
    )


class TestComputeSupport:
    def test_single_edge(self):
        g = graph_from_structure(
            {1: (None, 2.0), 2: ("+", 5.0)}, [(1, 2)]
        )
        s = compute_support(g, CLASSES)
        assert s[1] == {"+": 5.0, "-": 0.0}

    def test_diamond_hand_values(self):
        s = compute_support(diamond(), CLASSES)
        assert s[2]["+"] == pytest.approx(4.0)
        assert s[3]["+"] == pytest.approx(4.0)
        assert s[1]["+"] == pytest.approx(8.0)

    def test_family_support_table(self, family):
        state, ids = family
        s = compute_support(state.graph, CLASSES)
        expected_plus = {
            1: 17.844, 2: 17.844, 3: 0.0, 4: 0.0, 5: 17.844,
            100: 8.922, 20: 8.922, 35: 8.922, 73: 26.766,
            110: 35.688, 138: 44.61,
        }
        expected_minus = {
            1: 0.0, 2: 0.0, 3: 17.844, 4: 17.844, 5: 0.0,
            100: 26.766, 20: 0.0, 35: 8.922, 73: 0.0,
            110: 0.0, 138: 26.766,
        }
        for table_id, want in expected_plus.items():
            assert s[ids[table_id]]["+"] == pytest.approx(want, abs=1e-9)
        for table_id, want in expected_minus.items():
            assert s[ids[table_id]]["-"] == pytest.approx(want, abs=1e-9)
        # Documented deviation: the published table prints 8.922 for this
        # node, which is inconsistent with its own reduction footnote; the
        # oracle-derived graph yields the full example mass.
        assert s[ids[59]]["+"] == pytest.approx(17.844)

    def test_residual_counts_for_every_class_on_leaf(self):
        g = graph_from_structure({1: ("+", 5.0)}, [])
        g.set_residual(1, "-", 2.5)
        s = compute_support(g, CLASSES)
        assert s[1] == {"+": 5.0, "-": 2.5}

    def test_unlabeled_leaf_contributes_residual_only(self):
        g = graph_from_structure({1: (None, 9.0), 2: (None, 1.0)}, [(2, 1)])
        g.set_residual(1, "+", 4.0)
        s = compute_support(g, CLASSES)
        assert s[1]["+"] == pytest.approx(4.0)
        assert s[2]["+"] == pytest.approx(4.0)


class TestConservation:
    def test_family_balanced(self, family):
        state, _ = family
        s = compute_support(state.graph, CLASSES)
        balance = conservation_check(state.graph, s, CLASSES)
        total = sum(s[r][c] for r in state.graph.roots() for c in CLASSES)
        assert all(b <= 1e-9 * total for b in balance.values())

    def test_empty_graph(self):
        g = graph_from_structure({}, [])
        assert conservation_check(g, {}, CLASSES) == {"+": 0.0, "-": 0.0}

    def test_hundred_random_dags(self):
        rng = random.Random(20240608)
        for _ in range(100):
            g, classes = random_dag(rng, max_nodes=40, n_classes=3)
            s = compute_support(g, classes)
            balance = conservation_check(g, s, classes)
            total = sum(s[r][c] for r in g.roots() for c in classes) or 1.0
            assert all(b <= 1e-9 * total for b in balance.values())

    def test_residual_adjusted_balance(self):
        g = diamond()
        g.set_residual(2, "+", 6.0)  # interior residual
        s = compute_support(g, CLASSES)
        balance = conservation_check(g, s, CLASSES)
        assert balance["+"] <= 1e-9 * 14.0


def random_dag(rng, max_nodes=40, n_classes=3, p_edge=0.15):
    classes = tuple("c%d" % i for i in range(rng.randint(1, n_classes)))
    n = rng.randint(1, max_nodes)
    specs = {i: (None, round(rng.uniform(0.5, 30.0), 3)) for i in range(n)}
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p_edge
    ]
    with_out = {u for u, _ in edges}
    for i in range(n):
        if i not in with_out and rng.random() < 0.8:
            label, length = None, specs[i][1]
            specs[i] = (rng.choice(classes), length)
    return graph_from_structure(specs, edges), classes


class TestOptimality:
    def test_published_regressions(self):
        row, generic, best = optimality_row(9.962, {"+": 35.688, "-": 0.0}, 0.5, CLASSES)
        assert row["+"] == pytest.approx(12.863, abs=0.005)
        assert row["-"] == pytest.approx(-22.825, abs=0.005)
        assert generic == pytest.approx(12.863, abs=0.005) and best == "+"

        row, _, _ = optimality_row(12.462, {"+": 44.61, "-": 26.766}, 0.5, CLASSES)
        assert row["+"] == pytest.approx(2.69, abs=0.005)
        assert row["-"] == pytest.approx(-15.153, abs=0.005)

    def test_evidence_row_is_zero(self):
        row, generic, _ = optimality_row(17.844, {"+": 17.844, "-": 0.0}, 0.5, CLASSES)
        assert row["+"] == pytest.approx(0.0, abs=1e-12)
        assert generic == pytest.approx(0.0, abs=1e-12)

    def test_beta_bounds(self):
        with pytest.raises(ValueError):
            optimality_row(1.0, {"+": 1.0, "-": 0.0}, 1.5, CLASSES)

    def test_beta_extremes(self):
        sup = {"+": 30.0, "-": 12.0}
        row1, _, _ = optimality_row(10.0, sup, 1.0, CLASSES)
        assert row1["+"] == pytest.approx(20.0)  # pure compression score
        row0, _, _ = optimality_row(10.0, sup, 0.0, CLASSES)
        assert row0["+"] == pytest.approx(-12.0)
        assert row0["-"] == pytest.approx(-30.0)
        assert max(row0.values()) <= 0.0


class TestPermanence:
    def test_hand_value_for_chained_ground_rule(self):
        # Published optimality inputs: rule at -5.557 under a coverer at
        # 12.863 in the same class.
        assert permanence_value(-5.557, max([12.863, 6.825, 2.69])) == pytest.approx(-18.42)

    def test_generic_is_max_over_classes(self):
        plus = permanence_value(-5.557, 12.863)
        minus = permanence_value(-14.479, max([-22.825, -19.939]))
        assert max(plus, minus) == pytest.approx(-14.479)

    def test_root_permanence_equals_optimality(self):
        assert permanence_value(3.25, float("-inf")) == 3.25  # no coverer
        assert permanence_value(-1.5, -7.0) == -1.5  # negative coverers clamp to 0

    def test_family_table(self, family):
        state, ids = family
        t = compute_table(state.graph, 0.5, CLASSES)
        _, perm = compute_permanence(state.graph, t, CLASSES)
        assert perm[ids[110]] == pytest.approx(10.172, abs=1e-3)
        assert perm[ids[73]] == pytest.approx(-6.0346, abs=1e-3)
        assert perm[ids[35]] == pytest.approx(-4.642, abs=1e-3)
        # the chained ground rule is strictly the weakest node
        worst = min(perm, key=perm.get)
        assert worst == ids[59]

    def test_transitive_not_just_direct(self):
        # chain t -> m -> leaf; t is a transitive coverer of the leaf
        g = graph_from_structure(
            {1: (None, 1.0), 2: (None, 30.0), 3: ("+", 9.0)},
            [(1, 2), (2, 3)],
        )
        perm, _ = compute_permanence(g, compute_table(g, 1.0, ("+",)), ("+",))
        # opt(+): node1 = 9-1 = 8, node2 = 9-30 = -21, leaf = 0.
        # Only the transitive reading discounts the leaf by node1's 8.
        assert perm[3]["+"] == pytest.approx(-8.0)


class TestBruteForceOracle:
    def test_chain_carries_full_mass(self):
        g = graph_from_structure(
            {1: (None, 1.0), 2: (None, 1.0), 3: ("+", 7.0)}, [(1, 2), (2, 3)]
        )
        bf = brute_force_support(g, ("+",))
        assert all(bf[n]["+"] == pytest.approx(7.0) for n in (1, 2, 3))

    def test_diamond(self):
        bf = brute_force_support(diamond(), CLASSES)
        assert (bf[2]["+"], bf[3]["+"], bf[1]["+"]) == (4.0, 4.0, 8.0)

    def test_family_exact_match(self, family):
        state, _ = family
        bf = brute_force_support(state.graph, CLASSES)
        cs = compute_support(state.graph, CLASSES)
        for nid in bf:
            for c in CLASSES:
                assert bf[nid][c] == pytest.approx(cs[nid][c], abs=1e-9)

    def test_size_cap(self):
        specs = {i: (None, 1.0) for i in range(13)}
        g = graph_from_structure(specs, [])
        with pytest.raises(SizeCapExceeded):
            brute_force_support(g, ("+",))

    def test_agreement_with_residuals(self):
        g = diamond()
        g.set_residual(2, "-", 3.0)
        g.set_residual(4, "+", 1.0)
        bf = brute_force_support(g, CLASSES)
        cs = compute_support(g, CLASSES)
        for nid in bf:
            for c in CLASSES:
                assert bf[nid][c] == pytest.approx(cs[nid][c], abs=1e-12)


class TestScaleCovariance:
    def test_scaling_lengths_scales_everything(self, family):
        state, _ = family
        k = 3.5
        base = compute_table(state.graph, 0.5, CLASSES)
        base_perm, _ = compute_permanence(state.graph, base, CLASSES)
        graph = copy.copy(state.graph)
        graph.lengths = {nid: length * k for nid, length in graph.lengths.items()}
        scaled = compute_table(graph, 0.5, CLASSES)
        scaled_perm, _ = compute_permanence(graph, scaled, CLASSES)
        for nid in state.graph.nodes:
            for c in CLASSES:
                assert scaled.support[nid][c] == pytest.approx(k * base.support[nid][c])
                assert scaled.opt[nid][c] == pytest.approx(k * base.opt[nid][c])
                assert scaled_perm[nid][c] == pytest.approx(k * base_perm[nid][c])
            assert scaled.argmax_class[nid] == base.argmax_class[nid]
