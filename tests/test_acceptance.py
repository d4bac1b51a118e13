"""Acceptance suite: one test per shipped guarantee, one report line each.

The heavy scenario criteria (chess convergence, incremental reuse, the
capacity sweep) run real simulations and take a couple of minutes
altogether; everything else is sub-second.
"""

import os
import random
import time

import pytest

from covkb.covgraph import CoverageGraph
from covkb.deduce import (
    DeriveLimits,
    forward_closure,
    general_fires,
    skolemize,
    theta_subsumes,
)
from covkb.harness import load_grid, load_scenario, run_grid, run_scenario, write_heatmap_csv
from covkb.metrics import (
    compute_support,
    conservation_check,
    optimality_row,
)
from covkb.parser import parse_file, parse_program
from covkb.rules import rule_length

from conftest import CHESS_DIR, FAMILY_SCN, family_state, table_id_map
from oracles import brute_force_support

CLASSES = ("+", "-")


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion:>2}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# -- 1: optimality formula regression ---------------------------------------

# The published family table: id -> (L, support+, support-, opt+, opt-).
# For the chained ground rule the optimality columns only follow from the
# length printed in the length table (20.036), not the 18.791 its own row
# shows; the former is used here.
PRINTED_TABLE = {
    1: (17.844, 17.844, 0.0, 0.0, -17.844),
    2: (17.844, 17.844, 0.0, 0.0, -17.844),
    3: (17.844, 0.0, 17.844, -17.844, 0.0),
    4: (17.844, 0.0, 17.844, -17.844, 0.0),
    5: (17.844, 17.844, 0.0, 0.0, -17.844),
    100: (11.977, 8.922, 26.766, -14.91, 2.933),
    59: (20.036, 8.922, 0.0, -5.557, -14.479),
    20: (11.591, 8.922, 0.0, -1.334, -10.256),
    35: (9.284, 8.922, 8.922, -4.642, -4.642),
    73: (13.114, 26.766, 0.0, 6.825, -19.939),
    110: (9.962, 35.688, 0.0, 12.863, -22.825),
    138: (12.462, 44.61, 26.766, 2.69, -15.153),
}


def test_01_optimality_formula_regression():
    start = time.monotonic()
    worst = 0.0
    for rid, (length, sp, sm, want_p, want_m) in PRINTED_TABLE.items():
        row, _, _ = optimality_row(length, {"+": sp, "-": sm}, 0.5, CLASSES)
        worst = max(worst, abs(row["+"] - want_p), abs(row["-"] - want_m))
        assert row["+"] == pytest.approx(want_p, abs=0.005), rid
        assert row["-"] == pytest.approx(want_m, abs=0.005), rid
        if rid in (1, 2, 3, 4, 5):  # evidence rows score zero in their class
            assert max(row.values()) == pytest.approx(0.0, abs=1e-9)
    elapsed = time.monotonic() - start
    report(1, worst <= 0.005 and elapsed < 1.0, f"worst |err| {worst:.4f}, {elapsed:.2f}s")


# -- 2: length formula regression --------------------------------------------


def test_02_length_formula_regression():
    def length_of(text):
        return rule_length(parse_program(text)[0])

    matching = {
        "daughter(X,Y) :- female(X), parent(Y,X).": 9.962,
        "daughter(V,W) :- female(X), parent(Y,Z).": 12.462,
        "daughter(X,tom) :- female(X), parent(tom,X).": 13.114,
    }
    for text, want in matching.items():
        assert length_of(text) == pytest.approx(want, abs=0.01), text

    # Documented mismatches: the printed numbers match no reading of the
    # length formula; assert they stay mismatched so silent drift of the
    # formula cannot fake agreement.
    mismatching = [
        ("daughter(mary,ann).", 17.844),
        ("daughter(X,Y) :- female(Y), parent(Y,mary).", 11.977),
        ("daughter(eve,Y) :- female(eve).", 9.284),
        ("daughter(eve,tom) :- female(eve).", 11.591),
        ("daughter(eve,tom) :- female(eve), parent(tom,eve).", 20.036),
        ("daughter(eve,tom) :- female(eve), parent(tom,eve).", 18.791),
    ]
    for text, printed in mismatching:
        assert abs(length_of(text) - printed) > 0.01, text
    report(2, True, "3 matching rows, 6 guarded mismatches")


# -- 3: conservation property --------------------------------------------------


def random_graph(rng, max_nodes=40, max_classes=3):
    classes = tuple(f"c{i}" for i in range(rng.randint(1, max_classes)))
    n = rng.randint(1, max_nodes)
    specs = {i: (None, round(rng.uniform(0.5, 25.0), 3)) for i in range(n)}
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.15
    ]
    have_out = {u for u, _ in edges}
    for i in range(n):
        if i not in have_out and rng.random() < 0.85:
            specs[i] = (rng.choice(classes), specs[i][1])
    return CoverageGraph.from_structure(specs, edges), classes


def test_03_conservation_on_random_dags():
    start = time.monotonic()
    rng = random.Random(987654321)
    checked = 0
    for _ in range(100):
        g, classes = random_graph(rng)
        support = compute_support(g, classes)
        balance = conservation_check(g, support, classes)
        total = sum(support[r][c] for r in g.roots() for c in classes) or 1.0
        assert all(b <= 1e-9 * total for b in balance.values())
        checked += 1
    elapsed = time.monotonic() - start
    report(3, checked == 100 and elapsed < 5.0, f"100 graphs, {elapsed:.2f}s")


# -- 4: oracle equivalence ------------------------------------------------------


def enumerate_shapes():
    """Fixed enumeration: every edge subset up to 4 nodes (exhaustive over
    shapes, since any DAG relabels into topological order), plus a
    structured and seeded catalogue for 5..8 nodes."""
    shapes = []
    for n in range(1, 5):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(2 ** len(pairs)):
            edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
            shapes.append((n, edges))
    for n in range(5, 9):
        chain = [(i, i + 1) for i in range(n - 1)]
        star = [(0, i) for i in range(1, n)]
        tree = [(i, 2 * i + 1) for i in range(n) if 2 * i + 1 < n] + [
            (i, 2 * i + 2) for i in range(n) if 2 * i + 2 < n
        ]
        half = n // 2
        bipartite = [(i, j) for i in range(half) for j in range(half, n)]
        shapes += [(n, chain), (n, star), (n, tree), (n, bipartite)]
        rng = random.Random(1000 + n)
        for _ in range(25):
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            shapes.append((n, edges))
    return shapes


def labelled(n, edges):
    have_out = {u for u, _ in edges}
    specs = {}
    for i in range(n):
        length = 2.0 + 0.7 * i
        if i not in have_out:
            label = CLASSES[i % 2] if i % 3 != 2 else None
            specs[i] = (label, length)
        else:
            specs[i] = (None, length)
    return CoverageGraph.from_structure(specs, edges)


def test_04_oracle_equivalence():
    shapes = enumerate_shapes()
    for n, edges in shapes:
        g = labelled(n, edges)
        if len(g) > 2:  # drop a residual on one interior node when possible
            interior = [v for v in g.nodes if g.suc(v)]
            if interior:
                g.set_residual(min(interior), "+", 1.25)
        fast = compute_support(g, CLASSES)
        slow = brute_force_support(g, CLASSES)
        for nid in fast:
            for c in CLASSES:
                assert fast[nid][c] == pytest.approx(slow[nid][c], abs=1e-9)
    state = family_state()
    fast = compute_support(state.graph, CLASSES)
    slow = brute_force_support(state.graph, CLASSES)
    for nid in fast:
        for c in CLASSES:
            assert fast[nid][c] == pytest.approx(slow[nid][c], abs=1e-9)
    report(4, True, f"{len(shapes)} shapes + family fixture")


# -- 5: residual mechanics -------------------------------------------------------


def test_05_residual_mechanics():
    # branch over leaf A (L = 16): two coverers B and C, each under its own
    # root (D over B, E over C); transitive pairs included as a coverage
    # oracle would produce them.
    g = CoverageGraph.from_structure(
        {
            1: ("+", 16.0),       # A
            2: (None, 3.0),       # B
            3: (None, 4.0),       # C
            4: (None, 5.0),       # D
            5: (None, 6.0),       # E
        },
        [(2, 1), (3, 1), (4, 2), (4, 1), (5, 3), (5, 1)],
    )

    def root_total():
        support = compute_support(g, ("+",))
        return sum(support[r]["+"] for r in g.roots())

    totals = [root_total()]
    for victim in (1, 2, 3, 4):
        g.remove_rule(victim)
        totals.append(root_total())
    assert totals[0] == 16.0
    for before, after in zip(totals, totals[1:]):
        assert after <= before + 1e-12
    # D carried B's half and was removed while isolated: exactly half lost
    assert totals[-1] == 16.0 / 2
    report(5, True, f"root totals {totals}")


# -- 6: family forgetting narrative ------------------------------------------------


def test_06_family_forgetting_narrative():
    state = family_state()
    ids = table_id_map(state)
    table = state.ensure_metrics()
    weak = ids[59]
    others = [
        table.perm_generic[nid]
        for nid in state.graph.nodes
        if nid != weak and not state.graph.nodes[nid].protected
    ]
    strictly_minimal = table.perm_generic[weak] < min(others)
    removed = state.forget_step()
    report(
        6,
        strictly_minimal and removed[0] == weak,
        f"perm {table.perm_generic[weak]:.3f} vs next {min(others):.3f}",
    )


# -- 7: chess convergence --------------------------------------------------------

CHECK_LIMITS = DeriveLimits(max_depth=12, max_facts=500_000, max_term_depth=6)


def equivalent(a, b):
    return theta_subsumes(a, b) and theta_subsumes(b, a)


def consolidated_rules(state):
    return [state.graph.nodes[n] for n in state.consolidated_ids()]


def covers_some_negative(rule, negatives, store):
    for e in negatives:
        goal, _ = skolemize(e)
        if general_fires(rule, goal, store):
            return True
    return False


def test_07_chess_convergence():
    cfg = load_scenario(os.path.join(CHESS_DIR, "chess.scn"))
    targets = parse_file(os.path.join(CHESS_DIR, "candidates.kbr"))[:11]
    negatives = [
        r
        for r in parse_file(os.path.join(CHESS_DIR, "evidence.kbr"))
        if r.class_label == "-"
    ]
    good = 0
    slow = 0.0
    for seed in range(1, 11):
        start = time.monotonic()
        _, state = run_scenario(cfg, seed=seed)
        elapsed = time.monotonic() - start
        slow = max(slow, elapsed)
        assert elapsed < 60.0, f"single run took {elapsed:.1f}s"
        cons = consolidated_rules(state)
        all_targets = all(any(equivalent(c, t) for c in cons) for t in targets)
        store = forward_closure(state.background, limits=CHECK_LIMITS)
        clean = not any(covers_some_negative(c, negatives, store) for c in cons)
        good += all_targets and clean
    report(7, good >= 8, f"{good}/10 seeds converged, slowest run {slow:.1f}s")


# -- 8: incremental reuse ----------------------------------------------------------


def test_08_incremental_reuse():
    cfg = load_scenario(os.path.join(CHESS_DIR, "incremental.scn"))
    rb_targets = parse_file(os.path.join(CHESS_DIR, "rook_bishop_candidates.kbr"))[:3]
    via_rules = parse_file(os.path.join(CHESS_DIR, "queen_candidates.kbr"))[:2]
    good = 0
    for seed in range(1, 11):
        logs, state = run_scenario(cfg, seed=seed)
        at_100 = set()
        for log in logs[:100]:
            at_100 |= set(log.promoted_ids)
            at_100 -= set(log.demoted_ids)
        final = set(state.consolidated_ids())
        survived = at_100 <= final
        phase1 = [state.graph.nodes[n] for n in at_100 if n in state.graph.nodes]
        rb_done = all(any(equivalent(c, t) for c in phase1) for t in rb_targets)
        cons = consolidated_rules(state)
        via_done = all(any(equivalent(c, v) for c in cons) for v in via_rules)
        good += survived and rb_done and via_done
    report(8, good >= 8, f"{good}/10 seeds")


# -- 9: grid harness ------------------------------------------------------------------


def test_09_grid_serial_vs_concurrent(tmp_path):
    grid = load_grid(os.path.join(CHESS_DIR, "grid.grid"))
    assert len(grid.cells()) == 240
    rows_serial, fail_serial = run_grid(grid, jobs=1)
    rows_conc, fail_conc = run_grid(grid, jobs=2)
    a, b = tmp_path / "serial.csv", tmp_path / "conc.csv"
    write_heatmap_csv(rows_serial, str(a))
    write_heatmap_csv(rows_conc, str(b))
    identical = a.read_bytes() == b.read_bytes()
    report(
        9,
        not fail_serial and not fail_conc and identical,
        f"240 runs, {len(rows_serial)} heat-map rows, identical bytes: {identical}",
    )


# -- 10: determinism --------------------------------------------------------------------


def test_10_rerun_determinism(tmp_path):
    outcomes = []
    for name, path in (
        ("family", FAMILY_SCN),
        ("chess-grid-base", os.path.join(CHESS_DIR, "grid_base.scn")),
    ):
        cfg = load_scenario(path)
        dirs = [tmp_path / f"{name}{i}" for i in (0, 1)]
        for d in dirs:
            run_scenario(cfg, out_dir=str(d))
        outcomes.append(
            (dirs[0] / "steps.csv").read_bytes() == (dirs[1] / "steps.csv").read_bytes()
        )
    report(10, all(outcomes), f"byte-identical: {outcomes}")
