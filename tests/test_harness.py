import os
from dataclasses import replace

import numpy as np
import pytest

from covkb.cli import main as cli_main
from covkb.harness import (
    ConfigError,
    derive_cell_seed,
    export_dot,
    load_grid,
    load_scenario,
    load_snapshot,
    metrics_csv_text,
    restore_state,
    run_grid,
    run_scenario,
    sample_geometric,
    step_csv_header,
    write_snapshot,
)
from covkb.covgraph import CoverageGraph
from covkb.metrics import compute_table
from covkb.rules import canonical_form

from conftest import CHESS_DIR, FAMILY_KBR, FAMILY_SCN

CHESS_SCN = os.path.join(CHESS_DIR, "chess.scn")
INCREMENTAL_SCN = os.path.join(CHESS_DIR, "incremental.scn")
GRID = os.path.join(CHESS_DIR, "grid.grid")


class TestGeometricSampling:
    def test_p_one_always_one(self):
        rng = np.random.default_rng(0)
        assert all(sample_geometric(rng, 1.0) == 1 for _ in range(50))

    def test_out_of_range(self):
        rng = np.random.default_rng(0)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                sample_geometric(rng, bad)

    def test_pmf_and_mean(self):
        rng = np.random.default_rng(12345)
        draws = [sample_geometric(rng, 0.5) for _ in range(100_000)]
        n = len(draws)
        assert draws.count(1) / n == pytest.approx(0.5, abs=0.01)
        assert draws.count(2) / n == pytest.approx(0.25, abs=0.01)
        assert sum(draws) / n == pytest.approx(2.0, abs=0.03)


class TestConfigLoading:
    def test_family_scenario(self):
        cfg = load_scenario(FAMILY_SCN)
        assert cfg.steps == 8
        assert cfg.policy.beta == 0.5
        assert len(cfg.phases) == 1
        assert cfg.phases[0].evidence.endswith("family.kbr")

    def test_incremental_phases(self):
        cfg = load_scenario(INCREMENTAL_SCN)
        assert [p.steps for p in cfg.phases] == [100, 100]
        assert cfg.steps == 200
        assert cfg.capacity == 15

    def test_chess_threshold_modes(self):
        cfg = load_scenario(CHESS_SCN)
        policy = cfg.policy
        assert policy.theta_p.kind == "avg_opt_clamped"
        assert policy.theta_d.kind == "fixed" and policy.theta_d.value == 0.0
        assert policy.consolidation_class == "+"

    def test_grid_config(self):
        grid = load_grid(GRID)
        assert grid.capacities == (20, 30, 40, 50, 60, 70, 80, 90)
        assert grid.fractions == (0.25, 0.5, 0.75)
        assert grid.repetitions == 10
        assert len(grid.cells()) == 240

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("steps = 3\nwibble = 9\n")
        with pytest.raises(ConfigError, match="wibble"):
            load_scenario(str(bad))

    def test_steps_phase_clash(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("steps = 3\n[phase]\nsteps = 2\n")
        with pytest.raises(ConfigError, match="clash"):
            load_scenario(str(bad))

    def test_bad_threshold(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("steps = 3\ntheta_p_mode = squiggly\n")
        with pytest.raises(ConfigError, match="threshold"):
            load_scenario(str(bad))

    def test_cell_seed_is_stable(self):
        a = derive_cell_seed(777, 60, 0.5, 3)
        b = derive_cell_seed(777, 60, 0.5, 3)
        c = derive_cell_seed(777, 60, 0.5, 4)
        assert a == b != c


class TestRunScenario:
    def test_zero_steps(self, tmp_path):
        cfg = load_scenario(FAMILY_SCN)
        cfg = replace(cfg, phases=(replace(cfg.phases[0], steps=0),))
        logs, state = run_scenario(cfg)
        assert logs == []
        assert state.population() == 0

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = load_scenario(FAMILY_SCN)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_scenario(cfg, out_dir=str(out_a))
        run_scenario(cfg, out_dir=str(out_b))
        assert (out_a / "steps.csv").read_bytes() == (out_b / "steps.csv").read_bytes()
        assert (out_a / "state.snapshot").read_bytes() == (out_b / "state.snapshot").read_bytes()

    def test_seed_override_changes_trace(self, tmp_path):
        cfg = load_scenario(FAMILY_SCN)
        a, _ = run_scenario(cfg, seed=1)
        b, _ = run_scenario(cfg, seed=2)
        assert [l.arrivals_examples for l in a] != [l.arrivals_examples for l in b] or [
            l.arrivals_rules for l in a
        ] != [l.arrivals_rules for l in b]

    def test_header_contract(self):
        head = step_csv_header(("+", "-"))
        assert head == [
            "step", "arrivals_examples", "arrivals_rules", "population_w",
            "consolidated_count", "avg_opt_w", "avg_opt_cons", "n_forgotten",
            "forgotten_ids", "promoted_ids", "demoted_ids",
            "root_support_+", "root_support_-", "warnings",
        ]


class TestExports:
    def test_dot_single_edge(self):
        g = CoverageGraph.from_structure({1: (None, 2.0), 2: ("+", 5.0)}, [(1, 2)])
        t = compute_table(g, 0.5, ("+", "-"))
        dot = export_dot(g, t, ("+", "-"))
        assert dot.count("->") == 1
        assert dot.startswith("digraph")

    def test_dot_empty_graph(self):
        g = CoverageGraph.from_structure({}, [])
        t = compute_table(g, 0.5, ("+",))
        dot = export_dot(g, t, ("+",))
        assert dot.startswith("digraph") and dot.rstrip().endswith("}")

    def test_dot_family(self, family):
        state, _ = family
        dot = export_dot(state.graph, state.ensure_metrics(), state.classes)
        assert dot.count("[label=") == 12 or dot.count("label=") == 12
        edge_count = sum(len(v) for v in state.graph.reduced.values())
        assert dot.count("->") == edge_count
        assert "peripheries=2" not in dot  # nothing consolidated yet

    def test_metrics_csv_shape(self, family):
        state, _ = family
        text = metrics_csv_text(state)
        lines = text.strip().split("\n")
        assert lines[0].split(",")[:3] == ["id", "class", "L"]
        assert len(lines) == 13  # header + 12 nodes


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        cfg = load_scenario(CHESS_SCN)
        cfg = replace(cfg, phases=(replace(cfg.phases[0], steps=40),))
        _, state = run_scenario(cfg, seed=5)
        path = tmp_path / "state.snapshot"
        write_snapshot(state, str(path))
        snap = load_snapshot(str(path))
        assert snap.classes == state.classes
        assert len(snap.rules) == state.population()
        by_id = {r.id: r for r in snap.rules}
        for nid, rule in state.graph.nodes.items():
            assert by_id[nid].protected == rule.protected
            assert by_id[nid].class_label == rule.class_label
        restored = restore_state(snap, cfg)
        assert restored.population() == state.population()
        assert len(restored.consolidated_ids()) == len(state.consolidated_ids())
        # Restoring assigns fresh ids; canonical forms pair the nodes up.
        key_of = {nid: canonical_form(r) for nid, r in state.graph.nodes.items()}
        by_key = {canonical_form(r): nid for nid, r in restored.graph.nodes.items()}
        to_new = {nid: by_key[key] for nid, key in key_of.items()}
        for edges in ("full", "reduced"):
            old_edges, new_edges = getattr(state.graph, edges), getattr(restored.graph, edges)
            for nid, targets in old_edges.items():
                assert {to_new[v] for v in targets} == new_edges[to_new[nid]]
        old_table, new_table = state.ensure_metrics(), restored.ensure_metrics()
        for nid, new_id in to_new.items():
            assert restored.graph.residuals[new_id] == state.graph.residuals[nid]
            for field in ("support", "opt", "perm", "perm_generic"):
                assert getattr(new_table, field)[new_id] == pytest.approx(
                    getattr(old_table, field)[nid]
                )

    @pytest.mark.parametrize(
        "header",
        [
            "#node origin=candidate",
            "#node id=x origin=candidate",
            "#node id=1 origin=candidate stray",
            "#node id=1 origin=candidate res=+",
            "#node id=1 origin=candidate res=+:lots",
            "#node id=1 origin=alien",
            "#node id=1 origin=candidate length=long",
        ],
    )
    def test_malformed_node_header(self, tmp_path, header):
        path = tmp_path / "bad.snapshot"
        path.write_text(f"#snapshot 1\n#classes + -\n{header}\np(a).\n")
        with pytest.raises(ConfigError, match="line 3"):
            load_snapshot(str(path))


class TestGrid:
    def test_one_by_one(self, tmp_path):
        grid = load_grid(GRID)
        small = replace(
            grid,
            capacities=(30,),
            fractions=(0.5,),
            repetitions=1,
            base=replace(grid.base, phases=(replace(grid.base.phases[0], steps=15),)),
        )
        rows, failures = run_grid(small, jobs=1)
        assert not failures
        assert all(cap == 30 and frac == 0.5 and n == 1 for cap, frac, _, n in rows)

    def small_grid(self, steps, **lists):
        grid = load_grid(GRID)
        base = replace(grid.base, phases=(replace(grid.base.phases[0], steps=steps),))
        return replace(grid, base=base, repetitions=1, **lists)

    def test_rows_equal_separate_runs(self):
        # Cells share parsed pools and oracle verdicts; each must still
        # consolidate what a fresh run of the same cell does.
        small = self.small_grid(60, capacities=(20, 30), fractions=(0.25, 0.5))
        rows, failures = run_grid(small, jobs=1)
        counts = {}
        for cap, frac, rep in small.cells():
            policy = replace(small.base.policy, forget_fraction=frac)
            cfg = replace(small.base, capacity=cap, policy=policy)
            seed = derive_cell_seed(small.base.seed, cap, frac, rep)
            _, state = run_scenario(cfg, seed=seed)
            for nid in state.consolidated_ids():
                key = (cap, frac, canonical_form(state.graph.nodes[nid]))
                counts[key] = counts.get(key, 0) + 1
        assert not failures and rows
        assert rows == [(c, f, k, n) for (c, f, k), n in sorted(counts.items())]

    def test_cell_failure_is_recorded_and_grid_continues(self):
        # A GridConfig built in code bypasses load_grid's range checks.
        small = self.small_grid(60, capacities=(30,), fractions=(1.5, 0.5))
        rows, failures = run_grid(small, jobs=1)
        assert len(failures) == 1 and "fraction=1.5" in failures[0]
        assert rows and {frac for _, frac, _, _ in rows} == {0.5}


class TestCli:
    def test_parse_ok(self, capsys):
        assert cli_main(["parse", FAMILY_KBR]) == 0
        out = capsys.readouterr().out
        assert "daughter(V0,V1) :- female(V0), parent(V1,V0)." in out

    def test_parse_missing_file(self, capsys):
        assert cli_main(["parse", "/nonexistent.kbr"]) == 1

    def test_parse_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.kbr"
        bad.write_text("p(a. q(b).")
        assert cli_main(["parse", str(bad)]) == 1

    def test_metrics_command(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert cli_main(["metrics", FAMILY_SCN, "--out", str(out)]) == 0
        assert out.read_text().startswith("id,class,L,")

    def test_graph_command(self, capsys):
        assert cli_main(["graph", FAMILY_SCN]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_run_command(self, tmp_path):
        assert cli_main(["run", FAMILY_SCN, "--out", str(tmp_path), "--seed", "3"]) == 0
        steps = (tmp_path / "steps.csv").read_text().splitlines()
        assert steps[0] == ",".join(step_csv_header(("+", "-")))
        assert len(steps) == 9
        assert (tmp_path / "state.snapshot").exists()

    def test_grid_command(self, tmp_path):
        mini_scn = tmp_path / "mini.scn"
        mini_scn.write_text(
            "seed = 9\nsteps = 6\ncapacity = 20\nforget_fraction = 0.5\n"
            "beta = 0.1\nconsolidation_class = +\n"
            f"background = {CHESS_DIR}/background.kbr\n"
            f"evidence = {CHESS_DIR}/evidence.kbr\n"
            f"candidates = {CHESS_DIR}/candidates.kbr\n"
        )
        mini_grid = tmp_path / "mini.grid"
        mini_grid.write_text(
            f"scenario = {mini_scn}\ncapacities = 20,30\nfractions = 0.5\nrepetitions = 2\n"
        )
        assert cli_main(["grid", str(mini_grid), "--out", str(tmp_path)]) == 0
        heat = (tmp_path / "heatmap.csv").read_text().splitlines()
        assert heat[0] == "capacity,forget_fraction,rule_canonical_form,consolidated_count"

    def test_scenario_validation_error(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("nonsense = 1\n")
        assert cli_main(["run", str(bad), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "line", ["beta = 2", "forget_fraction = 0", "capacity = -1"]
    )
    def test_out_of_range_scenario_value(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.scn"
        bad.write_text(f"steps = 3\n{line}\n")
        assert cli_main(["run", str(bad), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_grid_duplicate_key_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "dup.grid"
        bad.write_text(
            f"scenario = {CHESS_SCN}\nfractions = 0.5\nfractions = 0.25\n"
            "capacities = 20\nrepetitions = 1\n"
        )
        assert cli_main(["grid", str(bad), "--out", str(tmp_path)]) == 1
        assert "line 3: duplicate key 'fractions'" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "lists", ["capacities = 20\nfractions = 0,1.5", "capacities = -5\nfractions = 0.5"]
    )
    def test_out_of_range_grid_value(self, tmp_path, capsys, lists):
        bad = tmp_path / "bad.grid"
        bad.write_text(f"scenario = {CHESS_SCN}\n{lists}\nrepetitions = 1\n")
        assert cli_main(["grid", str(bad), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "heatmap.csv").exists()

    @pytest.mark.parametrize(
        "lists, key",
        [
            ("capacities = 20,20\nfractions = 0.5", "capacities"),
            ("capacities = 20\nfractions = 0.5,0.50", "fractions"),
        ],
    )
    def test_grid_repeated_value_exits_1(self, tmp_path, capsys, lists, key):
        bad = tmp_path / "repeat.grid"
        bad.write_text(f"scenario = {CHESS_SCN}\n{lists}\nrepetitions = 1\n")
        assert cli_main(["grid", str(bad), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {key} repeats a value\n"
        assert not (tmp_path / "heatmap.csv").exists()

    def test_grid_unreadable_pool_exits_1(self, tmp_path, capsys):
        scn = tmp_path / "gone.scn"
        scn.write_text(
            "steps = 6\ncapacity = 20\n"
            f"background = {CHESS_DIR}/background.kbr\n"
            f"evidence = {CHESS_DIR}/evidence.kbr\n"
            "candidates = missing.kbr\n"
        )
        grid = tmp_path / "gone.grid"
        grid.write_text(
            f"scenario = {scn}\ncapacities = 20,30\nfractions = 0.5\nrepetitions = 2\n"
        )
        assert cli_main(["grid", str(grid), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read pool file") and err.count("\n") == 1
        assert not (tmp_path / "heatmap.csv").exists()


def test_chess_forgetting_cadence():
    # Qualitative shape check: with capacity 60 and fraction 0.5 the
    # population saws and forgetting recurs on the order of tens of steps.
    cfg = load_scenario(CHESS_SCN)
    logs, _ = run_scenario(cfg, seed=4)
    events = [log.step for log in logs if log.n_forgotten]
    assert len(events) >= 5
    gaps = [b - a for a, b in zip(events, events[1:])]
    mean_gap = sum(gaps) / len(gaps)
    assert 5.0 <= mean_gap <= 100.0
    peak = max(log.population_w for log in logs)
    trough = min(log.population_w for log in logs[len(logs) // 2 :])
    assert peak > trough  # sawtooth, not a flat line
