import os
from dataclasses import replace

import pytest

from covkb import covgraph
from covkb.cli import main as cli_main
from covkb.harness import (
    ConfigError,
    PhaseConfig,
    ScenarioConfig,
    build_oneshot_state,
    derive_cell_seed,
    export_dot,
    load_grid,
    load_scenario,
    metrics_csv_text,
    run_grid,
    run_scenario,
    sample_geometric,
    step_csv_header,
)
from covkb.metrics import compute_table
from covkb.rng import PCG64
from covkb.rules import canonical_form, rule_length

from conftest import CHESS_DIR, FAMILY_KBR, FAMILY_SCN
from oracles import graph_from_structure

CHESS_SCN = os.path.join(CHESS_DIR, "chess.scn")
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FAMILY_POOLS = "".join(
    f"{key} = {FAMILY_KBR}\n" for key in ("background", "evidence", "candidates")
)
INCREMENTAL_SCN = os.path.join(CHESS_DIR, "incremental.scn")
GRID = os.path.join(CHESS_DIR, "grid.grid")


def _line_of(text, key):
    """1-based number of the line of `text` that sets `key`."""
    return [line.split("=")[0].strip() for line in text.splitlines()].index(key) + 1


class TestGeometricSampling:
    def test_p_one_always_one(self):
        rng = PCG64(0)
        assert all(sample_geometric(rng, 1.0) == 1 for _ in range(50))

    def test_out_of_range(self):
        rng = PCG64(0)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                sample_geometric(rng, bad)

    def test_pmf_and_mean(self):
        rng = PCG64(12345)
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

    def test_unset_keys_take_the_dataclass_defaults(self, tmp_path):
        scn = tmp_path / "bare.scn"
        scn.write_text("steps = 1\n")
        assert load_scenario(str(scn)) == ScenarioConfig(phases=(PhaseConfig(steps=1),))

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

    def test_negative_seed_override_raises(self, tmp_path):
        cfg = load_scenario(FAMILY_SCN)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            run_scenario(cfg, out_dir=str(tmp_path), seed=-1)
        assert not (tmp_path / "steps.csv").exists()

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
        g = graph_from_structure({1: (None, 2.0), 2: ("+", 5.0)}, [(1, 2)])
        t = compute_table(g, 0.5, ("+", "-"))
        dot = export_dot(g, t, ("+", "-"))
        assert dot.count("->") == 1
        assert dot.startswith("digraph")

    def test_dot_empty_graph(self):
        g = graph_from_structure({}, [])
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

    @pytest.mark.parametrize("name", ["family", "chess"])
    def test_metrics_csv_matches_golden_bytes(self, name):
        # `covkb metrics` is the only output that prints permanence; the
        # golden files were recorded with the incrementally kept permanence,
        # so they pin the on-demand pass to it byte for byte.
        scenario = {"family": FAMILY_SCN, "chess": CHESS_SCN}[name]
        golden = os.path.join(GOLDEN_DIR, f"{name}_metrics.csv")
        with open(golden, encoding="utf-8", newline="") as fh:
            want = fh.read()
        assert metrics_csv_text(build_oneshot_state(load_scenario(scenario))) == want


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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cells_are_seeded_from_base_seed(self, jobs):
        small = self.small_grid(40, capacities=(30,), fractions=(0.5,))
        small = replace(small, repetitions=2, base_seed=small.base.seed + 1)
        rows, failures = run_grid(small, jobs=jobs)

        def expected(base_seed):
            counts = {}
            for cap, frac, rep in small.cells():
                policy = replace(small.base.policy, forget_fraction=frac)
                cfg = replace(small.base, capacity=cap, policy=policy)
                _, state = run_scenario(cfg, seed=derive_cell_seed(base_seed, cap, frac, rep))
                for nid in state.consolidated_ids():
                    canon = canonical_form(state.graph.nodes[nid])
                    counts[canon] = counts.get(canon, 0) + 1
            return [(30, 0.5, canon, n) for canon, n in sorted(counts.items())]

        assert not failures
        assert rows == expected(small.base_seed) != expected(small.base.seed)

    def test_cells_share_one_clause_record_per_key(self, monkeypatch):
        # The cells share one verdict store, so a clause's length is made
        # once however many cells insert it, and however often.
        inserts, lengths = [], []
        insert_rule = covgraph.CoverageGraph.insert_rule

        def counted_length(rule):
            lengths.append((canonical_form(rule), rule.length_override))
            return rule_length(rule)

        def counted_insert(graph, rule, oracle):
            inserts.append(rule.id)
            return insert_rule(graph, rule, oracle)

        monkeypatch.setattr(covgraph, "rule_length", counted_length)
        monkeypatch.setattr(covgraph.CoverageGraph, "insert_rule", counted_insert)
        small = self.small_grid(60, capacities=(20, 30), fractions=(0.25, 0.5))
        rows, failures = run_grid(small, jobs=1)
        assert not failures and rows
        assert len(lengths) == len(set(lengths))
        assert 0 < len(lengths) < len(inserts) // 4

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

    def test_parse_too_deep_a_term_exits_1(self, tmp_path, capsys):
        deep = tmp_path / "deep.kbr"
        deep.write_text("p(" + "f(" * 400 + "a" + ")" * 400 + ").\n")
        assert cli_main(["parse", str(deep)]) == 1
        assert capsys.readouterr().err.startswith("error: line 1, col ")

    def test_parse_directory_exits_1(self, tmp_path, capsys):
        assert cli_main(["parse", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("command", ["run", "grid"])
    def test_out_is_a_file_exits_1(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("")
        grid = tmp_path / "one.grid"
        grid.write_text(f"scenario = {FAMILY_SCN}\ncapacities = 5\nfractions = 0.5\nrepetitions = 1\n")
        source = FAMILY_SCN if command == "run" else str(grid)
        assert cli_main([command, source, "--out", str(taken)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {taken}")
        assert err.count("\n") == 1
        assert taken.read_text() == "" and sorted(os.listdir(tmp_path)) == ["one.grid", "taken"]

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
        "line",
        [
            "beta = 2", "forget_fraction = 0", "capacity = -1", "max_depth = 0",
            "max_facts = -1", "max_term_depth = 0", "seed = -1",
        ],
    )
    def test_out_of_range_scenario_value(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.scn"
        bad.write_text(f"{FAMILY_POOLS}steps = 3\n{line}\n")
        assert cli_main(["run", str(bad), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "steps.csv").exists()

    def test_negative_seed_override_exits_1(self, tmp_path, capsys):
        assert cli_main(["run", FAMILY_SCN, "--seed", "-1", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: --seed: seed must be >= 0\n"
        assert not (tmp_path / "steps.csv").exists()

    def test_grid_jobs_below_one_exits_1(self, tmp_path, capsys):
        assert cli_main(["grid", GRID, "--jobs", "0", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: --jobs must be >= 1\n"
        assert not (tmp_path / "heatmap.csv").exists()

    def test_grid_negative_base_seed_exits_1(self, tmp_path, capsys):
        scn = tmp_path / "neg.scn"
        scn.write_text(f"{FAMILY_POOLS}steps = 3\nseed = -1\n")
        grid = tmp_path / "neg.grid"
        grid.write_text(f"scenario = {scn}\ncapacities = 5\nfractions = 0.5\nrepetitions = 1\n")
        assert cli_main(["grid", str(grid), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {scn}: line 5: seed must be >= 0\n"
        assert not (tmp_path / "heatmap.csv").exists()

    def test_undeclared_consolidation_class_exits_1(self, tmp_path, capsys):
        # The chess pools declare + and -, so `pos` could never consolidate.
        scn = tmp_path / "pos.scn"
        scn.write_text(
            "steps = 200\ncapacity = 60\nconsolidation_class = pos\n"
            + "".join(
                f"{key} = {CHESS_DIR}/{key}.kbr\n"
                for key in ("background", "evidence", "candidates")
            )
        )
        assert cli_main(["run", str(scn), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: consolidation_class 'pos' is not a declared class")
        assert not (tmp_path / "steps.csv").exists()

    @pytest.mark.parametrize("problem", ["disagree", "undeclared", "wrong class"])
    def test_class_errors_name_the_evidence_pools(self, tmp_path, capsys, problem):
        first, second = tmp_path / "first.kbr", tmp_path / "second.kbr"
        first.write_text("#classes + -\n#evidence +\np(a).\n")
        second.write_text({"disagree": "#classes + o\n#evidence +\np(b).\n",
                           "undeclared": "p(b).\n",
                           "wrong class": "#classes + -\n#evidence -\np(b).\n"}[problem])
        if problem == "undeclared":
            first.write_text("p(a).\n")
        scn = tmp_path / "classes.scn"
        scn.write_text(
            ("consolidation_class = z\n" if problem == "wrong class" else "")
            + "".join(f"[phase]\nsteps = 2\nevidence = {pool}\ncandidates = {pool}\n"
                      for pool in (first, second)))
        assert cli_main(["run", str(scn), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + {
            "disagree": "class sets disagree across pools",
            "undeclared": "no classes declared in any evidence pool",
            "wrong class": "consolidation_class 'z' is not a declared class"}[problem])
        assert err.endswith(f" (evidence pools: {first}, {second})\n")
        assert not (tmp_path / "out" / "steps.csv").exists()

    @pytest.mark.parametrize("command", ["parse", "run"])
    def test_non_utf8_file_exits_1(self, tmp_path, capsys, command):
        pool = tmp_path / "latin1.kbr"
        pool.write_bytes("#evidence +\np(jos\xe9).\n".encode("latin-1"))
        scn = tmp_path / "latin1.scn"
        scn.write_text(f"steps = 3\nevidence = {pool}\n")
        if command == "parse":
            argv = ["parse", str(pool)]
        else:
            argv = ["run", str(scn), "--out", str(tmp_path)]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(pool) in err and err.count("\n") == 1

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
        line = _line_of(bad.read_text(), key)
        assert capsys.readouterr().err == f"error: {bad}: line {line}: {key} repeats a value\n"
        assert not (tmp_path / "heatmap.csv").exists()

    @pytest.mark.parametrize("repetitions", ["0", "-2"])
    def test_grid_repetitions_below_one_exits_1(self, tmp_path, capsys, repetitions):
        bad = tmp_path / "reps.grid"
        bad.write_text(
            f"scenario = {CHESS_SCN}\ncapacities = 20\nfractions = 0.5\n"
            f"repetitions = {repetitions}\n"
        )
        assert cli_main(["grid", str(bad), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: line 4: repetitions must be >= 1\n"
        assert not (tmp_path / "heatmap.csv").exists()

    @pytest.mark.parametrize(
        "kind, line",
        [
            *(("scn", line) for line in (
                "beta = 2", "forget_fraction = 0", "capacity = -1", "max_depth = 0",
                "max_facts = -1", "max_term_depth = 0", "seed = -1", "capacity = x",
                "arrival_p = 0", "theta_p_mode = fixed:",
                # each coverage pair kind has one fixed semantics, so no key picks one
                "rule_rule_coverage = subsumption", "rule_evidence_coverage = derivation",
            )),
            ("phase", "steps = -1"),
            ("grid", "fractions = 0,1.5"),
            ("grid", "capacities = -5"),
        ],
    )
    def test_config_error_names_file_and_line(self, tmp_path, capsys, kind, line):
        key = line.split(" =")[0]
        if kind == "scn":
            body = f"{FAMILY_POOLS}steps = 3\n{line}\n"
        elif kind == "phase":
            body = f"background = {FAMILY_KBR}\n[phase]\nevidence = {FAMILY_KBR}\n{line}\n"
        else:
            lists = ("capacities = 20", "fractions = 0.5", "repetitions = 1")
            body = "\n".join([f"scenario = {CHESS_SCN}", line]
                             + [other for other in lists if not other.startswith(key)]) + "\n"
        bad = tmp_path / ("bad.grid" if kind == "grid" else "bad.scn")
        bad.write_text(body)
        command = "grid" if kind == "grid" else "run"
        assert cli_main([command, str(bad), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line {_line_of(body, key)}: ")
        assert err.count("\n") == 1
        if key.endswith("_coverage"):
            assert err.endswith(f": unknown scenario key {key!r}\n")
        assert not (tmp_path / "out").exists()

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
