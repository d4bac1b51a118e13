"""Scenario configuration, seeded simulation, grid sweeps and exporters.

Config files are line-oriented `key = value` text with `#` comments;
lists are comma-separated and incremental scenarios declare consecutive
`[phase]` sections, each with its own pools.  All paths are resolved
relative to the config file.

Reproducibility: one PCG64 generator per run, seeded from the scenario
seed.  Per step the draw order is fixed: the evidence count, then that
many uniform pool indices, then the rule count, then its indices.  Grid
cells derive their seed by feeding (base seed, capacity, round(fraction *
1e6), repetition) into `numpy.random.SeedSequence`.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .covgraph import CoverageGraph
from .deduce import DERIVATION, SUBSUMPTION, CoverageConfig, DeriveLimits, VerdictStore
from .lifecycle import (
    AVG_OPT,
    AVG_OPT_CLAMPED,
    FIXED,
    KnowledgeState,
    Policy,
    StepLog,
    Threshold,
)
from .metrics import MetricsTable
from .parser import ParseError, parse_program, scan_classes
from .rules import (
    BACKGROUND,
    CANDIDATE,
    EVIDENCE,
    ORIGINS,
    Rule,
    canonical_form,
    render_rule,
)


class ConfigError(Exception):
    pass


Pools = List[Tuple[List[Rule], List[Rule]]]  # per phase: (evidence, candidates)


@dataclass(frozen=True)
class PhaseConfig:
    steps: int
    evidence: Optional[str] = None
    candidates: Optional[str] = None


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    arrival_p: float = 0.5
    capacity: int = 0
    policy: Policy = field(default_factory=Policy)
    coverage: CoverageConfig = field(default_factory=CoverageConfig)
    background: Optional[str] = None
    phases: Tuple[PhaseConfig, ...] = ()

    @property
    def steps(self) -> int:
        return sum(p.steps for p in self.phases)


@dataclass(frozen=True)
class GridConfig:
    base: ScenarioConfig
    capacities: Tuple[int, ...]
    fractions: Tuple[float, ...]
    repetitions: int
    base_seed: int

    def cells(self) -> List[Tuple[int, float, int]]:
        return [
            (cap, frac, rep)
            for cap in self.capacities
            for frac in self.fractions
            for rep in range(self.repetitions)
        ]


# ---------------------------------------------------------------------------
# config file parsing


def _parse_kv_lines(text: str):
    """Yield (section, key, value, line_no); section None before any header."""
    section = None
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            yield section, None, None, line_no
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value")
        key, value = line.split("=", 1)
        yield section, key.strip(), value.strip(), line_no


def _read(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}")


def _parse_threshold(text: str) -> Threshold:
    if text == AVG_OPT:
        return Threshold(AVG_OPT)
    if text == AVG_OPT_CLAMPED:
        return Threshold(AVG_OPT_CLAMPED)
    if text.startswith("fixed:"):
        try:
            return Threshold(FIXED, float(text.split(":", 1)[1]))
        except ValueError:
            raise ConfigError(f"bad fixed threshold {text!r}")
    raise ConfigError(f"unknown threshold mode {text!r}")


_SCALAR_KEYS = {
    "seed": int,
    "steps": int,
    "arrival_p": float,
    "capacity": int,
    "forget_fraction": float,
    "beta": float,
    "max_depth": int,
    "max_facts": int,
    "max_term_depth": int,
}


def load_scenario(path: str) -> ScenarioConfig:
    base_dir = os.path.dirname(os.path.abspath(path))
    text = _read(path, "scenario file")

    top: Dict[str, str] = {}
    phases: List[Dict[str, str]] = []
    current: Optional[Dict[str, str]] = None
    for section, key, value, line_no in _parse_kv_lines(text):
        if key is None:
            if section != "phase":
                raise ConfigError(f"line {line_no}: unknown section [{section}]")
            current = {}
            phases.append(current)
            continue
        target = current if current is not None else top
        if key in target:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        target[key] = value

    def resolve(p: Optional[str]) -> Optional[str]:
        if p is None:
            return None
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    scalars: Dict[str, object] = {}
    for key, conv in _SCALAR_KEYS.items():
        if key in top:
            try:
                scalars[key] = conv(top.pop(key))
            except ValueError:
                raise ConfigError(f"bad value for {key!r}")

    limits = DeriveLimits(
        max_depth=scalars.pop("max_depth", 10),
        max_facts=scalars.pop("max_facts", 10000),
        max_term_depth=scalars.pop("max_term_depth", 6),
    )
    for mode_key in ("rule_rule_coverage", "rule_evidence_coverage"):
        if mode_key in top and top[mode_key] not in (SUBSUMPTION, DERIVATION):
            raise ConfigError(f"bad value for {mode_key!r}")
    coverage = CoverageConfig(
        rule_rule_mode=top.pop("rule_rule_coverage", SUBSUMPTION),
        rule_evidence_mode=top.pop("rule_evidence_coverage", DERIVATION),
        limits=limits,
    )

    top_steps = scalars.pop("steps", None)
    background = resolve(top.pop("background", None))
    top_evidence = top.pop("evidence", None)
    top_candidates = top.pop("candidates", None)

    phase_cfgs: List[PhaseConfig] = []
    if phases:
        if top_evidence or top_candidates or top_steps is not None:
            raise ConfigError(
                "top-level steps/evidence/candidates clash with [phase] sections"
            )
        for i, ph in enumerate(phases, 1):
            if "steps" not in ph:
                raise ConfigError(f"[phase] {i} is missing steps")
            try:
                steps = int(ph.pop("steps"))
            except ValueError:
                raise ConfigError(f"[phase] {i}: bad steps value")
            phase_cfgs.append(
                PhaseConfig(
                    steps=steps,
                    evidence=resolve(ph.pop("evidence", None)),
                    candidates=resolve(ph.pop("candidates", None)),
                )
            )
            if ph:
                raise ConfigError(f"[phase] {i}: unknown keys {sorted(ph)}")
    else:
        if top_steps is None:
            raise ConfigError("scenario needs steps (or [phase] sections)")
        phase_cfgs.append(
            PhaseConfig(
                steps=int(top_steps),
                evidence=resolve(top_evidence),
                candidates=resolve(top_candidates),
            )
        )

    theta_p = _parse_threshold(top.pop("theta_p_mode", AVG_OPT_CLAMPED))
    theta_d = _parse_threshold(top.pop("theta_d_mode", "fixed:-inf"))
    consolidation_class = top.pop("consolidation_class", None)
    if top:
        raise ConfigError(f"unknown scenario keys {sorted(top)}")

    for phase in phase_cfgs:
        if phase.steps < 0:
            raise ConfigError("steps must be >= 0")
    try:
        policy = Policy(
            beta=float(scalars.pop("beta", 0.5)),
            theta_p=theta_p,
            theta_d=theta_d,
            forget_fraction=float(scalars.pop("forget_fraction", 0.25)),
            consolidation_class=consolidation_class,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    cfg = ScenarioConfig(
        seed=int(scalars.pop("seed", 0)),
        arrival_p=float(scalars.pop("arrival_p", 0.5)),
        capacity=int(scalars.pop("capacity", 0)),
        policy=policy,
        coverage=coverage,
        background=background,
        phases=tuple(phase_cfgs),
    )
    if not 0.0 < cfg.arrival_p <= 1.0:
        raise ConfigError("arrival_p must lie in (0, 1]")
    if cfg.capacity < 0:
        raise ConfigError("capacity must be >= 0 (0 means unbounded)")
    return cfg


def load_grid(path: str) -> GridConfig:
    base_dir = os.path.dirname(os.path.abspath(path))
    text = _read(path, "grid file")
    keys: Dict[str, str] = {}
    for section, key, value, line_no in _parse_kv_lines(text):
        if key is None:
            raise ConfigError(f"line {line_no}: grid files have no sections")
        if key in keys:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        keys[key] = value
    try:
        scenario_path = keys.pop("scenario")
    except KeyError:
        raise ConfigError("grid file needs scenario = <path>")
    if not os.path.isabs(scenario_path):
        scenario_path = os.path.join(base_dir, scenario_path)
    base = load_scenario(scenario_path)
    try:
        capacities = tuple(int(x) for x in keys.pop("capacities").split(","))
        fractions = tuple(float(x) for x in keys.pop("fractions").split(","))
        repetitions = int(keys.pop("repetitions"))
    except KeyError as exc:
        raise ConfigError(f"grid file is missing {exc}")
    except ValueError:
        raise ConfigError("bad grid list value")
    if keys:
        raise ConfigError(f"unknown grid keys {sorted(keys)}")
    if not capacities or not fractions or repetitions <= 0:
        raise ConfigError("grid lists must be non-empty")
    if min(capacities) < 0:
        raise ConfigError("capacities must be >= 0 (0 means unbounded)")
    if not all(0.0 < f <= 1.0 for f in fractions):
        raise ConfigError("fractions must lie in (0, 1]")
    for key, values in (("capacities", capacities), ("fractions", fractions)):
        if len(set(values)) != len(values):
            raise ConfigError(f"{key} repeats a value")
    return GridConfig(
        base=base,
        capacities=capacities,
        fractions=fractions,
        repetitions=repetitions,
        base_seed=base.seed,
    )


# ---------------------------------------------------------------------------
# pools and state construction


def _load_pool(path: Optional[str], want_origin: str) -> List[Rule]:
    if path is None:
        return []
    text = _read(path, "pool file")
    try:
        rules = parse_program(text)
    except ParseError as exc:
        raise ConfigError(f"{path}: {exc}")
    return [r for r in rules if r.origin == want_origin]


def scenario_classes(cfg: ScenarioConfig) -> Tuple[str, ...]:
    """Class tokens declared by the evidence pools; must agree across phases."""
    declared: Optional[Tuple[str, ...]] = None
    for phase in cfg.phases:
        if phase.evidence is None:
            continue
        classes = scan_classes(_read(phase.evidence, "pool file"))
        if not classes:
            continue
        if declared is None:
            declared = classes
        elif set(declared) != set(classes):
            raise ConfigError(
                f"class sets disagree across pools: {declared} vs {classes}"
            )
    if declared is None:
        raise ConfigError("no classes declared in any evidence pool")
    return declared


def _new_state(
    cfg: ScenarioConfig, classes: Sequence[str], b0: Sequence[Rule], verdicts=None
) -> KnowledgeState:
    return KnowledgeState(
        b0,
        classes,
        capacity=cfg.capacity,
        policy=cfg.policy,
        coverage=cfg.coverage,
        verdicts=verdicts,
    )


def build_state(cfg: ScenarioConfig) -> KnowledgeState:
    return _new_state(cfg, scenario_classes(cfg), _load_pool(cfg.background, BACKGROUND))


def _phase_pools(cfg: ScenarioConfig) -> Pools:
    return [
        (_load_pool(p.evidence, EVIDENCE), _load_pool(p.candidates, CANDIDATE))
        for p in cfg.phases
    ]


def build_oneshot_state(cfg: ScenarioConfig) -> KnowledgeState:
    """Ingest every pool item once, in file order; no sampling.

    This is what the `graph` and `metrics` commands operate on.
    """
    state = build_state(cfg)
    for phase in cfg.phases:
        state.ingest(_load_pool(phase.evidence, EVIDENCE))
        state.ingest(_load_pool(phase.candidates, CANDIDATE))
    state.ensure_metrics()
    return state


# ---------------------------------------------------------------------------
# sampling and the scenario runner


def sample_geometric(rng: np.random.Generator, p: float) -> int:
    """Inverse-transform geometric draw on {1, 2, ...} from one uniform."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    u = float(rng.random())
    if p == 1.0:
        return 1
    return int(math.floor(math.log1p(-u) / math.log1p(-p))) + 1


def run_scenario(
    cfg: ScenarioConfig,
    out_dir: Optional[str] = None,
    seed: Optional[int] = None,
) -> Tuple[List[StepLog], KnowledgeState]:
    """Run the arrival simulation; optionally stream steps.csv as it goes."""
    state = build_state(cfg)
    pools = _phase_pools(cfg)
    return _simulate(cfg, state, pools, cfg.seed if seed is None else seed, out_dir)


def _simulate(
    cfg: ScenarioConfig, state: KnowledgeState, pools: Pools, seed: int, out_dir=None
) -> Tuple[List[StepLog], KnowledgeState]:
    rng = np.random.default_rng(seed)
    logs: List[StepLog] = []
    writer = None
    fh = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        fh = open(os.path.join(out_dir, "steps.csv"), "w", encoding="utf-8", newline="")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(step_csv_header(state.classes))
    try:
        for phase_idx, phase in enumerate(cfg.phases):
            evidence_pool, candidate_pool = pools[phase_idx]
            for _ in range(phase.steps):
                arrivals: List[Rule] = []
                for pool in (evidence_pool, candidate_pool):
                    if not pool:
                        continue
                    k = sample_geometric(rng, cfg.arrival_p)
                    for _ in range(k):
                        arrivals.append(pool[int(rng.integers(0, len(pool)))])
                log = state.step(arrivals)
                logs.append(log)
                if writer is not None:
                    writer.writerow(step_csv_row(log, state.classes))
    finally:
        if fh is not None:
            fh.close()
    if out_dir is not None:
        write_snapshot(state, os.path.join(out_dir, "state.snapshot"))
    return logs, state


# ---------------------------------------------------------------------------
# grid sweeps


def derive_cell_seed(base_seed: int, capacity: int, fraction: float, rep: int) -> int:
    """Documented integer mix for per-cell seeds (stable across runs)."""
    seq = np.random.SeedSequence(
        [int(base_seed), int(capacity), int(round(fraction * 1e6)), int(rep)]
    )
    return int(seq.generate_state(1, np.uint64)[0])


def _grid_cells(
    base: ScenarioConfig, cells: Sequence[Tuple[int, float, int]]
) -> List[Tuple[int, float, int, Optional[Tuple[str, ...]], str]]:
    """Run cells on the base scenario's inputs, loaded once, sharing one
    verdict store; unreadable input raises, a failing cell is recorded."""
    classes = scenario_classes(base)
    b0 = _load_pool(base.background, BACKGROUND)
    pools = _phase_pools(base)
    verdicts = VerdictStore()
    results = []
    for cap, frac, rep in cells:
        try:
            cfg = replace(
                base, capacity=cap, policy=replace(base.policy, forget_fraction=frac)
            )
            state = _new_state(cfg, classes, b0, verdicts)
            _simulate(cfg, state, pools, derive_cell_seed(base.seed, cap, frac, rep))
        except Exception as exc:  # recorded, grid continues
            results.append((cap, frac, rep, None, f"{type(exc).__name__}: {exc}"))
            continue
        consolidated = tuple(
            sorted(
                canonical_form(state.graph.nodes[nid])
                for nid in state.consolidated_ids()
            )
        )
        results.append((cap, frac, rep, consolidated, ""))
    return results


def run_grid(
    grid: GridConfig, jobs: int = 1
) -> Tuple[List[Tuple[int, float, str, int]], List[str]]:
    """Run every (capacity, fraction, repetition) cell; aggregate counts.

    Returns (rows, failures) with rows sorted by (capacity, fraction, rule
    canonical form); a rule appears once per cell with the number of
    repetitions that consolidated it.  Cell results are merged by this
    single writer, so serial and concurrent runs emit identical rows.
    Serially one `_grid_cells` call runs every cell; with `jobs > 1` each
    worker process runs every jobs-th cell in one call.
    """
    cells = grid.cells()
    n = min(jobs, len(cells))
    if n > 1:
        # Imported here: multiprocessing is only needed for concurrent sweeps.
        from concurrent.futures import ProcessPoolExecutor

        results: List = [None] * len(cells)
        with ProcessPoolExecutor(max_workers=n) as pool:
            chunks = [cells[i::n] for i in range(n)]
            for i, part in enumerate(pool.map(_grid_cells, [grid.base] * n, chunks)):
                results[i::n] = part
    else:
        results = _grid_cells(grid.base, cells)
    counts: Dict[Tuple[int, float, str], int] = {}
    failures: List[str] = []
    for cap, frac, rep, consolidated, error in results:
        if consolidated is None:
            failures.append(f"capacity={cap} fraction={frac} rep={rep}: {error}")
            continue
        for canon in consolidated:
            key = (cap, frac, canon)
            counts[key] = counts.get(key, 0) + 1
    rows = [
        (cap, frac, canon, n) for (cap, frac, canon), n in sorted(counts.items())
    ]
    return rows, failures


def write_heatmap_csv(rows, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["capacity", "forget_fraction", "rule_canonical_form", "consolidated_count"]
        )
        for cap, frac, canon, n in rows:
            writer.writerow([cap, repr(frac), canon, n])


# ---------------------------------------------------------------------------
# exporters


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6f}"


def step_csv_header(classes: Sequence[str]) -> List[str]:
    head = [
        "step",
        "arrivals_examples",
        "arrivals_rules",
        "population_w",
        "consolidated_count",
        "avg_opt_w",
        "avg_opt_cons",
        "n_forgotten",
        "forgotten_ids",
        "promoted_ids",
        "demoted_ids",
    ]
    head.extend(f"root_support_{c}" for c in classes)
    head.append("warnings")
    return head


def step_csv_row(log: StepLog, classes: Sequence[str]) -> List[str]:
    row = [
        str(log.step),
        str(log.arrivals_examples),
        str(log.arrivals_rules),
        str(log.population_w),
        str(log.consolidated_count),
        _fmt(log.avg_opt_w),
        _fmt(log.avg_opt_cons),
        str(log.n_forgotten),
        ";".join(str(i) for i in log.forgotten_ids),
        ";".join(str(i) for i in log.promoted_ids),
        ";".join(str(i) for i in log.demoted_ids),
    ]
    row.extend(_fmt(log.root_support[c]) for c in classes)
    row.append(";".join(log.warnings))
    return row


def metrics_csv_text(state: KnowledgeState) -> str:
    """Metrics dump: id, class, L, per-class support/lhat/opt, generics."""
    table = state.ensure_metrics()
    classes = state.classes
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    head = ["id", "class", "L"]
    for c in classes:
        head.extend([f"support_{c}", f"lhat_{c}", f"opt_{c}"])
    head.extend(["opt_generic", "perm_generic", "protected"])
    writer.writerow(head)
    for nid in sorted(state.graph.nodes):
        rule = state.graph.nodes[nid]
        row = [
            str(nid),
            rule.class_label or "",
            _fmt(state.graph.node_length(nid)),
        ]
        for c in classes:
            row.extend(
                [
                    _fmt(table.support[nid][c]),
                    _fmt(table.lhat[nid][c]),
                    _fmt(table.opt[nid][c]),
                ]
            )
        row.extend(
            [
                _fmt(table.opt_generic[nid]),
                _fmt(table.perm_generic[nid]),
                "1" if rule.protected else "0",
            ]
        )
        writer.writerow(row)
    return buf.getvalue()


_CLASS_COLORS = (
    "palegreen",
    "lightcoral",
    "lightblue",
    "khaki",
    "plum",
    "lightsalmon",
)


def export_dot(
    graph: CoverageGraph,
    table: MetricsTable,
    classes: Sequence[str],
) -> str:
    """DOT rendering of the reduced graph, deterministically ordered by id."""
    color = {
        c: _CLASS_COLORS[i % len(_CLASS_COLORS)] for i, c in enumerate(classes)
    }
    lines = ["digraph coverage {", "  rankdir=BT;"]
    for nid in sorted(graph.nodes):
        rule = graph.nodes[nid]
        attrs = [f'label="{nid}\\nopt={table.opt_generic[nid]:.3f}"']
        if rule.class_label is not None:
            attrs.append("style=filled")
            attrs.append(f'fillcolor="{color[rule.class_label]}"')
        if rule.protected:
            attrs.append("peripheries=2")
        lines.append(f"  n{nid} [{', '.join(attrs)}];")
    for u in sorted(graph.nodes):
        for v in sorted(graph.reduced[u]):
            lines.append(f"  n{u} -> n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# state snapshots


def write_snapshot(state: KnowledgeState, path: str) -> None:
    """Serialize graph nodes (rendered rules, flags, residuals) to text."""
    lines = ["#snapshot 1", "#classes " + " ".join(state.classes)]
    for nid in sorted(state.graph.nodes):
        rule = state.graph.nodes[nid]
        fields = [f"id={nid}", f"origin={rule.origin}",
                  f"protected={1 if rule.protected else 0}"]
        if rule.class_label is not None:
            fields.append(f"class={rule.class_label}")
        if rule.length_override is not None:
            fields.append(f"length={rule.length_override!r}")
        residuals = state.graph.residuals[nid]
        nonzero = {c: v for c, v in sorted(residuals.items()) if v}
        if nonzero:
            fields.append(
                "res=" + ";".join(f"{c}:{v!r}" for c, v in nonzero.items())
            )
        lines.append("#node " + " ".join(fields))
        lines.append(render_rule(rule))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class Snapshot:
    classes: Tuple[str, ...]
    rules: List[Rule]                      # snapshot ids preserved
    residuals: Dict[int, Dict[str, float]]


def _node_header(line: str) -> Tuple[Dict[str, object], Dict[str, float]]:
    """Rule fields and residuals of a `#node` line; ValueError if malformed."""
    fields: Dict[str, str] = {}
    for part in line.split()[1:]:
        key, eq, value = part.partition("=")
        if not eq:
            raise ValueError(f"{part!r} is not key=value")
        fields[key] = value
    if "id" not in fields:
        raise ValueError("missing id")
    if fields.get("origin") not in ORIGINS:
        raise ValueError(f"unknown origin {fields.get('origin')!r}")
    residuals: Dict[str, float] = {}
    for part in filter(None, fields.get("res", "").split(";")):
        label, colon, value = part.partition(":")
        if not colon:
            raise ValueError(f"residual {part!r} is not class:value")
        residuals[label] = float(value)
    return dict(
        id=int(fields["id"]),
        origin=fields["origin"],
        protected=fields.get("protected") == "1",
        class_label=fields.get("class"),
        length_override=float(fields["length"]) if "length" in fields else None,
    ), residuals


def load_snapshot(path: str) -> Snapshot:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("#snapshot"):
        raise ConfigError("not a snapshot file")
    classes: Tuple[str, ...] = ()
    rules: List[Rule] = []
    residuals: Dict[int, Dict[str, float]] = {}
    pending: Optional[Tuple[Dict[str, object], Dict[str, float]]] = None
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if line.startswith("#classes"):
            classes = tuple(line.split()[1:])
            continue
        if line.startswith("#node"):
            try:
                pending = _node_header(line)
            except ValueError as exc:
                raise ConfigError(f"line {line_no}: bad #node header: {exc}") from None
            continue
        if pending is None:
            raise ConfigError(f"clause without #node header: {line!r}")
        parsed = parse_program(line)
        if len(parsed) != 1:
            raise ConfigError(f"expected one clause, got {len(parsed)}")
        fields, res = pending
        rule = replace(parsed[0], **fields)
        rules.append(rule)
        residuals[rule.id] = res
        pending = None
    return Snapshot(classes=classes, rules=rules, residuals=residuals)


def restore_state(snapshot: Snapshot, cfg: ScenarioConfig) -> KnowledgeState:
    """Rebuild a knowledge state from a snapshot.

    Protected rules are ingested and promoted first so that the remaining
    rules' coverage is computed against the full consolidated background;
    edges themselves are recomputed, not replayed.
    """
    state = build_state(cfg)
    protected = [r for r in snapshot.rules if r.protected]
    rest = [r for r in snapshot.rules if not r.protected]
    id_map: Dict[int, int] = {}

    def ingest_batch(batch: List[Rule]) -> None:
        for rule in batch:
            new_ids = state.ingest([rule])
            if new_ids:
                id_map[rule.id] = new_ids[0]

    ingest_batch(protected)
    if protected:
        flagged = []
        for old in protected:
            nid = id_map[old.id]
            promoted = state.graph.nodes[nid].with_protection(True)
            state.graph.replace_rule(promoted)
            flagged.append(promoted)
        state.background = state.background.extended(flagged)
        state.oracle.set_background(state.background)
    ingest_batch(rest)
    for old_id, res in snapshot.residuals.items():
        nid = id_map.get(old_id)
        if nid is None:
            continue
        for c, v in res.items():
            state.graph.set_residual(nid, c, v)
    state.ensure_metrics()
    return state
