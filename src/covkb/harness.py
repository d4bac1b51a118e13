"""Scenario configuration, seeded simulation, grid sweeps and exporters.

Config files are line-oriented `key = value` text with `#` comments;
lists are comma-separated and incremental scenarios declare consecutive
`[phase]` sections, each with its own pools.  All paths are resolved
relative to the config file.  The config dataclasses check their own
values, and a bad line raises ConfigError naming the file and the line.

Reproducibility: one PCG64 generator per run, seeded from the scenario
seed, drives `_steps`, the one arrival loop; `run_scenario` writes
steps.csv and state.snapshot from its StepLogs, grid cells only drain it.
Grid cells derive their seed by feeding (base seed, capacity,
round(fraction * 1e6), repetition) into SeedSequence.  Both are
numpy-compatible (`numpy.random.default_rng` and
`numpy.random.SeedSequence` draw the same values), implemented in
`covkb.rng` and pinned by tests/test_rng.py.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .covgraph import CoverageGraph
from .deduce import DeriveLimits, VerdictStore
from .lifecycle import (
    AVG_OPT,
    AVG_OPT_CLAMPED,
    FIXED,
    KnowledgeState,
    Policy,
    StepLog,
    Threshold,
)
from .metrics import MetricsTable, compute_permanence
from .parser import ParseError, parse_program, scan_classes
from .rng import PCG64, seed_words
from .rules import (
    BACKGROUND,
    CANDIDATE,
    EVIDENCE,
    Rule,
    canonical_form,  # noqa: F401  (unused here; perfbench/tracing.py wraps it)
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

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    arrival_p: float = 0.5
    capacity: int = 0
    policy: Policy = field(default_factory=Policy)
    limits: DeriveLimits = field(default_factory=DeriveLimits)
    background: Optional[str] = None
    phases: Tuple[PhaseConfig, ...] = ()

    def __post_init__(self):
        # The largest geometric draw is about 36.7 / arrival_p arrivals.
        if not 1e-3 <= self.arrival_p <= 1.0:
            raise ValueError("arrival_p must lie in [0.001, 1]")
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0 (0 means unbounded)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

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

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        for key, values in (("capacities", self.capacities), ("fractions", self.fractions)):
            if len(set(values)) != len(values):
                raise ValueError(f"{key} repeats a value")

    def cells(self) -> List[Tuple[int, float, int]]:
        return [
            (cap, frac, rep)
            for cap in self.capacities
            for frac in self.fractions
            for rep in range(self.repetitions)
        ]


def _cell_config(base: ScenarioConfig, capacity: int, fraction: float) -> ScenarioConfig:
    """One grid cell's scenario; ValueError if either value is out of range."""
    return replace(base, capacity=capacity, policy=replace(base.policy, forget_fraction=fraction))


# ---------------------------------------------------------------------------
# config file parsing


def _at(path: str, line_no: int, reason: object) -> ConfigError:
    return ConfigError(f"{path}: line {line_no}: {reason}")


def _config_lines(path: str, what: str):
    """Yield (key, value, line_no) for each line of config file `path`; a
    `[name]` section header yields (None, name, line_no)."""
    for line_no, raw in enumerate(_read(path, what).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            yield None, line[1:-1].strip(), line_no
            continue
        if "=" not in line:
            raise _at(path, line_no, "expected key = value")
        key, value = line.split("=", 1)
        yield key.strip(), value.strip(), line_no


def _read(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {what}: {path} is not UTF-8: {exc}")


def make_out_dir(path: str) -> None:
    """Create the output directory `path` if missing; ConfigError if it cannot be."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from None


def _parse_threshold(text: str) -> Threshold:
    if text in (AVG_OPT, AVG_OPT_CLAMPED):
        return Threshold(text)
    if text.startswith("fixed:"):
        try:
            return Threshold(FIXED, float(text.split(":", 1)[1]))
        except ValueError:
            raise ValueError(f"bad fixed threshold {text!r}") from None
    raise ValueError(f"unknown threshold mode {text!r}")


# Scenario key -> (field path, converter); a None converter marks a path,
# resolved relative to the scenario file.  The dataclasses along the field
# path check the value.  Phase keys set a PhaseConfig field: the current
# [phase] section's, or the top level's in a scenario without sections.
_PHASE_KEYS = {"steps", "evidence", "candidates"}
_SCENARIO_KEYS = {
    "seed": ("seed", int),
    "arrival_p": ("arrival_p", float),
    "capacity": ("capacity", int),
    "beta": ("policy.beta", float),
    "forget_fraction": ("policy.forget_fraction", float),
    "theta_p_mode": ("policy.theta_p", _parse_threshold),
    "theta_d_mode": ("policy.theta_d", _parse_threshold),
    "consolidation_class": ("policy.consolidation_class", str),
    "max_depth": ("limits.max_depth", int),
    "max_facts": ("limits.max_facts", int),
    "max_term_depth": ("limits.max_term_depth", int),
    "background": ("background", None),
    "steps": ("steps", int),
    "evidence": ("evidence", None),
    "candidates": ("candidates", None),
}


def _set(obj, path: str, value):
    """`obj` with dotted field `path` set to `value`, checked by each dataclass on the way."""
    name, _, rest = path.partition(".")
    if rest:
        value = _set(getattr(obj, name), rest, value)
    return replace(obj, **{name: value})


def load_scenario(path: str) -> ScenarioConfig:
    """Read a `.scn` file; a bad line raises ConfigError naming file and line."""
    base_dir = os.path.dirname(os.path.abspath(path))
    cfg = ScenarioConfig()
    phases = [PhaseConfig(steps=0)]  # the top level's, then one per [phase]
    sections = [(set(), 0)]  # per phase: the keys it sets, its header line
    for key, text, line_no in _config_lines(path, "scenario file"):
        if key is None:
            if text != "phase":
                raise _at(path, line_no, f"unknown section [{text}]")
            if len(phases) == 1 and sections[0][0] & _PHASE_KEYS:
                raise _at(path, line_no,
                          "top-level steps/evidence/candidates clash with [phase] sections")
            phases.append(PhaseConfig(steps=0))
            sections.append((set(), line_no))
            continue
        keys = sections[-1][0]
        if key in keys:
            raise _at(path, line_no, f"duplicate key {key!r}")
        keys.add(key)
        if key not in (_PHASE_KEYS if len(phases) > 1 else _SCENARIO_KEYS):
            where = "[phase]" if len(phases) > 1 else "scenario"
            raise _at(path, line_no, f"unknown {where} key {key!r}")
        field_path, conv = _SCENARIO_KEYS[key]
        try:
            value = os.path.join(base_dir, text) if conv is None else conv(text)
            if key in _PHASE_KEYS:
                phases[-1] = _set(phases[-1], field_path, value)
            else:
                cfg = _set(cfg, field_path, value)
        except ValueError as exc:
            raise _at(path, line_no, exc) from None
    for keys, line_no in sections[1:] or sections:
        if "steps" not in keys:
            section = f"line {line_no}: [phase]" if line_no else "scenario"
            raise ConfigError(f"{path}: {section} is missing steps")
    return replace(cfg, phases=tuple(phases[1:] or phases))


_GRID_KEYS = ("scenario", "capacities", "fractions", "repetitions")


def load_grid(path: str) -> GridConfig:
    """Read a `.grid` file; a bad line raises ConfigError naming file and line.

    Each capacity and fraction is checked once, as a cell of the base
    scenario that keeps the base's other value."""
    lines: Dict[str, Tuple[str, int]] = {}
    for key, text, line_no in _config_lines(path, "grid file"):
        if key is None:
            raise _at(path, line_no, "grid files have no sections")
        if key not in _GRID_KEYS:
            raise _at(path, line_no, f"unknown grid key {key!r}")
        if key in lines:
            raise _at(path, line_no, f"duplicate key {key!r}")
        lines[key] = text, line_no
    missing = [key for key in _GRID_KEYS if key not in lines]
    if missing:
        raise ConfigError(f"{path}: grid file is missing {', '.join(missing)}")
    base = load_scenario(os.path.join(os.path.dirname(os.path.abspath(path)), lines["scenario"][0]))
    capacity, fraction = base.capacity, base.policy.forget_fraction
    # A list value passes through the base cell it changes, which checks it.
    cell_value = {
        "capacities": lambda x: _cell_config(base, int(x), fraction).capacity,
        "fractions": lambda x: _cell_config(base, capacity, float(x)).policy.forget_fraction,
    }
    grid = GridConfig(base, (capacity,), (fraction,), 1, base.seed)
    for key in _GRID_KEYS[1:]:
        text, line_no = lines[key]
        try:
            if key == "repetitions":
                value = int(text)
            else:
                value = tuple(map(cell_value[key], text.split(",")))
            grid = replace(grid, **{key: value})
        except ValueError as exc:
            raise _at(path, line_no, exc) from None
    return grid


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
    """Class tokens declared by the evidence pools, which must agree; errors name the pools."""
    paths = [phase.evidence for phase in cfg.phases if phase.evidence is not None]
    pools = f" (evidence pools: {', '.join(paths) or 'none'})"
    declared: Optional[Tuple[str, ...]] = None
    for path in paths:
        classes = scan_classes(_read(path, "pool file"))
        if not classes:
            continue
        if declared is None:
            declared = classes
        elif set(declared) != set(classes):
            raise ConfigError(f"class sets disagree across pools: {declared} vs {classes}{pools}")
    if declared is None:
        raise ConfigError("no classes declared in any evidence pool" + pools)
    wanted = cfg.policy.consolidation_class
    if wanted is not None and wanted not in declared:
        raise ConfigError(f"consolidation_class {wanted!r} is not a declared class {declared}{pools}")
    return declared


def _new_state(
    cfg: ScenarioConfig, classes: Sequence[str], b0: Sequence[Rule], verdicts=None
) -> KnowledgeState:
    return KnowledgeState(
        b0,
        classes,
        capacity=cfg.capacity,
        policy=cfg.policy,
        limits=cfg.limits,
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
    for evidence, candidates in _phase_pools(cfg):
        state.ingest(evidence)
        state.ingest(candidates)
    state.ensure_metrics()
    return state


# ---------------------------------------------------------------------------
# sampling and the scenario runner


def sample_geometric(rng: PCG64, p: float) -> int:
    """Inverse-transform geometric draw on {1, 2, ...} from one uniform."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    u = rng.random()
    if p == 1.0:
        return 1
    return int(math.floor(math.log1p(-u) / math.log1p(-p))) + 1


def _steps(
    cfg: ScenarioConfig, state: KnowledgeState, pools: Pools, rng: PCG64
) -> Iterator[StepLog]:
    """Yield each step's log, keeping none.  Per step and non-empty pool
    (evidence, then candidates) `rng` draws the arrival count, then that
    many pool indices; a run's position is `state.step_count` and `rng`."""
    for phase, phase_pools in zip(cfg.phases, pools):
        for _ in range(phase.steps):
            arrivals = [pool[rng.integers(0, len(pool))]
                        for pool in phase_pools if pool
                        for _ in range(sample_geometric(rng, cfg.arrival_p))]
            yield state.step(arrivals)


def run_scenario(
    cfg: ScenarioConfig,
    out_dir: Optional[str] = None,
    seed: Optional[int] = None,
) -> Tuple[List[StepLog], KnowledgeState]:
    """Run the simulation; with `out_dir`, stream steps.csv, then write state.snapshot.

    `seed` overrides `cfg.seed` (ValueError if out of range).
    """
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    state = build_state(cfg)
    steps = _steps(cfg, state, _phase_pools(cfg), PCG64(cfg.seed))
    if out_dir is None:
        return list(steps), state
    make_out_dir(out_dir)
    logs = []
    with open(os.path.join(out_dir, "steps.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(step_csv_header(state.classes))
        for log in steps:
            logs.append(log)
            writer.writerow(step_csv_row(log, state.classes))
    write_snapshot(state, os.path.join(out_dir, "state.snapshot"))
    return logs, state


# ---------------------------------------------------------------------------
# grid sweeps


def derive_cell_seed(base_seed: int, capacity: int, fraction: float, rep: int) -> int:
    """Documented integer mix for per-cell seeds (stable across runs)."""
    return seed_words(
        [int(base_seed), int(capacity), int(round(fraction * 1e6)), int(rep)], 1
    )[0]


def _grid_cells(
    grid: GridConfig, cells: Sequence[Tuple[int, float, int]]
) -> List[Tuple[int, float, int, Optional[Tuple[str, ...]], str]]:
    """Run cells on the base scenario's inputs, loaded once, sharing one
    verdict store; unreadable input raises, a failing cell is recorded."""
    classes = scenario_classes(grid.base)
    b0 = _load_pool(grid.base.background, BACKGROUND)
    pools = _phase_pools(grid.base)
    verdicts = VerdictStore()
    results = []
    for cap, frac, rep in cells:
        try:
            cfg = _cell_config(grid.base, cap, frac)
            state = _new_state(cfg, classes, b0, verdicts)
            rng = PCG64(derive_cell_seed(grid.base_seed, cap, frac, rep))
            for _ in _steps(cfg, state, pools, rng):  # drained: a cell writes nothing
                pass
        except Exception as exc:  # recorded, grid continues
            results.append((cap, frac, rep, None, f"{type(exc).__name__}: {exc}"))
            continue
        consolidated = tuple(
            sorted(state.oracle.canon(state.graph.nodes[nid]) for nid in state.consolidated_ids())
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
            for i, part in enumerate(pool.map(_grid_cells, [grid] * n, chunks)):
                results[i::n] = part
    else:
        results = _grid_cells(grid, cells)
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
    """Metrics dump: id, class, L, per-class support/lhat (support - L)/opt, generics."""
    table = state.ensure_metrics()
    classes = state.classes
    _, perm = compute_permanence(state.graph, table, classes)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    head = ["id", "class", "L"]
    for c in classes:
        head.extend([f"support_{c}", f"lhat_{c}", f"opt_{c}"])
    head.extend(["opt_generic", "perm_generic", "protected"])
    writer.writerow(head)
    for nid in sorted(state.graph.nodes):
        rule = state.graph.nodes[nid]
        length = state.graph.node_length(nid)
        row = [str(nid), rule.class_label or "", _fmt(length)]
        for c in classes:
            support = table.support[nid][c]
            row.extend([_fmt(support), _fmt(support - length), _fmt(table.opt[nid][c])])
        row.extend(
            [
                _fmt(table.opt_generic[nid]),
                _fmt(perm[nid]),
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
# state snapshot


def write_snapshot(state: KnowledgeState, path: str) -> None:
    """Record the final graph nodes (rendered rules, flags, residuals) as
    text: an output only, with no RNG state or step counter to resume from."""
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
