"""In-memory span recorder wrapped around covkb's public functions.

`install(tracer)` replaces each layer's public functions and methods with
wrappers from this file; nothing inside covkb changes.  Each call becomes
a span with a name, start, end and parent.  A span's self time is its
duration minus the time its child spans cover, and a layer's self time
is the sum over its spans.  Counter hooks run after a span has ended; their
cost is left out of every layer's self time and reported as
`trace.hook_s`.

The wrappers cost about a microsecond per call, which is the tracing
overhead the traced run reports; it is largest where calls are small and
many (`rules.rule_length`).
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Optional

LAYERS = ("parser", "rules", "deduce", "covgraph", "metrics", "lifecycle", "harness")

ORACLE_WORK = ("deduce.theta_subsumes", "deduce.general_fires", "deduce.covers")
LIMIT_MARKERS = ("max_facts", "round cap")


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        self.total_ns: List[int] = []
        self.hook_ns = 0
        self.counters: Dict[str, float] = {}
        self._stack: List[list] = []   # [span id, ns covered by children]

    def name_id(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.total_ns.append(0)
        return idx

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn: Callable,
             hook: Optional[Callable] = None) -> Callable:
        idx = self.name_id(name)
        clock = time.perf_counter_ns
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        tracer = self

        def close(sid: int, frame: list, t0: int, t1: int, t2: int) -> None:
            span_end[sid] = t1
            stack.pop()
            calls[idx] += 1
            total_ns[idx] += t1 - t0
            self_ns[idx] += t1 - t0 - frame[1]
            tracer.hook_ns += t2 - t1
            if stack:
                stack[-1][1] += t2 - t0

        def traced(*args, **kwargs):
            sid = len(span_name)
            span_name.append(idx)
            span_parent.append(stack[-1][0] if stack else -1)
            span_end.append(0)
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                close(sid, frame, t0, t1, t1)
                raise
            t1 = clock()
            if hook is not None:
                hook(result, args, sid)
            close(sid, frame, t0, t1, clock() if hook is not None else t1)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -------------------------------------------------------------

    def calls_of(self, name: str) -> int:
        idx = self._index.get(name)
        return 0 if idx is None else self.calls[idx]

    def total_s(self, name: str) -> float:
        idx = self._index.get(name)
        return 0.0 if idx is None else self.total_ns[idx] / 1e9

    def self_s_of(self, name: str) -> float:
        idx = self._index.get(name)
        return 0.0 if idx is None else self.self_ns[idx] / 1e9

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for idx, name in enumerate(self.names):
            out[name.split(".", 1)[0]] += self.self_ns[idx] / 1e9
        return out

    def write(self, path: str) -> None:
        """Write the spans as `id,parent,name,start_ns,end_ns` lines."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid in range(len(self.span_name)):
                fh.write(f"{sid},{self.span_parent[sid]},{names[self.span_name[sid]]},"
                         f"{self.span_start[sid]},{self.span_end[sid]}\n")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the public functions of every covkb layer; returns the undo."""
    from covkb import covgraph, deduce, harness, lifecycle, metrics

    t = tracer
    originals = []

    def _patch(owner, attr: str, name: str, hook=None) -> None:
        fn = getattr(owner, attr)
        originals.append((owner, attr, fn))
        setattr(owner, attr, t.wrap(name, fn, hook))

    # parser: called by the harness when it loads pools and classes
    def parsed(result, args, sid):
        t.count("parser.clauses", len(result))
    _patch(harness, "parse_program", "parser.parse_program", parsed)
    _patch(harness, "scan_classes", "parser.scan_classes")

    # rules: lengths are asked for by the graph and the metrics through
    # covgraph's import; canonical forms by the lifecycle, oracle, harness
    _patch(covgraph, "rule_length", "rules.rule_length")
    canonical = t.wrap("rules.canonical_form", deduce.canonical_form)
    for module in (lifecycle, deduce, harness):
        originals.append((module, "canonical_form", module.canonical_form))
        module.canonical_form = canonical

    # deduce: a covers_pair call is a cache hit when no span under it
    # reached theta-subsumption, firing or derivation
    work_ids = {t.name_id(n) for n in ORACLE_WORK}
    _patch(deduce, "theta_subsumes", "deduce.theta_subsumes")
    _patch(deduce, "general_fires", "deduce.general_fires")
    _patch(deduce, "covers", "deduce.covers")
    _patch(deduce, "forward_closure", "deduce.forward_closure")
    _patch(deduce, "extend_closure", "deduce.extend_closure")
    _patch(deduce.CoverageOracle, "set_background", "deduce.set_background")

    def pair_done(result, args, sid):
        if not any(n in work_ids for n in t.span_name[sid + 1:]):
            t.count("deduce.pair_hits")
        if result:
            t.count("deduce.covered")
    _patch(deduce.CoverageOracle, "covers_pair", "deduce.covers_pair", pair_done)

    # covgraph
    graph_cls = covgraph.CoverageGraph
    for attr in ("insert_rule", "remove_rule", "replace_rule", "topological_order"):
        _patch(graph_cls, attr, f"covgraph.{attr}")

    # metrics: the lifecycle scores through its own import of compute_table
    previous = {}

    def scored(result, args, sid):
        graph = args[0]
        signature = (
            tuple(sorted(graph.nodes)),
            tuple(tuple(sorted(graph.reduced[v])) for v in sorted(graph.nodes)),
            tuple(sorted((v, tuple(sorted(r.items())))
                         for v, r in graph.residuals.items() if r)),
        )
        if previous.get("graph") is graph and previous.get("signature") == signature:
            t.count("metrics.redundant")
        previous["graph"], previous["signature"] = graph, signature
    _patch(lifecycle, "compute_table", "metrics.compute_table", scored)
    _patch(metrics, "compute_support", "metrics.compute_support")

    # lifecycle
    def stepped(log, args, sid):
        state, arrivals = args[0], args[1]
        t.count("lifecycle.steps")
        t.count("lifecycle.arrivals", len(arrivals))
        t.count("lifecycle.inserted", len(log.inserted_ids))
        t.count("lifecycle.forgotten", log.n_forgotten)
        t.count("lifecycle.promoted", len(log.promoted_ids))
        t.count("lifecycle.demoted", len(log.demoted_ids))
        t.count("lifecycle.bg_changes", bool(log.promoted_ids) + bool(log.demoted_ids))
        t.count("deduce.limit_warnings", sum(
            1 for w in log.warnings if any(m in w for m in LIMIT_MARKERS)))
        graph = state.graph
        t.counters["covgraph.nodes_max"] = max(
            t.counters.get("covgraph.nodes_max", 0), len(graph))
        t.count("covgraph.full_edges_sum", sum(len(e) for e in graph.full.values()))
        t.count("covgraph.reduced_edges_sum", sum(len(e) for e in graph.reduced.values()))
    ks = lifecycle.KnowledgeState
    _patch(ks, "step", "lifecycle.step", stepped)
    for attr in ("ingest", "forget_step", "promote_pass", "demote_pass"):
        _patch(ks, attr, f"lifecycle.{attr}")

    # harness
    for attr in ("load_scenario", "load_grid", "build_state", "run_scenario",
                 "run_grid", "write_snapshot", "write_heatmap_csv"):
        _patch(harness, attr, f"harness.{attr}")

    def undo() -> None:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
    return undo


def layer_metrics(t: Tracer, wall_traced: float, wall_untraced: float,
                  bytes_written: int) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    c = t.counters.get
    steps = c("lifecycle.steps", 0)
    inserted = c("lifecycle.inserted", 0)
    pairs = t.calls_of("deduce.covers_pair")
    passes = t.calls_of("metrics.compute_table")
    inserts = t.calls_of("covgraph.insert_rule")
    removes = t.calls_of("covgraph.remove_rule")
    layer_self = t.layer_self_s()

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update({
        "parser.clauses": c("parser.clauses", 0),
        "rules.length_calls": t.calls_of("rules.rule_length"),
        "rules.canonical_calls": t.calls_of("rules.canonical_form"),
        "rules.length_calls_per_node": ratio(t.calls_of("rules.rule_length"), inserted),
        "deduce.pairs": pairs,
        "deduce.pair_hit_frac": ratio(c("deduce.pair_hits", 0), pairs),
        "deduce.covered_frac": ratio(c("deduce.covered", 0), pairs),
        "deduce.theta_calls": t.calls_of("deduce.theta_subsumes"),
        "deduce.theta_s": t.total_s("deduce.theta_subsumes"),
        "deduce.fires_calls": t.calls_of("deduce.general_fires"),
        "deduce.fires_s": t.total_s("deduce.general_fires"),
        "deduce.saturations": t.calls_of("deduce.forward_closure"),
        "deduce.saturate_s": t.total_s("deduce.forward_closure"),
        "deduce.extends": t.calls_of("deduce.extend_closure"),
        "deduce.extend_s": t.total_s("deduce.extend_closure"),
        "deduce.limit_warnings": c("deduce.limit_warnings", 0),
        "covgraph.inserts": inserts,
        "covgraph.removes": removes,
        "covgraph.insert_self_ms": ratio(t.self_s_of("covgraph.insert_rule") * 1e3, inserts),
        "covgraph.remove_self_ms": ratio(t.self_s_of("covgraph.remove_rule") * 1e3, removes),
        "covgraph.nodes_max": c("covgraph.nodes_max", 0),
        "covgraph.full_edges": ratio(c("covgraph.full_edges_sum", 0), steps),
        "covgraph.reduced_edges": ratio(c("covgraph.reduced_edges_sum", 0), steps),
        "metrics.passes": passes,
        "metrics.passes_per_step": ratio(passes, steps),
        "metrics.redundant_frac": ratio(c("metrics.redundant", 0), passes),
        "lifecycle.arrivals": c("lifecycle.arrivals", 0),
        "lifecycle.inserted_frac": ratio(inserted, c("lifecycle.arrivals", 0)),
        "lifecycle.forgotten": c("lifecycle.forgotten", 0),
        "lifecycle.promoted": c("lifecycle.promoted", 0),
        "lifecycle.demoted": c("lifecycle.demoted", 0),
        "lifecycle.bg_changes": c("lifecycle.bg_changes", 0),
        "harness.bytes_written": bytes_written,
        "trace.spans": len(t.span_name),
        "trace.hook_s": t.hook_ns / 1e9,
        "trace.unaccounted_frac": ratio(wall_traced - sum(layer_self.values()), wall_traced),
        "trace.overhead_frac": ratio(wall_traced - wall_untraced, wall_untraced),
    })
    return out
