"""Test-only reference oracles, independent of the library's fast paths."""

import itertools
from collections import defaultdict, deque
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from covkb.covgraph import CoverageGraph, transitive_reduce
from covkb.deduce import (
    Background, DeriveLimits, FactStore, LimitExceeded, _ground, _key, _shape, _walk, flat_clause,
    forward_closure,
)
from covkb.rules import (
    CANDIDATE, EVIDENCE, Atom, Compound, Rule, Term, Var, canonical_var, rename_atom, rule_length,
)

ClassVector = Dict[str, float]


class _EdgeListOracle:
    """Coverage oracle that answers from a fixed (general, specific) list."""

    def __init__(self, edges: Iterable[Tuple[int, int]]):
        self.edges = set(edges)

    def covers_pair(self, general: Rule, specific: Rule) -> bool:
        return (general.id, specific.id) in self.edges

    def head_forms(self, rule: Rule) -> Tuple[None]:
        return (None,)  # one key for every rule: every pair is asked

    def record(self, rule: Rule, make):
        return make()  # no records kept: every node computes its own


def graph_from_structure(
    specs: Mapping[int, Tuple[Optional[str], float]],
    edges: Iterable[Tuple[int, int]],
) -> CoverageGraph:
    """Graph over `node(<id>)` rules from (class-label, length) specs.

    The nodes are inserted in spec order through `insert_rule`, against an
    oracle that answers from `edges`, so cycle repair and reduction run as
    they do at runtime.  Labelled nodes are evidence, which covers nothing,
    so an edge out of one is refused rather than silently dropped.
    """
    edges = list(edges)
    for u, v in edges:
        if u not in specs or v not in specs or u == v:
            raise ValueError(f"edge ({u},{v}) is a self edge or names an unknown node")
        if specs[u][0] is not None:
            raise ValueError(f"edge ({u},{v}) leaves labelled node {u}")
    oracle = _EdgeListOracle(edges)
    g = CoverageGraph()
    for nid, (label, length) in specs.items():
        g.insert_rule(node_rule(nid, label, length), oracle)
    return g


def node_rule(nid: int, label: Optional[str], length: float) -> Rule:
    """The fact `node(<nid>)`: evidence of class `label`, or a candidate."""
    return Rule(
        id=nid,
        head=Atom("node", (Compound(str(nid)),)),
        class_label=label,
        length_override=float(length),
        origin=EVIDENCE if label is not None else CANDIDATE,
    )


def reference_full(rules: Iterable[Rule], oracle) -> Dict[int, Set[int]]:
    """The full relation a global pass gives over `rules`.

    The pairwise relation, less each edge u->w that lies on a cycle (w
    reaches u) unless u comes before w in (length, id) order.
    """
    rules = list(rules)
    pairwise: Dict[int, Set[int]] = {
        g.id: {
            s.id for s in rules
            if s.id != g.id and g.origin != EVIDENCE and oracle.covers_pair(g, s)
        }
        for g in rules
    }

    def reaches(src: int, dst: int) -> bool:
        seen, stack = {src}, [src]
        while stack:
            for w in pairwise[stack.pop()]:
                if w == dst:
                    return True
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    rank = {r.id: (rule_length(r), r.id) for r in rules}
    return {
        u: {w for w in targets if rank[u] < rank[w] or not reaches(w, u)}
        for u, targets in pairwise.items()
    }


def closure(ids, edges):
    """Each start's set of nodes reached over `edges` in one or more steps."""
    out = {}
    for start in ids:
        seen, queue = set(), deque(edges.get(start, ()))
        while queue:
            x = queue.popleft()
            if x in seen:
                continue
            seen.add(x)
            queue.extend(edges.get(x, ()))
        out[start] = seen
    return out


def assert_structure_exact(g):
    """reduced, parents and descendant masks equal a from-scratch pass."""
    ids = sorted(g.nodes)
    assert g.reduced == transitive_reduce(ids, g.full)
    assert g.parents == {v: {u for u in ids if v in g.reduced[u]} for v in ids}
    reach = closure(ids, g.full)
    assert g.desc == {v: sum(1 << w for w in reach[v]) for v in ids}


def reference_permanence(
    graph: CoverageGraph,
    opt: Mapping[int, ClassVector],
    classes: Sequence[str],
) -> Tuple[Dict[int, ClassVector], Dict[int, float]]:
    """Per-class permanence and its generic max, node by node: `opt` less
    the max of `opt` over every strict ancestor (the nodes whose `desc`
    mask holds the node), where a max below 0 or over no ancestor counts 0."""
    perm: Dict[int, ClassVector] = {}
    generic: Dict[int, float] = {}
    for v in graph.nodes:
        above = [u for u in graph.nodes if graph.desc[u] >> v & 1]
        perm[v] = {
            c: opt[v][c] - max([0.0] + [opt[u][c] for u in above]) for c in classes
        }
        generic[v] = max(perm[v].values())
    return perm, generic


class SizeCapExceeded(Exception):
    """The brute-force oracle refuses graphs past its size cap."""


def brute_force_support(
    graph: CoverageGraph,
    classes: Sequence[str],
    lengths: Optional[Mapping[int, float]] = None,
    size_cap: int = 12,
) -> Dict[int, ClassVector]:
    """Independent support oracle by explicit path enumeration.

    Every mass source (a labelled sink's length, any node's residual) is
    pushed upward along every reduced-edge path separately; the weight of a
    path is the product of 1/|anc(hop target)| over its hops.  Exponential,
    hence the size cap.
    """
    if len(graph) > size_cap:
        raise SizeCapExceeded(f"{len(graph)} nodes exceeds cap {size_cap}")
    lengths = graph.lengths if lengths is None else lengths

    def spread(start: int) -> Dict[int, float]:
        reached: Dict[int, float] = {}

        def climb(node: int, weight: float) -> None:
            reached[node] = reached.get(node, 0.0) + weight
            parents = graph.anc(node)
            if parents:
                share = weight / len(parents)
                for p in parents:
                    climb(p, share)

        climb(start, 1.0)
        return reached

    support: Dict[int, ClassVector] = {
        nid: {c: 0.0 for c in classes} for nid in graph.nodes
    }
    for source in graph.nodes:
        rule = graph.nodes[source]
        masses: ClassVector = {}
        for c in classes:
            res = graph.residual(source, c)
            if res:
                masses[c] = masses.get(c, 0.0) + res
        if not graph.suc(source) and rule.class_label is not None:
            masses[rule.class_label] = (
                masses.get(rule.class_label, 0.0) + lengths[source]
            )
        if not masses:
            continue
        reached = spread(source)
        for node, weight in reached.items():
            row = support[node]
            for c, m in masses.items():
                row[c] += m * weight
    return support


def match(pattern: Term, target: Term, subst: Dict[str, Term]) -> Optional[Dict[str, Term]]:
    """One-way matching on Atom-level terms: only `pattern` variables bind;
    `target` is rigid.

    Target variables behave as opaque constants (a pattern variable may
    bind to one).  Bindings are compared structurally, never walked, so
    accidental name sharing between the two sides is harmless.
    """
    if isinstance(pattern, Var):
        bound = subst.get(pattern.name)
        if bound is not None:
            return subst if bound == target else None
        out = dict(subst)
        out[pattern.name] = target
        return out
    if isinstance(target, Var):
        return None
    if pattern.functor != target.functor or len(pattern.args) != len(target.args):
        return None
    for x, y in zip(pattern.args, target.args):
        subst = match(x, y, subst)
        if subst is None:
            return None
    return subst


def match_atom(pattern: Atom, target: Atom, subst: Dict[str, Term]) -> Optional[Dict[str, Term]]:
    if pattern.pred != target.pred or pattern.arity != target.arity:
        return None
    for x, y in zip(pattern.args, target.args):
        subst = match(x, y, subst)
        if subst is None:
            return None
    return subst


def reference_theta_subsumes(general: Rule, specific: Rule) -> bool:
    """Theta-subsumption on the parsed Atoms, the reference for the flat
    `deduce.theta_subsumes`: some substitution maps general's head onto
    specific's head and every general body atom into specific's body
    (order-free); specific's variables are rigid."""
    subst = match_atom(general.head, specific.head, {})
    if subst is None:
        return False
    body = specific.body

    def search(i: int, subst) -> bool:
        if i == len(general.body):
            return True
        pattern = general.body[i]
        for target in body:
            nxt = match_atom(pattern, target, subst)
            if nxt is not None and search(i + 1, nxt):
                return True
        return False

    return search(0, subst)


def flat_atom(atom: Atom) -> tuple:
    """The flat atom the library makes of `atom`, through `deduce.flat_clause`."""
    return flat_clause(Rule(0, atom))[0]


def background_atoms(bg: Background) -> Tuple[List[Rule], List[Atom]]:
    """The clauses with a body and the facts' heads of `bg.rules`, as parsed:
    what the Atom-level references read where the library reads the flat
    `bg.clauses` and `bg.facts`."""
    return [r for r in bg.rules if not r.is_fact], [r.head for r in bg.rules if r.is_fact]


def derives_goal(
    bg: Background,
    extra: Sequence[Rule],
    goal: Atom,
    limits: DeriveLimits = DeriveLimits(),
) -> bool:
    """True iff ground `goal` follows from bg plus `extra` within limits:
    a full saturation, then a lookup for a fact that `goal` is an instance of."""
    store = forward_closure(bg.extended(extra), limits=limits)
    return any(match_atom(atom_of(f), goal, {}) is not None
               for f in store.candidates(flat_atom(goal)))


def is_variant(a: Atom, b: Atom) -> bool:
    """Brute force: a bijection between the variables maps `a` onto `b`."""
    there: Dict[str, str] = {}
    back: Dict[str, str] = {}

    def same(x, y):
        if isinstance(x, Var) or isinstance(y, Var):
            return (isinstance(x, Var) and isinstance(y, Var)
                    and there.setdefault(x.name, y.name) == y.name
                    and back.setdefault(y.name, x.name) == x.name)
        return (x.functor == y.functor and len(x.args) == len(y.args)
                and all(map(same, x.args, y.args)))

    return a.pred == b.pred and len(a.args) == len(b.args) and all(map(same, a.args, b.args))


def same_facts_modulo_variants(a: Sequence[Atom], b: Sequence[Atom]) -> bool:
    """True iff `is_variant` pairs the facts of `a` one to one with those
    of `b`; each side must hold no two variants of one fact."""
    def skeleton(atom):
        return rename_atom(atom, {}, lambda _: Var("_"))

    buckets: Dict[Atom, List[Atom]] = {}
    for atom in b:
        buckets.setdefault(skeleton(atom), []).append(atom)
    for atom in a:
        bucket = buckets.get(skeleton(atom), [])
        hit = next((i for i, other in enumerate(bucket) if is_variant(atom, other)), None)
        if hit is None:
            return False
        bucket.pop(hit)
    return not any(buckets.values())


# -- the Atom-level reference for the library's flat forward chaining ----------


def term_of(t) -> Term:
    """The Term a flat term encodes (see `deduce.flat_clause`)."""
    if isinstance(t, Var):
        return t
    if isinstance(t, str):
        return Compound(t)
    return Compound(t[0], tuple(map(term_of, t[1:])))


def atom_of(fact) -> Atom:
    """The Atom a flat fact encodes."""
    return Atom(fact[0], tuple(map(term_of, fact[1:])))


def stored_atoms(store: FactStore) -> List[Atom]:
    """Every fact of a library store, decoded."""
    return [atom_of(f) for facts in store.by_pred.values() for f in facts]


def reference_resolve(t, subst: dict):
    """Flat `t` with each bound variable replaced by its binding, recursively."""
    t = _walk(t, subst)
    if type(t) is tuple:
        return tuple([a if type(a) is str else reference_resolve(a, subst) for a in t])
    return t


def reference_depth(t) -> int:
    """Nesting depth of a flat term: a constant or variable is 1, a compound
    (or an atom) one more than its deepest part."""
    return 1 + max(map(reference_depth, t)) if type(t) is tuple else 1


def reference_add(store: FactStore, fact: tuple) -> bool:
    """`FactStore.add` that builds every fact's shape, ground or not."""
    pkey, parts = _key(fact), []
    shape = _shape(fact, parts, {})
    facts, key = store._shapes.setdefault(pkey, {}).setdefault(shape, {}), tuple(parts)
    if key in facts:
        return False
    facts[key] = fact
    if shape is not None:
        store.open.add(id(fact))
    store.by_pred.setdefault(pkey, []).append(fact)
    slots = store._index.get(pkey) or store._index.setdefault(
        pkey, [defaultdict(list) for _ in fact[1:]])
    for slot, arg in zip(slots, fact[1:]):
        slot[arg if shape is None or _ground(arg) else None].append(fact)
    store.count += 1
    return True


def walk(term: Term, subst: Dict[str, Term]) -> Term:
    while isinstance(term, Var) and term.name in subst:
        term = subst[term.name]
    return term


def apply_subst(term: Term, subst: Dict[str, Term]) -> Term:
    term = walk(term, subst)
    if isinstance(term, Var) or not term.args:
        return term
    return Compound(term.functor, tuple(apply_subst(a, subst) for a in term.args))


def apply_subst_atom(atom: Atom, subst: Dict[str, Term]) -> Atom:
    return Atom(atom.pred, tuple(apply_subst(a, subst) for a in atom.args))


def is_ground(term: Term) -> bool:
    if isinstance(term, Var):
        return False
    return all(is_ground(a) for a in term.args)


def term_depth(term: Term) -> int:
    """Nesting depth; variables and constants count 1."""
    if isinstance(term, Var) or not term.args:
        return 1
    return 1 + max(term_depth(a) for a in term.args)


def _occurs(name: str, term: Term, subst: Dict[str, Term]) -> bool:
    term = walk(term, subst)
    if isinstance(term, Var):
        return term.name == name
    return any(_occurs(name, a, subst) for a in term.args)


def unify(a: Term, b: Term, subst: Dict[str, Term]) -> Optional[Dict[str, Term]]:
    """Most general unifier extending `subst`, or None."""
    a, b = walk(a, subst), walk(b, subst)
    if isinstance(a, Var):
        if isinstance(b, Var) and a.name == b.name:
            return subst
        if _occurs(a.name, b, subst):
            return None
        out = dict(subst)
        out[a.name] = b
        return out
    if isinstance(b, Var):
        return unify(b, a, subst)
    if a.functor != b.functor or len(a.args) != len(b.args):
        return None
    for x, y in zip(a.args, b.args):
        subst = unify(x, y, subst)
        if subst is None:
            return None
    return subst


def unify_atoms(a: Atom, b: Atom, subst: Dict[str, Term]) -> Optional[Dict[str, Term]]:
    if a.pred != b.pred or a.arity != b.arity:
        return None
    for x, y in zip(a.args, b.args):
        subst = unify(x, y, subst)
        if subst is None:
            return None
    return subst


class ReferenceStore:
    """Atom facts by predicate; `add` refuses a fact whose canonical
    renaming a stored fact shares, that is, a variant."""

    def __init__(self):
        self.by_pred: Dict[Tuple[str, int], List[Atom]] = {}
        self.seen: Set[Atom] = set()
        self.count = 0

    def add(self, atom: Atom) -> bool:
        key = rename_atom(atom, {}, canonical_var)
        if key in self.seen:
            return False
        self.seen.add(key)
        self.by_pred.setdefault(atom.key, []).append(atom)
        self.count += 1
        return True

    def atoms(self) -> List[Atom]:
        return [a for facts in self.by_pred.values() for a in facts]


def _fresh_vars():
    counter = itertools.count()
    return lambda _: Var(f"$R{next(counter)}")


def clashes(a: Term, b: Term) -> bool:
    """True when no substitution can unify `a` with `b`: somewhere they hold
    compounds (constants included) of different functor or arity."""
    if isinstance(a, Var) or isinstance(b, Var):
        return False
    return (a.functor != b.functor or len(a.args) != len(b.args)
            or any(map(clashes, a.args, b.args)))


def reference_join(body: Sequence[Atom], subst, store: ReferenceStore, fresh,
                   delta: Set[int] = frozenset(), i: int = 0, used: bool = False) -> Iterator:
    """The whole-store join: every stored fact of the predicate whose
    constants do not clash with `body[i]`'s is renamed apart and unified
    with it.  Yields (subst, used): `used` says some joined fact has its id
    in `delta`."""
    if i == len(body):
        yield subst, used
        return
    pattern = apply_subst_atom(body[i], subst)
    for fact in store.by_pred.get(pattern.key, []):
        if any(map(clashes, pattern.args, fact.args)):
            continue
        nxt = unify_atoms(pattern, rename_atom(fact, {}, fresh), subst)
        if nxt is not None:
            yield from reference_join(body, nxt, store, fresh, delta, i + 1,
                                      used or id(fact) in delta)


def reference_fire(clause: Rule, store: ReferenceStore, delta: Optional[Set[int]], fresh,
                   limits: DeriveLimits) -> List[Atom]:
    """Heads of the joins that used a fact of `delta` (every join when None)."""
    out = []
    for subst, used in reference_join(clause.body, {}, store, fresh, delta or frozenset()):
        if used or delta is None:
            head = apply_subst_atom(clause.head, subst)
            if max(map(term_depth, head.args), default=0) <= limits.max_term_depth:
                out.append(head)
    return out


def reference_extend_closure(store: ReferenceStore, all_clauses: Sequence[Rule],
                             new_clauses: Sequence[Rule], new_facts: Sequence[Atom],
                             limits: DeriveLimits) -> None:
    """`deduce.extend_closure` over `reference_fire`: each round joins every
    clause over the whole store and drops the joins that used no new fact."""
    fresh = _fresh_vars()
    delta = [atom for atom in new_facts if store.add(atom)]
    for clause in new_clauses:
        delta.extend(a for a in reference_fire(clause, store, None, fresh, limits) if store.add(a))
    if store.count > limits.max_facts:
        raise LimitExceeded("initial facts exceed max_facts")
    for _ in range(limits.max_depth):
        if not delta:
            return
        ids = {id(a) for a in delta}
        new = [h for c in all_clauses for h in reference_fire(c, store, ids, fresh, limits)]
        delta = []
        for atom in new:
            if store.add(atom):
                if store.count > limits.max_facts:
                    raise LimitExceeded("derived fact count exceeds max_facts")
                delta.append(atom)
    if delta:
        raise LimitExceeded("round cap reached before fixpoint")


def reference_naive_closure(clauses: Sequence[Rule], facts: Sequence[Atom],
                            limits: DeriveLimits) -> ReferenceStore:
    """The fixpoint by naive rounds, with no delta: each round joins every
    clause over the whole store and adds every head.  The round and fact
    caps count as in `deduce.extend_closure`."""
    store = ReferenceStore()
    for atom in facts:
        store.add(atom)
    fresh = _fresh_vars()
    for _ in range(limits.max_depth):
        heads = [h for c in clauses for h in reference_fire(c, store, None, fresh, limits)]
        new = [h for h in heads if store.add(h)]
        if not new:
            return store
        if store.count > limits.max_facts:
            raise LimitExceeded("derived fact count exceeds max_facts")
    raise LimitExceeded("round cap reached before fixpoint")


def reference_general_fires(general: Rule, goal: Atom, store: ReferenceStore) -> bool:
    """`deduce.general_fires` over the whole-store join."""
    subst = match_atom(general.head, goal, {})
    return subst is not None and next(
        reference_join(general.body, subst, store, _fresh_vars()), None) is not None
