"""Deductive engine: subsumption and bounded-derivation coverage checks.

Two coverage semantics are provided.

* `subsumption`: classic theta-subsumption.  A substitution over the
  general clause's variables must map its head onto the specific's head
  and every body atom into the specific's body.

* `derivation`: generalized subsumption relative to a background theory
  (Buntine).  The specific clause is skolemized, its body atoms are
  asserted as facts, the background is saturated by forward chaining, and
  the general clause must then fire once to produce the skolemized head.
  Requiring the general clause to fire keeps the relation meaningful when
  the background alone already entails the head.

Forward chaining is semi-naive and tolerates non-range-restricted clauses
by storing non-ground derived atoms (an unbound head variable stands for
"any term").  All searches are bounded by `DeriveLimits`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .rules import (
    EVIDENCE,
    Atom,
    Compound,
    Rule,
    Term,
    Var,
    _canonical_atom,
    canonical_form,
    render_atom,
    render_term,
    term_depth,
)

SUBSUMPTION = "subsumption"
DERIVATION = "derivation"

SKOLEM_PREFIX = "$sk"  # rejected by the parser's lexer, so user input cannot forge it
_FRESH_PREFIX = "$F"   # internal variable namespace for renaming facts apart


class LimitExceeded(Exception):
    """A derivation hit a resource bound before reaching a verdict."""


@dataclass(frozen=True)
class DeriveLimits:
    max_depth: int = 10
    max_facts: int = 10000
    max_term_depth: int = 6

    def __post_init__(self):
        if self.max_depth <= 0 or self.max_facts <= 0 or self.max_term_depth <= 0:
            raise ValueError("derivation limits must be positive")


@dataclass(frozen=True)
class CoverageConfig:
    """Which semantics decides each kind of coverage pair."""

    rule_rule_mode: str = SUBSUMPTION
    rule_evidence_mode: str = DERIVATION
    limits: DeriveLimits = field(default_factory=DeriveLimits)


class Background:
    """An immutable rule set used as auxiliary knowledge during derivation.

    Holds the seed background plus currently consolidated rules.
    `rule_ids`, `derivable_preds` (the predicates forward chaining could add
    facts for) and `fingerprint` (the set of facts, which keys the verdicts
    that depend on the facts alone) are fixed at construction.
    """

    def __init__(self, rules: Iterable[Rule]):
        rules = tuple(rules)
        for r in rules:
            if r.class_label is not None:
                raise ValueError("evidence rules cannot enter the background")
        self.rules = rules
        self.facts: List[Atom] = [r.head for r in rules if r.is_fact]
        self.clauses: List[Rule] = [r for r in rules if not r.is_fact]
        self.rule_ids = frozenset(r.id for r in rules)
        self.derivable_preds = frozenset(c.head.key for c in self.clauses)
        self.fingerprint = frozenset(self.facts)

    def extended(self, extra: Iterable[Rule]) -> "Background":
        return Background(self.rules + tuple(extra))

    def without_ids(self, ids: Iterable[int]) -> "Background":
        drop = set(ids)
        return Background(r for r in self.rules if r.id not in drop)

    def __len__(self):
        return len(self.rules)


# ---------------------------------------------------------------------------
# substitutions


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


def match(pattern: Term, target: Term, subst: Dict[str, Term]) -> Optional[Dict[str, Term]]:
    """One-way matching: only `pattern` variables bind; `target` is rigid.

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


# ---------------------------------------------------------------------------
# theta-subsumption


def theta_subsumes(general: Rule, specific: Rule) -> bool:
    """True iff some substitution maps general's head onto specific's head
    and every general body atom into specific's body (order-free)."""
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


# ---------------------------------------------------------------------------
# forward chaining


class FactStore:
    """Derived facts indexed by predicate and by ground argument positions.

    Atoms may be non-ground; a fact with a variable in some position lands
    in that position's wildcard bucket so indexed lookups stay complete.
    """

    def __init__(self):
        self.by_pred: Dict[Tuple[str, int], List[Atom]] = {}
        self._index: Dict[Tuple[str, int], List[Dict[Optional[str], List[Atom]]]] = {}
        self.seen: set = set()
        self.count = 0

    def add(self, atom: Atom) -> bool:
        key = render_atom(_canonical_atom(atom, {}))
        if key in self.seen:
            return False
        self.seen.add(key)
        pkey = (atom.pred, atom.arity)
        self.by_pred.setdefault(pkey, []).append(atom)
        slots = self._index.setdefault(pkey, [dict() for _ in range(atom.arity)])
        for i, arg in enumerate(atom.args):
            bucket = render_term(arg) if is_ground(arg) else None
            slots[i].setdefault(bucket, []).append(atom)
        self.count += 1
        return True

    def candidates(self, pattern: Atom) -> List[Atom]:
        """Facts that could unify with `pattern` (complete, maybe loose)."""
        pkey = (pattern.pred, pattern.arity)
        base = self.by_pred.get(pkey, [])
        if len(base) <= 8:
            return base
        slots = self._index[pkey]
        best = base
        for i, arg in enumerate(pattern.args):
            if not is_ground(arg):
                continue
            slot = slots[i]
            exact = slot.get(render_term(arg), ())
            wild = slot.get(None, ())
            if len(exact) + len(wild) < len(best):
                best = list(exact) + list(wild)
        return best


def _rename_apart(atom: Atom, counter: itertools.count) -> Atom:
    mapping: Dict[str, Term] = {}

    def rn(term: Term) -> Term:
        if isinstance(term, Var):
            if term.name not in mapping:
                mapping[term.name] = Var(f"{_FRESH_PREFIX}{next(counter)}")
            return mapping[term.name]
        if not term.args:
            return term
        return Compound(term.functor, tuple(rn(a) for a in term.args))

    if all(is_ground(a) for a in atom.args):
        return atom
    return Atom(atom.pred, tuple(rn(a) for a in atom.args))


def _atom_depth(atom: Atom) -> int:
    return max((term_depth(a) for a in atom.args), default=0)


def _fire(clause: Rule, store: FactStore, delta_keys, fresh, limits) -> List[Atom]:
    """Heads derivable from `clause`; `delta_keys=None` lifts the semi-naive
    requirement that at least one joined fact be new this round."""
    out: List[Atom] = []
    body = clause.body

    def join(i: int, subst, used_delta: bool) -> None:
        if i == len(body):
            if delta_keys is not None and not used_delta:
                return
            head = apply_subst_atom(clause.head, subst)
            if _atom_depth(head) <= limits.max_term_depth:
                out.append(head)
            return
        pattern = apply_subst_atom(body[i], subst)
        for fact in store.candidates(pattern):
            renamed = _rename_apart(fact, fresh)
            nxt = unify_atoms(pattern, renamed, subst)
            if nxt is not None:
                join(
                    i + 1,
                    nxt,
                    used_delta or delta_keys is None or id(fact) in delta_keys,
                )

    join(0, {}, False)
    return out


def forward_closure(
    bg: Background,
    extra_facts: Sequence[Atom] = (),
    limits: DeriveLimits = DeriveLimits(),
) -> FactStore:
    """Saturate the background's facts plus `extra_facts` under its clauses
    (LimitExceeded as in `extend_closure`)."""
    store = FactStore()
    extend_closure(store, bg.clauses, (), [*bg.facts, *extra_facts], limits)
    return store


def extend_closure(
    store: FactStore,
    all_clauses: Sequence[Rule],
    new_clauses: Sequence[Rule],
    new_facts: Sequence[Atom],
    limits: DeriveLimits,
) -> None:
    """Saturate `store`, semi-naive, after the rule set grew by `new_facts`
    and the non-fact `new_clauses`; `all_clauses` are the grown set's.

    An empty store with no new clauses is a fresh saturation.  New clauses
    are joined once over the whole store (no delta requirement), then
    semi-naive rounds run for every clause.  The round budget restarts on
    each call, so a store grown incrementally may hold consequences
    slightly deeper than one saturation pass would allow.  Raises
    LimitExceeded when the fact cap is hit, or when the round cap stops
    saturation before a fixpoint.
    """
    fresh = itertools.count()
    delta = [atom for atom in new_facts if store.add(atom)]
    for clause in new_clauses:
        delta.extend(a for a in _fire(clause, store, None, fresh, limits) if store.add(a))
    if store.count > limits.max_facts:
        raise LimitExceeded("initial facts exceed max_facts")
    for _ in range(limits.max_depth):
        if not delta:
            return
        delta_keys = {id(a) for a in delta}
        new: List[Atom] = []
        for clause in all_clauses:
            new.extend(_fire(clause, store, delta_keys, fresh, limits))
        delta = []
        for atom in new:
            if store.add(atom):
                if store.count > limits.max_facts:
                    raise LimitExceeded("derived fact count exceeds max_facts")
                delta.append(atom)
    if delta:
        raise LimitExceeded("round cap reached before fixpoint")


# ---------------------------------------------------------------------------
# coverage


def skolemize(rule: Rule) -> Tuple[Atom, Tuple[Atom, ...]]:
    """Replace the rule's variables by fresh reserved constants."""
    mapping: Dict[str, Term] = {}

    def sk(term: Term) -> Term:
        if isinstance(term, Var):
            if term.name not in mapping:
                mapping[term.name] = Compound(f"{SKOLEM_PREFIX}{len(mapping)}")
            return mapping[term.name]
        if not term.args:
            return term
        return Compound(term.functor, tuple(sk(a) for a in term.args))

    def sk_atom(atom: Atom) -> Atom:
        return Atom(atom.pred, tuple(sk(a) for a in atom.args))

    return sk_atom(rule.head), tuple(sk_atom(a) for a in rule.body)


def general_fires(general: Rule, goal: Atom, store: FactStore) -> bool:
    """One application of `general` proving `goal` from saturated facts.

    The head must match the (ground) goal exactly; each body atom must then
    unify with some stored fact, facts being renamed apart per use.
    """
    fresh = itertools.count()
    subst = match_atom(general.head, goal, {})
    if subst is None:
        return False

    def solve(i: int, subst) -> bool:
        if i == len(general.body):
            return True
        pattern = apply_subst_atom(general.body[i], subst)
        for fact in store.candidates(pattern):
            renamed = _rename_apart(fact, fresh)
            nxt = unify_atoms(pattern, renamed, subst)
            if nxt is not None and solve(i + 1, nxt):
                return True
        return False

    return solve(0, subst)


def covers(
    bg: Background,
    general: Rule,
    specific: Rule,
    mode: str = DERIVATION,
    limits: DeriveLimits = DeriveLimits(),
    on_warning: Optional[Callable[[str], None]] = None,
) -> bool:
    """Does `general` cover `specific` modulo the background?

    In derivation mode a LimitExceeded verdict is reported as "not covered"
    through `on_warning`.
    """
    if general.id == specific.id:
        raise ValueError("coverage is only defined between distinct rules")
    if mode == SUBSUMPTION:
        return theta_subsumes(general, specific)
    if mode != DERIVATION:
        raise ValueError(f"unknown coverage mode {mode!r}")
    goal, body_facts = skolemize(specific)
    try:
        store = forward_closure(bg, body_facts, limits)
    except LimitExceeded as exc:
        if on_warning:
            on_warning(f"coverage {general.id}->{specific.id}: {exc}")
        return False
    return general_fires(general, goal, store)


Rows = Dict[str, Dict[str, bool]]  # canonical general -> canonical specific -> verdict


class VerdictStore:
    """Verdicts that depend on content alone, so any oracles may share them:
    theta-subsumption rows and, per background fact set (its fingerprint),
    the raw fact store with the rows of generals fired against it."""

    def __init__(self):
        self.subsumes: Rows = {}
        self._by_facts: Dict[FrozenSet[Atom], Tuple[FactStore, Rows]] = {}

    def for_facts(self, bg: Background) -> Tuple[FactStore, Rows]:
        entry = self._by_facts.get(bg.fingerprint)
        if entry is None:
            store = FactStore()
            for atom in bg.facts:
                store.add(atom)
            entry = self._by_facts[bg.fingerprint] = (store, {})
        return entry


class CoverageOracle:
    """Caching front-end for pairwise coverage during graph maintenance.

    Verdicts are cached by canonical rule text, one row per general, so
    re-arrivals of the same clause under fresh ids stay cheap.  `keys` maps
    rule ids to that text where the caller has already computed it; other
    rules are canonicalised on each call.  Subsumption verdicts, and those
    of generals whose bodies only mention predicates no background clause
    can derive (fired against the raw background facts), depend on content
    alone and live in `verdicts`, which callers may share.  Other generals
    fire against one saturated store that `set_background` grows in place;
    `extend_closure` restarts its round budget, so that store depends on the
    order of changes and its verdicts are per oracle, dropped on each change.
    """

    def __init__(
        self,
        bg: Background,
        cfg: CoverageConfig,
        keys: Optional[Mapping[int, str]] = None,
        verdicts: Optional[VerdictStore] = None,
    ):
        self.bg = bg
        self.cfg = cfg
        self.keys: Mapping[int, str] = {} if keys is None else keys
        self.verdicts = VerdictStore() if verdicts is None else verdicts
        self.warnings: List[str] = []
        self._raw_store, self._facts_rows = self.verdicts.for_facts(bg)
        self._saturated_rows: Rows = {}
        self._saturated: Optional[FactStore] = None
        self._saturated_failed = False

    def set_background(self, bg: Background) -> None:
        old = self.bg
        self.bg = bg
        self._raw_store, self._facts_rows = self.verdicts.for_facts(bg)
        self._saturated_rows = {}
        if (
            self._saturated is not None
            and not self._saturated_failed
            and old.rule_ids <= bg.rule_ids
        ):
            added = [r for r in bg.rules if r.id not in old.rule_ids]
            try:
                extend_closure(
                    self._saturated,
                    bg.clauses,
                    [c for c in added if not c.is_fact],
                    [c.head for c in added if c.is_fact],
                    self.cfg.limits,
                )
            except LimitExceeded as exc:
                self._saturated = None
                self._saturated_failed = True
                self._warn(f"background saturation: {exc}")
            return
        self._saturated = None
        self._saturated_failed = False

    def _warn(self, message: str) -> None:
        self.warnings.append(message)

    def canon(self, rule: Rule) -> str:
        text = self.keys.get(rule.id)
        return canonical_form(rule) if text is None else text

    def _saturated_store(self) -> Optional[FactStore]:
        if self._saturated is None and not self._saturated_failed:
            try:
                self._saturated = forward_closure(self.bg, limits=self.cfg.limits)
            except LimitExceeded as exc:
                self._saturated_failed = True
                self._warn(f"background saturation: {exc}")
        return self._saturated

    def _needs_saturation(self, general: Rule) -> bool:
        derivable = self.bg.derivable_preds
        return bool(derivable) and any(a.key in derivable for a in general.body)

    def mode_for(self, specific: Rule) -> str:
        if specific.origin == EVIDENCE:
            return self.cfg.rule_evidence_mode
        return self.cfg.rule_rule_mode

    def covers_pair(self, general: Rule, specific: Rule) -> bool:
        mode = self.mode_for(specific)
        if mode == SUBSUMPTION:
            rows = self.verdicts.subsumes
        elif not specific.is_fact:
            return covers(
                self.bg,
                general,
                specific,
                mode=mode,
                limits=self.cfg.limits,
                on_warning=self._warn,
            )
        elif self._needs_saturation(general):
            rows = self._saturated_rows
        else:
            rows = self._facts_rows
        row = rows.setdefault(self.canon(general), {})
        key = self.canon(specific)
        hit = row.get(key)
        if hit is None:
            if mode == SUBSUMPTION:
                hit = theta_subsumes(general, specific)
            else:
                # Shared closures: nothing specific-side to assert.
                if rows is self._facts_rows:
                    store = self._raw_store
                else:
                    store = self._saturated_store()
                goal, _ = skolemize(specific)
                hit = store is not None and general_fires(general, goal, store)
            row[key] = hit
        return hit
