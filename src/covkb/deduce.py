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

Forward chaining tolerates non-range-restricted clauses by storing
non-ground derived atoms (an unbound head variable stands for "any term").
Facts are keyed by structure, never by their text: a ground fact by the
atom itself, any other by its canonical renaming.  Rounds are semi-naive:
a clause is joined once per body position k whose predicate gained facts
in the last round; position k reads only those facts and earlier positions
skip them, so each join that uses a new fact is made exactly once.  All
searches are bounded by `DeriveLimits`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Set, Tuple,
)

from .rules import (
    EVIDENCE,
    Atom,
    Compound,
    Rule,
    Term,
    Var,
    canonical_form,
    canonical_var,
    rename_atom,
    term_depth,
)

SUBSUMPTION = "subsumption"
DERIVATION = "derivation"

SKOLEM_PREFIX = "$sk"  # rejected by the parser's lexer, so user input cannot forge it
_FRESH_PREFIX = "$F"   # internal variable namespace for renaming facts apart
KEY_POSITIONS = 4      # head arguments a head key reads; later ones match anything


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

    def __post_init__(self):
        for mode in (self.rule_rule_mode, self.rule_evidence_mode):
            if mode not in (SUBSUMPTION, DERIVATION):
                raise ValueError(f"unknown coverage mode {mode!r}")


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


def head_forms(atom: Atom) -> Tuple[Tuple, ...]:
    """The head key of `atom`, then every coarser key.

    A key is the predicate and arity plus, for each of the first
    KEY_POSITIONS arguments, its top-level (functor, arity), or None for a
    variable.  `match_atom(general, atom, {})` can succeed only when the
    general's key is one of these: the general's key equals `atom`'s with
    some positions set to None.  A variable of `atom` is rigid, so only a
    general's variable takes it.  At most 2**KEY_POSITIONS forms.
    """
    shapes = [
        (None,) if isinstance(a, Var) else ((a.functor, len(a.args)), None)
        for a in atom.args[:KEY_POSITIONS]
    ]
    return tuple((atom.pred, atom.arity, *s) for s in itertools.product(*shapes))


def heads_may_match(general: Atom, specific: Atom) -> bool:
    """False only when `match_atom(general, specific, {})` fails."""
    return head_forms(general)[0] in head_forms(specific)


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

    A fact is keyed by structure: a ground one by the atom itself, any other
    by its canonical renaming, so `add` refuses a variant of a stored fact.
    A fact with a variable in some position lands in that position's
    wildcard bucket (None) so indexed lookups stay complete; `open` holds
    the ids of the facts with a variable, the only ones a join renames.
    """

    def __init__(self):
        self.by_pred: Dict[Tuple[str, int], List[Atom]] = {}
        self._index: Dict[Tuple[str, int], List[Dict[Optional[Term], List[Atom]]]] = {}
        self.seen: Set[Atom] = set()
        self.open: Set[int] = set()
        self.count = 0

    def add(self, atom: Atom) -> bool:
        flags = [is_ground(arg) for arg in atom.args]
        ground = all(flags)
        self.seen.add(atom if ground else rename_atom(atom, {}, canonical_var))
        if len(self.seen) == self.count:
            return False
        if not ground:
            self.open.add(id(atom))
        pkey = (atom.pred, len(atom.args))
        self.by_pred.setdefault(pkey, []).append(atom)
        slots = self._index.setdefault(pkey, [dict() for _ in atom.args])
        for slot, arg, flag in zip(slots, atom.args, flags):
            slot.setdefault(arg if flag else None, []).append(atom)
        self.count += 1
        return True

    def candidates(self, pattern: Atom) -> List[Atom]:
        """Facts that could unify with `pattern` (complete, maybe loose)."""
        pkey = (pattern.pred, len(pattern.args))
        base = self.by_pred.get(pkey, [])
        if len(base) <= 8:
            return base
        best = base
        for slot, arg in zip(self._index[pkey], pattern.args):
            if not is_ground(arg):
                continue
            exact = slot.get(arg, ())
            wild = slot.get(None, ())
            if len(exact) + len(wild) < len(best):
                best = list(exact) + list(wild)
        return best


Delta = Dict[Tuple[str, int], Dict[int, Atom]]  # last round's new facts by predicate, by id


def _fresh_vars() -> Callable[[int], Term]:
    """A `rename_atom` source of variables no clause can name: $F0, $F1, ..."""
    counter = itertools.count()
    return lambda _: Var(f"{_FRESH_PREFIX}{next(counter)}")


def _join(body: Sequence[Atom], subst: Dict[str, Term], store: FactStore, fresh,
          delta: Optional[Delta] = None, k: int = -1, i: int = 0) -> Iterator:
    """Depth-first extensions of `subst` that unify `body[i:]` with stored
    facts, each fact with a variable renamed apart per use.

    With `delta`, position `k` reads only delta facts, positions before it
    skip them and later ones read the whole store.  A ground pattern
    renames nothing and binds nothing, so only the first fact that
    matches it is followed.  Candidate lists are live, so `store` must not
    grow during the walk."""
    if i == len(body):
        yield subst
        return
    pattern = apply_subst_atom(body[i], subst)
    facts = store.candidates(pattern)
    if i <= k:
        news = delta.get(pattern.key, {})
        if i == k and len(news) < len(facts):
            facts = news.values()
        elif news:
            facts = [f for f in facts if (id(f) in news) == (i == k)]
    if all(map(is_ground, pattern.args)):
        if any(match_atom(f, pattern, {}) is not None if id(f) in store.open else f == pattern
               for f in facts):
            yield from _join(body, subst, store, fresh, delta, k, i + 1)
        return
    for fact in facts:
        renamed = rename_atom(fact, {}, fresh) if id(fact) in store.open else fact
        nxt = unify_atoms(pattern, renamed, subst)
        if nxt is not None:
            yield from _join(body, nxt, store, fresh, delta, k, i + 1)


def _fire(clause: Rule, store: FactStore, delta: Optional[Delta], fresh, limits) -> List[Atom]:
    """Heads derivable from `clause` by the joins that use a fact of
    `delta`: one join per body position whose predicate has delta facts.
    `delta=None` joins once over the whole store."""
    out: List[Atom] = []
    body = clause.body
    positions = [-1] if delta is None else [k for k, a in enumerate(body) if a.key in delta]
    for k in positions:
        for subst in _join(body, {}, store, fresh, delta, k):
            head = apply_subst_atom(clause.head, subst)
            if max(map(term_depth, head.args), default=0) <= limits.max_term_depth:
                out.append(head)
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
    are joined once over the whole store, then each round joins every
    clause against the facts the previous round added (`_fire`).  The
    round budget restarts on each call, so a store grown incrementally may
    hold consequences slightly deeper than one saturation pass would
    allow.  Raises LimitExceeded when the fact cap is hit, or when the
    round cap stops saturation before a fixpoint.
    """
    fresh = _fresh_vars()
    delta = [atom for atom in new_facts if store.add(atom)]
    for clause in new_clauses:
        delta.extend(a for a in _fire(clause, store, None, fresh, limits) if store.add(a))
    if store.count > limits.max_facts:
        raise LimitExceeded("initial facts exceed max_facts")
    for _ in range(limits.max_depth):
        if not delta:
            return
        by_key: Delta = {}
        for atom in delta:
            by_key.setdefault(atom.key, {})[id(atom)] = atom
        new: List[Atom] = []
        for clause in all_clauses:
            new.extend(_fire(clause, store, by_key, fresh, limits))
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


def _skolem(n: int) -> Term:
    return Compound(f"{SKOLEM_PREFIX}{n}")


def skolemize(rule: Rule) -> Tuple[Atom, Tuple[Atom, ...]]:
    """Replace the rule's variables by fresh reserved constants."""
    mapping: Dict[str, Term] = {}
    head, *body = (rename_atom(a, mapping, _skolem) for a in rule.atoms())
    return head, tuple(body)


def general_fires(general: Rule, goal: Atom, store: FactStore) -> bool:
    """One application of `general` proving `goal` from saturated facts.

    The head must match the (ground) goal exactly; each body atom must then
    unify with some stored fact, facts being renamed apart per use.
    """
    subst = match_atom(general.head, goal, {})
    if subst is None:
        return False
    return next(_join(general.body, subst, store, _fresh_vars()), None) is not None


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
    through `on_warning`.  Every mode starts by matching general's head onto
    specific's, so heads that cannot match give False before any derivation.
    """
    if general.id == specific.id:
        raise ValueError("coverage is only defined between distinct rules")
    if mode == SUBSUMPTION:
        return theta_subsumes(general, specific)
    if mode != DERIVATION:
        raise ValueError(f"unknown coverage mode {mode!r}")
    if not heads_may_match(general.head, specific.head):
        return False
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

    `head_forms` gives a rule's head key and the keys of every general that
    may cover it; a pair whose keys do not match is not covered.  Such a
    pair derives nothing here, so skipping it changes no later verdict.
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

    def head_forms(self, rule: Rule) -> Tuple[Hashable, ...]:
        return head_forms(rule.head)

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
                elif heads_may_match(general.head, specific.head):
                    store = self._saturated_store()
                else:
                    store = None  # the head cannot match: saturate nothing
                goal, _ = skolemize(specific)
                hit = store is not None and general_fires(general, goal, store)
            row[key] = hit
        return hit
