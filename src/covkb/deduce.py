"""Deductive engine: subsumption and bounded-derivation coverage checks.

A coverage pair is one of two kinds, fixed by the specific's origin.

* A rule specific: classic theta-subsumption.  A substitution over the
  general clause's variables must map its head onto the specific's head
  and every body atom into the specific's body.

* An evidence fact (evidence is always one): generalized subsumption
  relative to a background theory (Buntine).  The background is
  saturated by forward chaining, and the general clause must then fire
  once to produce the skolemized fact.  Requiring the general clause to
  fire keeps the relation meaningful when the background alone already
  entails the fact.

The kernel runs on flat terms only (see "flat terms" below).  A rule
crosses into it through one converter, `flat_clause`, at three places:
once per canonical key in the oracle's `VerdictStore`, once per rule when
a `Background` is built, and once per pair in the uncached `covers`.  One
one-way matcher, `_match`, decides both pair kinds: `theta_subsumes`
maps the general's head and body atoms onto the specific's skolemized
clause with it, and `general_fires` matches the general's head against
the goal with it before joining the body.  A specific's skolemized
clause serves both kinds; an evidence goal is its head.

Forward chaining tolerates non-range-restricted clauses by storing
open (non-ground) derived facts: an unbound head variable stands for "any
term".  A fact is keyed by its shape (ground subterms blanked, variables
numbered) and ground parts, so a ground subgoal is one lookup per shape
of its predicate.  Rounds are semi-naive: a clause is joined once per
body position k whose predicate gained facts in the last round; position
k reads only those facts and earlier positions skip them, so each join
that uses a new fact is made exactly once.  A head or join pattern is
resolved in one walk (`_build`) that also gives its depth and whether it
is ground, so a ground fact is stored without building a shape.  All
derivations are bounded by `DeriveLimits`.  The oracle settles most
misses without a matcher: a signature gate before `theta_subsumes`, and
firing verdicts shared by goals whose bindings of the general's body
variables agree.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import count, product, repeat
from typing import (
    Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
    Sequence, Set, Tuple,
)

from .rules import EVIDENCE, Rule, Var, canonical_form

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


class Background:
    """An immutable rule set used as auxiliary knowledge during derivation.

    Holds the seed background plus currently consolidated rules.  Each rule
    is made a flat clause once, when it enters (`flat`, in rule order):
    `extended` converts only the new rules and `without_ids` keeps the
    others' clauses.  The heads of the facts are `facts`, the clauses with
    a body `clauses`.  `rule_ids`,
    `derivable_preds` (the predicates forward chaining could add facts
    for) and `fingerprint` (the set of flat facts, which keys the verdicts
    that depend on the facts alone) are fixed at construction.
    """

    def __init__(self, rules: Iterable[Rule]):
        rules = tuple(rules)
        for r in rules:
            if r.class_label is not None:
                raise ValueError("evidence rules cannot enter the background")
        self._hold(rules, tuple(map(flat_clause, rules)))

    def _hold(self, rules: Tuple[Rule, ...], flat: Tuple[Clause, ...]) -> "Background":
        self.rules, self.flat = rules, flat
        self.facts: List[tuple] = [head for head, body in flat if not body]
        self.clauses: List[Clause] = [c for c in flat if c[1]]
        self.rule_ids = frozenset(r.id for r in rules)
        self.derivable_preds = frozenset(_key(head) for head, _ in self.clauses)
        self.fingerprint = frozenset(self.facts)
        return self

    def extended(self, extra: Iterable[Rule]) -> "Background":
        extra = Background(extra)
        return Background.__new__(Background)._hold(self.rules + extra.rules,
                                                    self.flat + extra.flat)

    def without_ids(self, ids: Iterable[int]) -> "Background":
        drop = set(ids)
        kept = [(r, c) for r, c in zip(self.rules, self.flat) if r.id not in drop]
        return Background.__new__(Background)._hold(tuple(r for r, _ in kept),
                                                    tuple(c for _, c in kept))

    def __len__(self):
        return len(self.rules)


# ---------------------------------------------------------------------------
# flat terms: constant = name, compound = (functor, *args), atom = (pred, *args), variable = Var


def _flat(term):
    if type(term) is Var:
        return term
    return (term.functor, *map(_flat, term.args)) if term.args else term.functor


Clause = Tuple[tuple, Tuple[tuple, ...]]  # a flat head and flat body


def flat_clause(rule: Rule) -> Clause:
    """`rule`'s head and body as flat atoms: the one way a rule enters the kernel."""
    head, *body = [(a.pred, *map(_flat, a.args)) for a in rule.atoms()]
    return head, tuple(body)


def _terms(atoms: Iterable[tuple]) -> Iterator:
    """The arguments of flat `atoms` and, depth first, every subterm of each."""
    for atom in atoms:
        for t in atom[1:]:
            yield t
            if type(t) is tuple:
                yield from _terms((t,))


def head_forms(head: tuple) -> Tuple[Tuple, ...]:
    """The head key of the flat `head`, then every coarser key.

    A key is the predicate and arity plus, for each of the first
    KEY_POSITIONS arguments, its top-level (functor, arity), or None for a
    variable.  A general's head matches `head` (`_match`, whose target's
    variables are rigid) only when the general's key is one of these: the
    general's key equals `head`'s with some positions set to None.  A
    variable of `head` is rigid, so only a general's variable takes it.
    At most 2**KEY_POSITIONS forms.
    """
    shapes = [
        (None,) if type(a) is Var else ((a, 0) if type(a) is str else (a[0], len(a) - 1), None)
        for a in head[1:KEY_POSITIONS + 1]
    ]
    return tuple((head[0], len(head) - 1, *s) for s in product(*shapes))


def _key(fact: tuple) -> Tuple[str, int]:
    return fact[0], len(fact) - 1


def _ground(t) -> bool:
    if type(t) is not tuple:
        return type(t) is str
    for a in t:
        if type(a) is not str and not _ground(a):
            return False
    return True


def _walk(t, subst: dict):
    while type(t) is Var and t.name in subst:
        t = subst[t.name]
    return t


def _build(t, subst: dict) -> Tuple[object, int, bool]:
    """`t` with each bound variable replaced by its binding, recursively,
    with its nesting depth (a compound's, or an atom's arguments' plus one;
    a constant or variable is 1) and whether it is ground, in one walk."""
    while type(t) is Var:
        if t.name not in subst:
            return t, 1, False
        t = subst[t.name]
    if type(t) is str:
        return t, 1, True
    parts, deepest, ground = [], 1, True
    for a in t:
        if type(a) is not str:
            a, depth, g = _build(a, subst)
            if depth > deepest:
                deepest = depth
            if not g:
                ground = False
        parts.append(a)
    return tuple(parts), deepest + 1, ground


def _rename(t, names: dict, fresh: Callable[[], object]):
    """`t` with each variable replaced through `names`, a new one by `fresh()`."""
    if type(t) is tuple:
        return tuple([a if type(a) is str else _rename(a, names, fresh) for a in t])
    return names[t.name] if t.name in names else names.setdefault(t.name, fresh())


def _match(pattern, target, subst: dict) -> bool:
    """One-way match binding `pattern`'s free variables in `subst`, in place."""
    if type(pattern) is tuple:
        return (type(target) is tuple and len(pattern) == len(target)
                and all(map(_match, pattern, target, repeat(subst))))
    if type(pattern) is str:
        return pattern == target
    return subst.setdefault(pattern.name, target) == target


def theta_subsumes(general: Clause, specific: Clause) -> bool:
    """True iff some substitution maps flat `general`'s head onto
    `specific`'s and each of its body atoms onto one of `specific`'s body
    atoms (order-free).  `specific` comes skolemized (`skolemize`), so its
    variables are constants that no substitution binds."""
    head, body = general
    subst: dict = {}
    return _match(head, specific[0], subst) and _embeds(body, specific[1], subst, 0)


def _embeds(body: Sequence[tuple], targets: Sequence[tuple], subst: dict, i: int) -> bool:
    """Whether `subst` extends to map each of `body[i:]` onto some target:
    a depth-first search, each try on its own copy of the bindings."""
    if i == len(body):
        return True
    for target in targets:
        nxt = dict(subst)
        if _match(body[i], target, nxt) and _embeds(body, targets, nxt, i + 1):
            return True
    return False


def _occurs(name: str, t, subst: dict) -> bool:
    t = _walk(t, subst)
    if type(t) is tuple:
        return any(map(_occurs, repeat(name), t, repeat(subst)))
    return type(t) is Var and t.name == name


def _unify(a, b, subst: dict) -> bool:
    """Extend `subst`, in place, to a most general unifier of `a` and `b`."""
    a, b = _walk(a, subst), _walk(b, subst)
    if type(a) is not Var and type(b) is Var:
        a, b = b, a
    if type(a) is Var:
        if type(b) is Var and a.name == b.name:
            return True
        if _occurs(a.name, b, subst):
            return False
        subst[a.name] = b
        return True
    if type(a) is str or type(b) is str:
        return a == b
    return len(a) == len(b) and all(map(_unify, a, b, repeat(subst)))


def _shape(t, parts: list, names: dict):
    """`t`'s variable pattern: each variable becomes its first-occurrence
    number, and each maximal ground subterm None, appended to `parts`."""
    if _ground(t):
        parts.append(t)
    elif type(t) is tuple:
        return tuple([_shape(a, parts, names) for a in t])
    else:
        return names.setdefault(t.name, len(names))


def _project(shape, t, parts: list, binds: list) -> bool:
    """Whether ground `t` is an instance of `shape`; appends the subterms of
    `t` at the shape's ground places to `parts`, as `_shape` would."""
    if shape is None:
        parts.append(t)
    elif type(shape) is int:
        if shape < len(binds):
            return binds[shape] == t
        binds.append(t)
    else:
        return (type(t) is tuple and len(t) == len(shape)
                and all(map(_project, shape, t, repeat(parts), repeat(binds))))
    return True


# ---------------------------------------------------------------------------
# forward chaining


class FactStore:
    """Derived flat facts, indexed by predicate and ground argument values.

    A fact is keyed by its shape (`_shape`) and ground parts, which fix it
    up to renaming, so `add` refuses a variant of a stored fact; a ground
    fact's shape is None and its one part is itself, so `add`, told that
    a fact is ground, builds no shape.  An argument with a
    variable lands in its position's wildcard bucket (None) so indexed
    lookups stay complete; `open` holds the ids of the facts with a
    variable, the only ones a join renames.
    """

    def __init__(self):
        self.by_pred: Dict[Tuple[str, int], List[tuple]] = {}
        self._index: Dict[Tuple[str, int], List[Dict[object, List[tuple]]]] = {}
        self._shapes: Dict[Tuple[str, int], Dict[Optional[tuple], Dict[tuple, tuple]]] = {}
        self.open: Set[int] = set()
        self.count = 0

    def add(self, fact: tuple, ground: bool) -> bool:
        pkey, parts = _key(fact), []
        shape, key = (None, (fact,)) if ground else (_shape(fact, parts, {}), tuple(parts))
        facts = self._shapes.setdefault(pkey, {}).setdefault(shape, {})
        if key in facts:
            return False
        facts[key] = fact
        if shape is not None:
            self.open.add(id(fact))
        self.by_pred.setdefault(pkey, []).append(fact)
        slots = self._index.get(pkey) or self._index.setdefault(
            pkey, [defaultdict(list) for _ in fact[1:]])
        for slot, arg in zip(slots, fact[1:]):
            slot[arg if shape is None or _ground(arg) else None].append(fact)
        self.count += 1
        return True

    def candidates(self, pattern: tuple) -> Sequence[tuple]:
        """Facts that could unify with `pattern` (complete, maybe loose)."""
        pkey = _key(pattern)
        best = self.by_pred.get(pkey, [])
        if len(best) <= 8:
            return best
        for slot, arg in zip(self._index[pkey], pattern[1:]):
            if _ground(arg):
                exact, wild = slot.get(arg, []), slot.get(None, [])
                if len(exact) + len(wild) < len(best):
                    best = exact + wild if wild else exact
        return best

    def generalisations(self, goal: tuple) -> List[tuple]:
        """The stored facts that ground `goal` is an instance of: per shape
        that `goal` fits, the one fact with its ground parts."""
        found = []
        for shape, facts in self._shapes.get(_key(goal), {}).items():
            parts: list = []
            if _project(shape, goal, parts, []) and tuple(parts) in facts:
                found.append(facts[tuple(parts)])
        return found


Delta = Dict[Tuple[str, int], Dict[int, tuple]]  # last round's new facts by predicate, by id


def _fresh_vars() -> Callable[[], Var]:
    """A source of variables no clause can name: $F0, $F1, ..."""
    counter = count()
    return lambda: Var(f"{_FRESH_PREFIX}{next(counter)}")


def _join(body: Sequence[tuple], subst: dict, store: FactStore, fresh,
          delta: Optional[Delta] = None, k: int = -1, i: int = 0) -> Iterator[dict]:
    """Depth-first extensions of `subst` that unify `body[i:]` with stored
    facts, each open fact renamed apart per use.

    With `delta`, position `k` reads only delta facts, positions before it
    skip them and later ones read the whole store.  A ground pattern binds
    nothing, so it is looked up (`generalisations`) and followed once; any
    other is matched one way against a ground fact.  Candidate lists are
    live, so `store` must not grow during the walk.  The last position
    yields its bindings itself rather than recurse once per fact."""
    if i == len(body):
        yield subst
        return
    pattern, _, ground = _build(body[i], subst)
    last = i + 1 == len(body)
    facts = store.generalisations(pattern) if ground else store.candidates(pattern)
    if i <= k:
        news = delta.get(_key(pattern), {})
        if i == k and not ground and len(news) < len(facts):
            facts = news.values()
        elif news:
            facts = [f for f in facts if (id(f) in news) == (i == k)]
    if ground:
        if facts:
            yield from [subst] if last else _join(body, subst, store, fresh, delta, k, i + 1)
        return
    opened = store.open
    for fact in facts:
        nxt = dict(subst)
        if (_unify(pattern, _rename(fact, {}, fresh), nxt) if id(fact) in opened
                else _match(pattern, fact, nxt)):
            if last:
                yield nxt
            else:
                yield from _join(body, nxt, store, fresh, delta, k, i + 1)


def _fire(clause: Clause, store: FactStore, delta: Optional[Delta], fresh, limits) -> list:
    """Heads derivable from flat `clause` by the joins that use a fact of
    `delta`, each with whether it is ground: one join per body position
    whose predicate has delta facts.  `delta=None` joins once over the
    whole store."""
    out: List[Tuple[tuple, bool]] = []
    head, body = clause
    cap = limits.max_term_depth + 1  # an atom's depth is its arguments' plus one
    positions = [-1] if delta is None else [k for k, a in enumerate(body) if _key(a) in delta]
    for k in positions:
        for subst in _join(body, {}, store, fresh, delta, k):
            fact, depth, ground = _build(head, subst)
            if depth <= cap:
                out.append((fact, ground))
    return out


def forward_closure(bg: Background, limits: DeriveLimits = DeriveLimits()) -> FactStore:
    """The background saturated under its clauses; LimitExceeded as in `extend_closure`."""
    store = FactStore()
    extend_closure(store, bg.clauses, (), bg.facts, limits)
    return store


def extend_closure(
    store: FactStore,
    all_clauses: Sequence[Clause],
    new_clauses: Sequence[Clause],
    new_facts: Sequence[tuple],
    limits: DeriveLimits,
) -> None:
    """Saturate `store`, semi-naive, after the rule set grew by the flat
    `new_facts` and the flat clauses `new_clauses`, each with a body;
    `all_clauses` are the grown set's (as a `Background` keeps them).

    An empty store with no new clauses is a fresh saturation.  New clauses
    are joined once over the whole store, then each round joins every
    clause against the facts the previous round added (`_fire`).  The
    round budget restarts on each call, so a store grown incrementally may
    hold consequences slightly deeper than one saturation pass would
    allow.  Raises LimitExceeded when the fact cap is hit, or when the
    round cap stops saturation before a fixpoint.
    """
    fresh = _fresh_vars()
    delta = [fact for fact in new_facts if store.add(fact, _ground(fact))]
    for clause in new_clauses:
        delta.extend(f for f, ground in _fire(clause, store, None, fresh, limits)
                     if store.add(f, ground))
    if store.count > limits.max_facts:
        raise LimitExceeded("initial facts exceed max_facts")
    for _ in range(limits.max_depth):
        if not delta:
            return
        by_key: Delta = {}
        for fact in delta:
            by_key.setdefault(_key(fact), {})[id(fact)] = fact
        new: List[Tuple[tuple, bool]] = []
        for clause in all_clauses:
            new.extend(_fire(clause, store, by_key, fresh, limits))
        delta = []
        for fact, ground in new:
            if store.add(fact, ground):
                if store.count > limits.max_facts:
                    raise LimitExceeded("derived fact count exceeds max_facts")
                delta.append(fact)
    if delta:
        raise LimitExceeded("round cap reached before fixpoint")


# ---------------------------------------------------------------------------
# coverage


def skolemize(clause: Clause) -> Clause:
    """Flat `clause` with its variables replaced by reserved constants,
    $sk0, $sk1, ... in order of first occurrence."""
    names: dict = {}
    fresh = map(f"{SKOLEM_PREFIX}{{}}".format, count()).__next__
    head, body = clause
    return _rename(head, names, fresh), tuple([_rename(a, names, fresh) for a in body])


def general_fires(general: Clause, goal: tuple, store: FactStore) -> bool:
    """One application of the flat clause `general` proving flat `goal`
    from saturated facts.

    The head must match the (ground) goal exactly; each body atom must then
    unify with some stored fact, facts being renamed apart per use.
    """
    (head, body), subst = general, {}
    return _match(head, goal, subst) and next(
        _join(body, subst, store, _fresh_vars()), None) is not None


def covers(
    bg: Background,
    general: Rule,
    specific: Rule,
    limits: DeriveLimits = DeriveLimits(),
    on_warning: Optional[Callable[[str], None]] = None,
) -> bool:
    """Does `general` cover `specific` modulo the background?  The uncached
    twin of `CoverageOracle.covers_pair`: theta-subsumption for a rule
    specific; for an evidence fact, a head match, then one firing of
    `general` on a fresh saturation, whose LimitExceeded is reported as
    "not covered" through `on_warning`.
    """
    if general.id == specific.id:
        raise ValueError("coverage is only defined between distinct rules")
    clause, skolemized = flat_clause(general), skolemize(flat_clause(specific))
    if specific.origin != EVIDENCE:
        return theta_subsumes(clause, skolemized)
    goal = skolemized[0]
    if not _match(clause[0], goal, {}):
        return False
    try:
        store = forward_closure(bg, limits)
    except LimitExceeded as exc:
        if on_warning:
            on_warning(f"coverage {general.id}->{specific.id}: {exc}")
        return False
    return general_fires(clause, goal, store)


Rows = Dict[str, Dict[str, bool]]  # canonical general -> canonical specific -> verdict
Shared = Dict[tuple, bool]  # (canonical general, *its body variables' bindings) -> verdict


class Forms(NamedTuple):
    """What the oracle reads of one canonical key's clause (`VerdictStore.forms`)."""

    clause: Clause              # the flat clause: a general's side of a pair
    body_vars: Tuple[str, ...]  # its body's variable names, by first occurrence
    skolemized: Clause          # `skolemize(clause)`: a specific's side; a goal is its head
    signature: int              # its symbols, one interned bit each


class VerdictStore:
    """Verdicts that depend on content alone, so any oracles may share them:
    theta-subsumption rows and, per background fact set (its fingerprint),
    the raw fact store with the rows of generals fired against it and,
    living exactly as long, their verdicts shared per projection.  Also
    `forms`, made once per canonical key, the one place where a pair's
    rules become flat clauses; and `records`, one clause record per
    canonical key and length override: what a graph derives from the
    clause when it enters."""

    def __init__(self):
        self.subsumes: Rows = {}
        self.records: Dict[Tuple[str, Optional[float]], tuple] = {}
        self._by_facts: Dict[FrozenSet[tuple], Tuple[FactStore, Tuple[Rows, Shared]]] = {}
        self._forms: Dict[str, Forms] = {}
        self._symbols: Dict[Hashable, int] = {}

    def for_facts(self, bg: Background) -> Tuple[FactStore, Tuple[Rows, Shared]]:
        entry = self._by_facts.get(bg.fingerprint)
        if entry is None:
            store = FactStore()
            for fact in bg.facts:
                store.add(fact, _ground(fact))
            entry = self._by_facts[bg.fingerprint] = (store, ({}, {}))
        return entry

    def forms(self, key: str, rule: Rule) -> Forms:
        """The forms of `rule`, whose canonical text is `key`, made on the
        first ask.  The signature has a bit for each body predicate key and
        each constant or functor with its arity, the head's included.  theta
        maps only variables, so `theta_subsumes(g, s)` needs
        `signature(g) & ~signature(s) == 0`."""
        found = self._forms.get(key)
        if found is None:
            clause = flat_clause(rule)
            head, body = clause
            bits, sig = self._symbols, 0
            functors = [f"{t}/0" if type(t) is str else f"{t[0]}/{len(t) - 1}"
                        for t in _terms((head, *body)) if type(t) is not Var]
            for symbol in [_key(a) for a in body] + functors:
                sig |= 1 << bits.setdefault(symbol, len(bits))
            names = tuple(dict.fromkeys(t.name for t in _terms(body) if type(t) is Var))
            # A ground clause, such as an evidence fact, is its own skolemization.
            skolemized = clause if not names and _ground(head) else skolemize(clause)
            found = self._forms[key] = Forms(clause, names, skolemized, sig)
        return found


class CoverageOracle:
    """Caching front-end for pairwise coverage during graph maintenance.

    A rule specific is decided by theta-subsumption, an evidence fact by
    firing the general against the background, as in `covers`.  Verdicts
    are cached by canonical rule text, one row per general, and so
    is each clause's record (`record`), so re-arrivals of the same clause
    under fresh ids stay cheap.  `keys` maps rule ids to that text where the
    caller has already computed it; other rules are canonicalised on each
    call.  Subsumption verdicts, and those of generals whose bodies only
    mention predicates no background clause can derive (fired against the
    raw background facts), depend on content alone and live in `verdicts`,
    which callers may share.  Other generals fire against one saturated
    store that `set_background` grows in place; `extend_closure` restarts its
    round budget, so that store depends on the order of changes and its
    verdicts are per oracle, dropped on each change, as is the choice
    between the two stores, made once per general's key.

    A miss reads both keys' `Forms` from `verdicts`, so the oracle converts
    no rule itself, and decides with one matcher.  A subsumption miss
    tests the signatures first, then runs `theta_subsumes` on the
    general's clause and the specific's skolemized clause.  A firing miss
    matches the general's head against that clause's head, the goal, then
    reads the verdict shared by the general's key and the bindings of its
    body variables, kept in a table that lives exactly as long as its rows.

    `head_forms` gives a rule's head key and the keys of every general that
    may cover it, from the flat head in its key's forms; a pair whose keys
    do not match is not covered.  Such a pair derives nothing here, so
    skipping it changes no later verdict.
    """

    def __init__(
        self,
        bg: Background,
        limits: DeriveLimits,
        keys: Optional[Mapping[int, str]] = None,
        verdicts: Optional[VerdictStore] = None,
    ):
        self.bg = bg
        self.limits = limits
        self.keys: Mapping[int, str] = {} if keys is None else keys
        self.verdicts = VerdictStore() if verdicts is None else verdicts
        self.warnings: List[str] = []
        self._raw_store, self._facts_tables = self.verdicts.for_facts(bg)
        self._saturated_tables: Tuple[Rows, Shared] = ({}, {})
        self._saturating: Dict[str, bool] = {}
        self._saturated: Optional[FactStore] = None
        self._saturated_failed = False

    def set_background(self, bg: Background) -> None:
        old = self.bg
        self.bg = bg
        self._raw_store, self._facts_tables = self.verdicts.for_facts(bg)
        self._saturated_tables = ({}, {})
        self._saturating = {}
        if (
            self._saturated is not None
            and not self._saturated_failed
            and old.rule_ids <= bg.rule_ids
        ):
            added = [c for r, c in zip(bg.rules, bg.flat) if r.id not in old.rule_ids]
            try:
                extend_closure(
                    self._saturated,
                    bg.clauses,
                    [c for c in added if c[1]],
                    [head for head, body in added if not body],
                    self.limits,
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
        return head_forms(self.verdicts.forms(self.canon(rule), rule).clause[0])

    def record(self, rule: Rule, make: Callable[[], tuple]) -> tuple:
        """`rule`'s clause record in `verdicts`, built by `make` on the first
        ask for its canonical key and length override."""
        key = (self.canon(rule), rule.length_override)
        found = self.verdicts.records.get(key)
        if found is None:
            found = self.verdicts.records[key] = make()
        return found

    def _saturated_store(self) -> Optional[FactStore]:
        if self._saturated is None and not self._saturated_failed:
            try:
                self._saturated = forward_closure(self.bg, limits=self.limits)
            except LimitExceeded as exc:
                self._saturated_failed = True
                self._warn(f"background saturation: {exc}")
        return self._saturated

    def _needs_saturation(self, body: Sequence[tuple]) -> bool:
        derivable = self.bg.derivable_preds
        return bool(derivable) and any(_key(a) in derivable for a in body)

    def covers_pair(self, general: Rule, specific: Rule) -> bool:
        keys, verdicts = self.keys, self.verdicts
        gkey = keys.get(general.id) or canonical_form(general)
        key = keys.get(specific.id) or canonical_form(specific)
        subsumption = specific.origin != EVIDENCE
        if subsumption:
            rows = verdicts.subsumes
        else:
            saturating = self._saturating.get(gkey)
            if saturating is None:
                saturating = self._saturating[gkey] = self._needs_saturation(
                    verdicts.forms(gkey, general).clause[1])
            rows, shared = self._saturated_tables if saturating else self._facts_tables
        row = rows.get(gkey)
        hit = None if row is None else row.get(key)
        if hit is None:
            g, s = verdicts.forms(gkey, general), verdicts.forms(key, specific)
            if subsumption:
                if g.signature & ~s.signature:
                    return False  # in no row: redoing the gate costs less than keeping it
                hit = theta_subsumes(g.clause, s.skolemized)
            else:
                # A fact asserts nothing, so stores are shared; `view` is False if the head fails
                (head, _), goal = g.clause, s.skolemized[0]
                view = _match(head, goal, subst := {}) and (gkey, *map(subst.get, g.body_vars))
                hit = view and shared.get(view)
                if hit is None:
                    store = self._saturated_store() if saturating else self._raw_store
                    hit = shared[view] = store is not None and general_fires(g.clause, goal, store)
            if row is None:
                row = rows[gkey] = {}
            row[key] = hit
        return hit
