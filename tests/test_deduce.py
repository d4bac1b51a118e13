import os
import random
import sys

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from covkb import deduce
from covkb.deduce import (
    Background,
    CoverageOracle,
    DeriveLimits,
    FactStore,
    LimitExceeded,
    VerdictStore,
    covers,
    flat_clause,
    skolemize,
    theta_subsumes,
)
from covkb.parser import parse_file, parse_program
from covkb.rules import (
    BACKGROUND, EVIDENCE, Atom, Compound, Rule, Var, canonical_form, rename_atom, render_rule,
)

from conftest import CHESS_DIR, FAMILY_KBR
from oracles import (
    ReferenceStore, atom_of, background_atoms, derives_goal, flat_atom, is_ground, is_variant,
    match_atom, reference_add, reference_depth, reference_extend_closure, reference_general_fires,
    reference_naive_closure, reference_resolve, reference_theta_subsumes,
    same_facts_modulo_variants, stored_atoms, term_of, unify_atoms,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
import synth  # noqa: E402  (the benchmark's pool generator)


def rules_of(text):
    return parse_program(text)


def one(text):
    (r,) = parse_program(text)
    return r


@pytest.fixture(scope="module")
def family_bg():
    rules = [r for r in parse_file(FAMILY_KBR) if r.origin == BACKGROUND]
    return Background(rules)


R110 = one("daughter(X,Y) :- female(X), parent(Y,X).")
R138 = one("daughter(V,W) :- female(X), parent(Y,Z).")
R100 = one("daughter(X,Y) :- female(Y), parent(Y,mary).")
R35 = one("daughter(eve,Y) :- female(eve).")
R20 = one("daughter(eve,tom) :- female(eve).")


def with_id(rule, rid):
    return Rule(**{**rule.__dict__, "id": rid})


def evidence(text, rid):
    (r,) = parse_program(f"#classes + -\n#evidence +\n{text}")
    return with_id(r, rid)


# reach(a) reaches e in four rounds, so a one-round cap stops short
REACH_BG = Background(
    rules_of("reach(a). edge(a,b). edge(b,c). edge(c,d). edge(d,e).")
    + [one("reach(Y) :- reach(X), edge(X,Y).")]
)


def subsumes(general, specific):
    """`deduce.theta_subsumes` on the pair's flat forms, the specific
    skolemized; the Atom-level reference must agree."""
    held = theta_subsumes(flat_clause(general), skolemize(flat_clause(specific)))
    assert held == reference_theta_subsumes(general, specific), (general, specific)
    return held


class TestThetaSubsumption:
    def test_most_general_subsumes_110(self):
        assert subsumes(with_id(R138, 1), with_id(R110, 2))

    def test_no_parent_atom_blocks(self):
        assert not subsumes(with_id(R138, 1), with_id(R35, 2))

    def test_self_subsumption(self):
        assert subsumes(with_id(R110, 1), with_id(R110, 2))

    def test_35_subsumes_20(self):
        assert subsumes(with_id(R35, 1), with_id(R20, 2))

    def test_ground_head_cannot_generalise(self):
        assert not subsumes(with_id(R20, 1), with_id(R35, 2))

    def test_shared_variable_names_are_harmless(self):
        a = one("p(X) :- q(X).")
        b = one("p(X) :- q(X), r(X).")
        assert subsumes(with_id(a, 1), with_id(b, 2))
        assert not subsumes(with_id(b, 2), with_id(a, 1))

    def test_substitution_is_a_function(self):
        # X cannot map to both a and b.
        g = one("p(X,X).")
        s = one("p(a,b).")
        assert not subsumes(with_id(g, 1), with_id(s, 2))

    def test_skolemize_names_variables_by_first_occurrence(self):
        clause = flat_clause(one("p(Y,f(X)) :- q(X,Y,a), r."))
        assert skolemize(clause) == (
            ("p", "$sk0", ("f", "$sk1")), (("q", "$sk1", "$sk0", "a"), ("r",)))


class TestDerivesGoal:
    def atom(self, text):
        return one(text + ".").head

    def test_family_positive(self, family_bg):
        goal = self.atom("daughter(mary,ann)")
        assert derives_goal(family_bg, [R110], goal)

    def test_family_negative(self, family_bg):
        goal = self.atom("daughter(tom,ann)")
        assert not derives_goal(family_bg, [R110], goal)

    def test_fact_lookup(self):
        bg = Background([])
        assert derives_goal(bg, [one("p(a).")], self.atom("p(a)"))
        assert not derives_goal(bg, [one("p(a).")], self.atom("p(b)"))

    def test_non_range_restricted_rule(self, family_bg):
        # An unbound head variable stands for anything.
        goal = self.atom("daughter(ian,ann)")
        assert derives_goal(family_bg, [R138], goal)

    def test_round_cap_raises(self):
        # reach/1 needs 5 rounds along the chain; cap it at 2.
        text = """
        edge(a,b). edge(b,c). edge(c,d). edge(d,e). edge(e,f).
        reach(a).
        """
        prog = rules_of(text) + [one("reach(Y) :- reach(X), edge(X,Y).")]
        bg = Background([])
        goal = self.atom("reach(f)")
        with pytest.raises(LimitExceeded):
            derives_goal(bg, prog, goal, DeriveLimits(max_depth=2))

    def test_fact_cap_raises(self):
        facts = rules_of(" ".join(f"n({i})." for i in range(30)))
        pair = one("p(X,Y) :- n(X), n(Y).")
        bg = Background([])
        with pytest.raises(LimitExceeded):
            derives_goal(bg, facts + [pair], self.atom("q(zzz)"), DeriveLimits(max_facts=100))

    def test_term_depth_cap_gives_clean_false(self):
        # f-tower growth is cut at the depth bound, giving a fixpoint.
        grower = one("p(f(X)) :- p(X).")
        seed = one("p(a).")
        bg = Background([])
        goal = self.atom("q(b)")
        assert not derives_goal(bg, [grower, seed], goal, DeriveLimits(max_term_depth=4))


class TestCovers:
    def test_derivation_covers_example(self, family_bg):
        assert covers(family_bg, with_id(R110, 1), evidence("daughter(mary,ann).", 2))

    def test_derivation_rejects_rule_100(self, family_bg):
        # A rule pair is decided by theta-subsumption: 110's body needs
        # female(X), and 100's has only female(Y).
        assert not covers(family_bg, with_id(R110, 1), with_id(R100, 2))

    def test_subsumption_mode(self, family_bg):
        assert covers(family_bg, with_id(R35, 1), with_id(R20, 2))

    def test_rule_pair_is_theta_subsumption(self, family_bg):
        # 138's body holds in the background, but 35 has no parent atom
        # for it to map into
        assert not covers(family_bg, with_id(R138, 1), with_id(R35, 2))

    def test_same_id_rejected(self, family_bg):
        with pytest.raises(ValueError):
            covers(family_bg, with_id(R110, 1), with_id(R110, 1))

    def test_background_alone_is_not_coverage(self):
        # The general clause must fire; a background that already entails
        # the head does not make an unrelated rule a coverer.
        bg = Background([one("q(a)."), one("p(X) :- q(X).")])
        unrelated = one("p(X) :- r(X).")
        target = evidence("p(a).", 9)
        assert not covers(bg, with_id(unrelated, 1), target)
        related = one("p(X) :- q(X).")
        assert covers(bg, with_id(related, 2), target)

    def test_limit_reported_as_warning(self):
        general, goal = with_id(one("goal(X) :- reach(X)."), 1), evidence("goal(e).", 2)
        assert covers(REACH_BG, general, goal)
        limits, warnings = DeriveLimits(max_depth=1), []
        assert covers(REACH_BG, general, goal, limits, on_warning=warnings.append) is False
        oracle = CoverageOracle(REACH_BG, limits)
        assert oracle.covers_pair(general, goal) is False
        assert len(warnings) == len(oracle.warnings) == 1
        # perfbench counts limit warnings by this marker
        assert all("round cap" in w for w in warnings + oracle.warnings)


class TestHeadPrefilter:
    """A pair whose heads cannot match derives nothing and warns of nothing."""

    SPECIFIC = evidence("goal(b).", 2)
    # A general's constant must equal the fact's; a variable takes it.
    MISS = with_id(one("goal(a) :- reach(a)."), 1)
    HIT = with_id(one("goal(X) :- reach(X)."), 1)

    @pytest.fixture
    def closures(self, monkeypatch):
        calls = []
        real = deduce.forward_closure

        def counted(bg, limits=DeriveLimits()):
            calls.append(bg)
            return real(bg, limits)

        monkeypatch.setattr(deduce, "forward_closure", counted)
        return calls

    def oracle(self):
        return CoverageOracle(REACH_BG, DeriveLimits(max_depth=1))

    def test_head_forms(self):
        atom = flat_atom(one("p(f(X),Y,a) :- q(X).").head)
        assert deduce.head_forms(atom) == (
            ("p", 3, ("f", 1), None, ("a", 0)),
            ("p", 3, ("f", 1), None, None),
            ("p", 3, None, None, ("a", 0)),
            ("p", 3, None, None, None),
        )
        wide = flat_atom(one("p(a,b,c,d,e).").head)
        assert len(deduce.head_forms(wide)) == 2 ** deduce.KEY_POSITIONS

    def test_incompatible_evidence_pair_derives_nothing(self, closures):
        oracle = self.oracle()
        assert not oracle.covers_pair(self.MISS, self.SPECIFIC)
        assert closures == [] and oracle.warnings == []
        warnings = []
        assert not covers(REACH_BG, self.MISS, self.SPECIFIC, DeriveLimits(max_depth=1),
                          on_warning=warnings.append)
        assert closures == [] and warnings == []

    def test_compatible_evidence_pair_still_warns(self, closures):
        oracle = self.oracle()
        assert not oracle.covers_pair(self.HIT, self.SPECIFIC)
        assert closures == [REACH_BG] and len(oracle.warnings) == 1

    def test_incompatible_evidence_pair_builds_no_saturated_store(self, closures):
        bg = Background([with_id(one("p(a)."), 90), with_id(one("q(X) :- p(X)."), 91)])
        oracle = CoverageOracle(bg, DeriveLimits())
        ev = evidence("h(a).", 50)
        assert not oracle.covers_pair(with_id(one("h(b) :- q(b)."), 1), ev)
        assert not oracle.covers_pair(with_id(one("g(X) :- q(X)."), 2), ev)
        assert closures == []
        assert oracle.covers_pair(with_id(one("h(X) :- q(X)."), 3), ev)
        assert closures == [bg]


def random_rule(rng, rid):
    preds = ["p", "q", "r"]
    consts = ["a", "b"]
    variables = ["X", "Y", "Z"]

    def term():
        return rng.choice(consts + variables)

    def atom(pred):
        return f"{pred}({term()},{term()})"

    body_n = rng.randint(0, 2)
    text = atom("p")
    if body_n:
        text += " :- " + ", ".join(atom(rng.choice(preds)) for _ in range(body_n))
    return with_id(one(text + "."), rid)


class TestProperties:
    def test_derivation_monotone_in_background(self):
        rng = random.Random(99)
        bg = Background(rules_of("q(a,b). r(b,a). q(X,Y) :- r(Y,X)."))
        extra = bg.extended([with_id(one("r(a,a)."), 9)])
        covered = gained = 0
        for _ in range(200):
            g = random_rule(rng, 1)
            s = evidence(f"p({rng.choice('ab')},{rng.choice('ab')}).", 2)
            before, after = covers(bg, g, s), covers(extra, g, s)
            assert after or not before
            covered += before
            gained += after and not before
        assert covered > 20 and gained > 0  # the generator must exercise both

    def test_determinism(self, family_bg):
        g, s = with_id(R138, 1), evidence("daughter(mary,ann).", 2)
        results = {covers(family_bg, g, s) for _ in range(5)}
        assert results == {True}

    def test_transitivity_on_family(self, family_bg):
        rules = [r for r in parse_file(FAMILY_KBR) if r.origin != BACKGROUND]
        oracle = CoverageOracle(family_bg, DeriveLimits())
        verdicts = {}
        for a in rules:
            for b in rules:
                if a.id != b.id and a.origin != "evidence":
                    verdicts[(a.id, b.id)] = oracle.covers_pair(a, b)
        by_id = {r.id: r for r in rules}
        for (a, b), ok_ab in verdicts.items():
            if not ok_ab:
                continue
            for c in by_id:
                if c in (a, b) or by_id[b].origin == "evidence":
                    continue
                if verdicts.get((b, c)):
                    assert verdicts.get((a, c)), f"{a}->{b}->{c} but not {a}->{c}"


def terms(names, max_leaves=5):
    leaf = st.one_of(st.sampled_from([Compound("a"), Compound("b"), Compound("1")]),
                     st.sampled_from(names).map(Var))
    return st.recursive(leaf, lambda sub: st.one_of(
        st.builds(lambda x: Compound("f", (x,)), sub),
        st.builds(lambda x, y: Compound("g", (x, y)), sub, sub),
    ), max_leaves=max_leaves)


def atoms(names, max_leaves=5):
    t = terms(names, max_leaves)
    return st.one_of(st.builds(lambda x, y: Atom("p", (x, y)), t, t),
                     st.builds(lambda x: Atom("q", (x,)), t))


FACT_VARS = ("X", "Y", "Z")
PATTERN_VARS = ("A", "B")  # disjoint from FACT_VARS, so facts need no renaming apart
# Bindings for copies of a fact: CYCLED renames, so it gives a variant; MERGED
# and GROUNDED give instances, which are variants only if they bind nothing.
CYCLED = {"X": Var("Y"), "Y": Var("Z"), "Z": Var("X")}
MERGED = dict.fromkeys(FACT_VARS, Var("X"))
GROUNDED = dict.fromkeys(FACT_VARS, Compound("a"))


def substituted(atom, binding):
    def term(t):
        if isinstance(t, Var):
            return binding[t.name]
        return Compound(t.functor, tuple(map(term, t.args)))
    return Atom(atom.pred, tuple(map(term, atom.args)))


class TestFactStore:
    # Without the explain phase, which here takes most of a failing run.
    @settings(max_examples=100, deadline=None, phases=[p for p in Phase if p != Phase.explain])
    @given(st.lists(atoms(FACT_VARS), min_size=18, max_size=30),
           st.lists(atoms(PATTERN_VARS), min_size=1, max_size=12))
    def test_keys_refuse_exactly_variants_and_candidates_are_complete(self, facts, patterns):
        # Copies of earlier facts: variants, instances and ground instances.
        facts += [substituted(a, b) for b in (CYCLED, MERGED, GROUNDED) for a in facts[::3]]
        store, stored = FactStore(), []  # stored: (atom, its flat fact)
        shaped = FactStore()  # the same facts through the reference add
        for atom in facts:
            new = not any(is_variant(atom, old) for old, _ in stored)
            fact = flat_atom(atom)
            assert store.add(fact, all(map(is_ground, atom.args))) == new, atom
            assert reference_add(shaped, fact) == new, atom
            if new:
                stored.append((atom, fact))
        assert store.count == len(stored)
        assert vars(store) == vars(shaped)
        ground = [a for a, _ in stored if all(map(is_ground, a.args))]
        instances = [grounded(a, c) for a, _ in stored for c in ("a", "ab")]
        for pattern in patterns + ground + instances:
            flat = flat_atom(pattern)
            found = {id(f) for f in store.candidates(flat)}
            assert all(id(f) in found
                       for a, f in stored if unify_atoms(pattern, a, {}) is not None)
            if all(map(is_ground, pattern.args)):
                # a ground goal's lookup is exact: the facts it is an instance of
                assert sorted(map(id, store.generalisations(flat))) == sorted(
                    id(f) for a, f in stored if match_atom(a, pattern, {}) is not None)

    def test_a_ground_argument_narrows_to_its_bucket_and_the_wildcards(self):
        facts = [flat_atom(Atom("p", (Compound(str(i)), Var("X")))) for i in range(20)]
        wild = flat_atom(Atom("p", (Var("X"), Compound("f", (Compound("a"),)))))
        store = FactStore()
        assert all(store.add(f, False) for f in facts + [wild])
        assert store.candidates(("p", "3", "b")) == [facts[3], wild]


class TestFlatKernel:
    """Hand-built cases for the flat fact store and the join."""

    @staticmethod
    def fact(text):
        return flat_atom(one(text + ".").head)

    @staticmethod
    def fires(general, goal, store):
        return deduce.general_fires(flat_clause(general), flat_atom(goal), store)

    def test_open_fact_with_a_repeated_variable_answers_only_its_instances(self):
        fillers = [f"move(rook,pos({f},1),pos({f},3))" for f in "abcdefgh"]
        bg = Background([with_id(one(t + "."), n) for n, t in enumerate(
            fillers + ["move(rook,pos(V,1),pos(V,2))"])])
        store = deduce.forward_closure(bg)
        (wild,) = store.generalisations(self.fact("move(rook,pos(a,1),pos(a,2))"))
        assert wild == self.fact("move(rook,pos(V,1),pos(V,2))")
        assert store.generalisations(self.fact("move(rook,pos(a,1),pos(b,2))")) == []
        goal = one("hit(a,a).").head
        general = with_id(one("hit(X,Y) :- move(rook,pos(X,1),pos(Y,2))."), 99)
        assert self.fires(general, goal, store)
        assert not self.fires(general, one("hit(a,b).").head, store)

    def test_ground_subgoal_reads_last_rounds_facts_only_at_position_k(self):
        store = FactStore()
        old = [self.fact(t) for t in ("r(a)", "r(f(V))", "r(h(c))")]
        new = [self.fact(t) for t in ("r(b)", "r(g(V))", "r(h(V))")]
        assert all(store.add(f, deduce._ground(f)) for f in old + new)
        delta = {("r", 1): {id(f): f for f in new}}

        def joins(goal, k):
            body = (self.fact(goal),)
            return any(True for _ in deduce._join(body, {}, store, None, delta, k))

        # (goal, found among old facts, found among new facts)
        for goal, in_old, in_new in [("r(a)", True, False), ("r(f(c))", True, False),
                                     ("r(b)", False, True), ("r(g(c))", False, True),
                                     ("r(h(c))", True, True), ("r(c)", False, False)]:
            assert joins(goal, 1) == in_old, goal   # position 0 < k
            assert joins(goal, 0) == in_new, goal   # position 0 == k
            assert joins(goal, -1) == (in_old or in_new), goal

    def test_open_fact_derived_twice_under_different_names_is_stored_once(self):
        texts = ["q(b).", "p(A,f(A)) :- q(b).", "p(B,f(B)) :- q(b).", "p(C,f(D)) :- q(b).",
                 "r(X,f(X)) :- p(X,f(X)).", "r(Y,Z) :- p(Y,Z)."]
        store = deduce.forward_closure(Background(
            [with_id(one(t), n) for n, t in enumerate(texts)]))
        # q(b); p(V,f(V)) and p(V,f(W)); from them, in the next round,
        # r(V,f(V)) twice over and r(V,f(W))
        assert store.count == 5
        assert [len(store.by_pred[k]) for k in (("p", 2), ("r", 2))] == [2, 2]
        assert all(store.add(self.fact(t), False) is False
                   for t in ("p(Z,f(Z))", "p(Y,f(X))", "r(W,f(W))"))


FLAT_VARS = ("X", "Y", "$F0", "$F1", "$F2")  # clause variables, then fresh ones


def flat_terms(names, max_leaves=5):
    leaf = st.sampled_from(["a", "b"])
    if names:
        leaf = leaf | st.sampled_from(names).map(Var)
    return st.recursive(leaf, lambda sub: st.one_of(
        st.tuples(st.just("f"), sub), st.tuples(st.just("g"), sub, sub)), max_leaves=max_leaves)


@st.composite
def substitutions(draw):
    """Bindings in which a variable's term names only later variables, so
    chains such as X -> f($F0), $F0 -> $F1 end, as a join's bindings do."""
    subst = {}
    for i, name in enumerate(FLAT_VARS):
        if draw(st.booleans()):
            subst[name] = draw(flat_terms(FLAT_VARS[i + 1:]))
    return subst


class TestOneWalk:
    """`_build` against the separate walks in oracles.py."""

    @settings(max_examples=200, deadline=None)
    @example(("p", Var("X"), "a"), {"X": ("f", Var("$F0")), "$F0": Var("$F1"), "$F1": "b"})
    @example(("p", ("g", Var("Y"), Var("$F2"))), {"Y": Var("$F0"), "$F0": ("f", ("f", "a"))})
    @given(st.one_of(flat_terms(FLAT_VARS),
                     st.tuples(st.just("p"), flat_terms(FLAT_VARS), flat_terms(FLAT_VARS))),
           substitutions())
    def test_build_is_resolve_depth_and_groundness(self, term, subst):
        want = reference_resolve(term, subst)
        assert deduce._build(term, subst) == (
            want, reference_depth(want), is_ground(term_of(want)))


def clauses(names):
    # Small terms, so that joins of several body atoms succeed.
    return st.tuples(atoms(names, 2), st.lists(atoms(names, 2), min_size=1, max_size=3))


def numbered(specs, start):
    """Rules from (head, body) pairs, or from bare atoms as facts."""
    return [Rule(id=start + n, head=s[0], body=tuple(s[1])) if isinstance(s, tuple)
            else Rule(id=start + n, head=s) for n, s in enumerate(specs)]


def saturate(extend, parts, store, bg, grown, limits):
    """Saturate `bg` into the empty `store`, then extend by what `grown`
    adds, as an oracle does after a promotion; gives the store and the
    LimitExceeded message.  `parts` gives a background's clauses with a
    body and its facts, in the terms `extend` takes."""
    added = Background([r for r in grown.rules if r.id not in bg.rule_ids])
    clauses, facts = parts(bg)
    try:
        extend(store, clauses, (), facts, limits)
        extend(store, parts(grown)[0], *parts(added), limits)
    except LimitExceeded as exc:
        return store, str(exc)
    return store, None


def grounded(atom, constants):
    return rename_atom(atom, {}, lambda n: Compound(constants[n % len(constants)]))


class TestSemiNaiveJoin:
    """The delta-driven join against the whole-store reference in oracles.py.

    Programs over p/2 and q/1 recurse, repeat variables, nest terms and
    have heads that are not range-restricted; facts may hold variables.
    Saturating with max_depth = 1, 2, ... stops after that many rounds,
    so the stores compared are each round's."""

    @settings(max_examples=100, deadline=None, phases=[p for p in Phase if p != Phase.explain])
    # Round 2 derives q(1) only from p(b,1), old, at position 0 and q(b),
    # new, at position 1, in a round whose delta holds p and q facts.
    @example([r.head for r in rules_of("p(a,b). p(b,1). q(a).")],
             [(r.head, list(r.body))
              for r in rules_of("q(Y) :- p(X,Y), q(X). p(Y,f(Y)) :- q(Y).")],
             [], [], 4, 30, 2)
    @given(st.lists(atoms(FACT_VARS, 2), min_size=1, max_size=8),
           st.lists(clauses(FACT_VARS), min_size=1, max_size=3),
           st.lists(st.one_of(atoms(FACT_VARS, 2), clauses(FACT_VARS)), max_size=3),
           st.lists(atoms(FACT_VARS), max_size=4),
           st.integers(1, 4), st.integers(4, 30), st.integers(1, 3))
    def test_rounds_and_fires_match_the_reference(self, facts, rules, added, goals,
                                                  max_depth, max_facts, max_term_depth):
        bg = Background(numbered(facts + rules, 0))
        grown = bg.extended(numbered(added, 100))
        for depth in range(1, max_depth + 1):
            limits = DeriveLimits(depth, max_facts, max_term_depth)
            store, hit = saturate(deduce.extend_closure, lambda b: (b.clauses, b.facts),
                                  FactStore(), bg, grown, limits)
            want, want_hit = saturate(reference_extend_closure, background_atoms,
                                      ReferenceStore(), bg, grown, limits)
            assert hit == want_hit
            assert store.count == want.count
            assert same_facts_modulo_variants(stored_atoms(store), want.atoms())
        goals = [grounded(a, c) for a in goals + stored_atoms(store) for c in ("a", "ab")]
        for general in background_atoms(grown)[0]:
            for goal in goals:
                assert (deduce.general_fires(flat_clause(general), flat_atom(goal), store)
                        == reference_general_fires(general, goal, want)), (general, goal)


class TestIncrementalFixture:
    """Saturate the incremental scenario's consolidated rules as a run does:
    the rook and bishop clauses that unit 1 consolidates, then the queen
    clause through the rook, then the one through the bishop."""

    @staticmethod
    def from_fixture(name, texts):
        by_text = {render_rule(r): r for r in parse_file(os.path.join(CHESS_DIR, name))}
        return [by_text[t] for t in texts]

    def test_counts_and_facts_match_the_reference(self):
        limits = DeriveLimits()
        bg = parse_file(os.path.join(CHESS_DIR, "background.kbr"))
        pieces = self.from_fixture("rook_bishop_candidates.kbr", [
            "move(rook,pos(F,R1),pos(F,R2)) :- diff(R1,R2,D).",
            "move(rook,pos(F1,R),pos(F2,R)) :- diff(F1,F2,D).",
            "move(bishop,pos(F1,R1),pos(F2,R2)) :- diff(F1,F2,D), diff(R1,R2,D).",
        ])
        queens = self.from_fixture("queen_candidates.kbr", [
            "move(queen,P1,P2) :- move(rook,P1,P2).",
            "move(queen,P1,P2) :- move(bishop,P1,P2).",
        ])
        rules = [with_id(r, n) for n, r in enumerate(bg + pieces + queens)]
        base = Background(rules[:-2])
        store = deduce.forward_closure(base, limits=limits)
        want = ReferenceStore()
        clauses, facts = background_atoms(base)
        reference_extend_closure(want, clauses, (), facts, limits)

        def same():
            return store.count, same_facts_modulo_variants(stored_atoms(store), want.atoms())

        seen = [same()]
        for n, queen in enumerate(rules[-2:]):
            grown = base.extended(rules[-2:][:n + 1])
            deduce.extend_closure(store, grown.clauses, [flat_clause(queen)], [], limits)
            reference_extend_closure(want, background_atoms(grown)[0], [queen], [], limits)
            seen.append(same())
        assert seen == [(2576, True), (2800, True), (5040, True)]


class TestBackground:
    def test_rejects_evidence(self):
        (ev,) = parse_program("#classes +\n#evidence +\nf(a).")
        with pytest.raises(ValueError):
            Background([ev])

    def test_versioning(self):
        bg = Background([one("k(a).")])
        grown = bg.extended([with_id(one("k(b)."), 7)])
        assert len(grown) == 2
        shrunk = grown.without_ids([7])
        assert len(shrunk) == 1 and shrunk.fingerprint == bg.fingerprint

    def test_versions_keep_their_rules_clauses(self, family_bg):
        # extended and without_ids reuse the flat clauses they hold
        extra = [with_id(one("female(X) :- parent(Y,X)."), 900), with_id(one("k(b)."), 901)]
        grown = family_bg.extended(extra)
        shrunk = grown.without_ids([900, family_bg.rules[0].id])
        for version in (grown, shrunk):
            fresh = Background(version.rules)
            assert [vars(version)[k] for k in vars(fresh)] == list(vars(fresh).values())


class TestOracle:
    def test_matches_direct_covers_on_family(self, family_bg):
        rules = [r for r in parse_file(FAMILY_KBR) if r.origin != BACKGROUND]
        oracle = CoverageOracle(family_bg, DeriveLimits())
        for a in rules:
            if a.origin == "evidence":
                continue
            for b in rules:
                if a.id == b.id:
                    continue
                direct = covers(family_bg, a, b, oracle.limits)
                assert oracle.covers_pair(a, b) == direct

    def test_cache_survives_background_growth(self, family_bg):
        oracle = CoverageOracle(family_bg, DeriveLimits())
        ev = parse_program("#classes + -\n#evidence +\ndaughter(mary,ann).")[0]
        ev = with_id(ev, 50)
        before = oracle.covers_pair(with_id(R110, 1), ev)
        oracle.set_background(family_bg.extended([with_id(R138, 60)]))
        after = oracle.covers_pair(with_id(R110, 1), ev)
        assert before is True and after is True

    def test_sibling_background_replaces_current(self):
        # Two extensions of one background: the oracle must decide against
        # the one it was handed last.
        fb = Background([with_id(one("p(a)."), 90)])
        general = with_id(one("h(X) :- p(X), r(X)."), 1)
        ev = with_id(parse_program("#classes + -\n#evidence +\nh(a).")[0], 50)
        oracle = CoverageOracle(fb.extended([with_id(one("q(a)."), 91)]), DeriveLimits())
        assert not oracle.covers_pair(general, ev)
        oracle.set_background(fb.extended([with_id(one("r(a)."), 92)]))
        assert oracle.covers_pair(general, ev)


@st.composite
def clause_pairs(draw):
    """A general and a specific over shared constants, functors and
    variable names, with a zero-arity atom among the atoms: half the time
    an instance of the general with its body shuffled and grown, so
    theta-subsumption holds, otherwise an unrelated clause."""
    names = ("X", "Y", "Z")
    atom = atoms(names, 3) | st.just(Atom("r"))
    head, *body = draw(st.lists(atom, min_size=1, max_size=4))
    general = Rule(1, head, tuple(body))
    if draw(st.booleans()):
        binding = {n: draw(terms(names, 3)) for n in names}
        s_head, *s_body = (substituted(a, binding) for a in general.atoms())
        s_body += draw(st.lists(atom, max_size=2))
        return general, Rule(2, s_head, tuple(draw(st.permutations(s_body)))), True
    s_head, *s_body = draw(st.lists(atom, min_size=1, max_size=4))
    return general, Rule(2, s_head, tuple(s_body)), False


def rule_pair(general, specific, instance):
    return with_id(one(general), 1), with_id(one(specific), 2), instance


class TestOneMatcher:
    """The flat `theta_subsumes`, on the skolemized specific, against the
    Atom-level reference in oracles.py."""

    # Repeated variables on either side, the same names on both, nested
    # compounds, a zero-arity atom, and the constants a and 1.
    @settings(max_examples=300, deadline=None)
    @example(rule_pair("p(X,X) :- q(f(X)).", "p(Y,Y) :- q(f(Y)), r.", True))
    @example(rule_pair("p(X,Y) :- q(X), q(Y).", "p(a,1) :- q(1), q(a).", True))
    @example(rule_pair("p(X,X).", "p(X,Y).", False))
    @example(rule_pair("p(X,g(X,Y)) :- r.", "p(1,g(1,f(a))) :- q(a), r.", True))
    @example(rule_pair("p(X,Y) :- q(g(X,Y)).", "p(Y,X) :- q(g(X,Y)).", False))
    @given(clause_pairs())
    def test_flat_search_equals_the_reference(self, pair):
        general, specific, instance = pair
        assert subsumes(general, specific) or not instance


class TestSubsumptionGate:
    """The signature in `VerdictStore.forms` may only rule out pairs
    theta-subsumption rejects, and the oracle's subsumption verdicts stay
    the reference's."""

    def test_every_fixture_and_synth_pair(self):
        paths = [FAMILY_KBR, *(os.path.join(CHESS_DIR, n) for n in sorted(os.listdir(CHESS_DIR)))]
        rules = [r for path in paths if path.endswith(".kbr") for r in parse_file(path)]
        rules += [r for pool in TestCompiledForms.synth_pool().values() for r in pool]
        rules, verdicts = [with_id(r, i) for i, r in enumerate(rules)], VerdictStore()
        sigs = [verdicts.forms(canonical_form(r), r).signature for r in rules]
        by_head = {}
        for i, r in enumerate(rules):
            by_head.setdefault(r.head.key, []).append(i)
        # theta-subsumption matches the heads first, so a pair of two head
        # predicates holds nowhere; every other ordered pair is checked.
        gated = 0
        for group in by_head.values():
            for i in group:
                for j in group:
                    if sigs[i] & ~sigs[j]:
                        gated += 1
                        assert not reference_theta_subsumes(rules[i], rules[j]), (rules[i],
                                                                                  rules[j])
        assert gated > 0.9 * sum(len(g) ** 2 for g in by_head.values())
        # the oracle, on the fixture pairs of one head predicate and a sample
        # of the synth candidates; an evidence specific is a firing pair
        oracle = CoverageOracle(Background([]), DeriveLimits(), verdicts=verdicts)
        held = 0
        for key, group in by_head.items():
            sample = [rules[i] for i in (group[::10] if key == ("t", 2) else group)]
            for general in sample:
                for specific in (r for r in sample if r.origin != EVIDENCE):
                    want = reference_theta_subsumes(general, specific)
                    held += want and general is not specific
                    assert oracle.covers_pair(general, specific) == want, (general, specific)
        assert held > 100

    @settings(max_examples=150, deadline=None)
    @given(clause_pairs())
    def test_random_pairs(self, pair):
        general, specific, instance = pair
        verdicts = VerdictStore()
        held = reference_theta_subsumes(general, specific)
        assert held or not instance
        if held:
            def sig(rule):
                return verdicts.forms(canonical_form(rule), rule).signature
            assert not sig(general) & ~sig(specific)
        oracle = CoverageOracle(Background([]), DeriveLimits(), verdicts=verdicts)
        assert oracle.covers_pair(general, specific) == held

    def test_a_pair_only_constants_rule_out_runs_no_matcher(self, monkeypatch):
        calls = []
        real = deduce.theta_subsumes
        monkeypatch.setattr(deduce, "theta_subsumes", lambda g, s: calls.append(g) or real(g, s))
        oracle = CoverageOracle(Background([]), DeriveLimits())
        general = with_id(one("p(X) :- q(X,a)."), 1)
        assert not oracle.covers_pair(general, with_id(one("p(Y) :- q(Y,b)."), 2))
        assert not oracle.covers_pair(general, with_id(one("p(f(Y)) :- q(f(Y),b)."), 3))
        assert calls == []
        assert oracle.covers_pair(general, with_id(one("p(b) :- q(b,a), r(b)."), 4))
        assert calls == [flat_clause(general)]


class TestVerdictStore:
    """Which verdicts outlive a background change, and sharing a store."""

    def ev(self, text, rid=50):
        (r,) = parse_program(f"#classes + -\n#evidence +\n{text}")
        return with_id(r, rid)

    @pytest.fixture
    def fires(self, monkeypatch):
        calls = []
        real = deduce.general_fires

        def counted(general, goal, store):
            calls.append(general)
            return real(general, goal, store)

        monkeypatch.setattr(deduce, "general_fires", counted)
        return calls

    def test_clause_only_promotion_keeps_facts_only_verdicts(self, fires):
        bg = Background([with_id(one("p(a)."), 90), with_id(one("q(a)."), 91)])
        oracle = CoverageOracle(bg, DeriveLimits())
        general, ev = with_id(one("h(X) :- p(X)."), 1), self.ev("h(a).")
        assert oracle.covers_pair(general, ev)
        grown = bg.extended([with_id(one("r(X) :- q(X)."), 92)])
        assert grown.fingerprint == bg.fingerprint
        oracle.set_background(grown)
        assert oracle.covers_pair(general, ev)
        assert fires == [flat_clause(general)]

    def test_promoted_fact_flips_facts_only_verdict(self, fires):
        bg = Background([with_id(one("p(a)."), 90)])
        oracle = CoverageOracle(bg, DeriveLimits())
        general, ev = with_id(one("h(X) :- p(X), q(X)."), 1), self.ev("h(a).")
        assert not oracle.covers_pair(general, ev)
        oracle.set_background(bg.extended([with_id(one("q(a)."), 91)]))
        assert oracle.covers_pair(general, ev)
        assert fires == [flat_clause(general)] * 2

    def test_saturated_verdict_decided_again_after_change(self, fires):
        bg = Background([with_id(one("p(a)."), 90), with_id(one("q(X) :- p(X)."), 91)])
        oracle = CoverageOracle(bg, DeriveLimits())
        general, ev = with_id(one("h(X) :- q(X)."), 1), self.ev("h(a).")
        assert oracle.covers_pair(general, ev)
        assert oracle.covers_pair(general, ev)
        assert fires == [flat_clause(general)]
        oracle.set_background(bg.extended([with_id(one("s(X) :- p(X)."), 92)]))
        assert oracle.covers_pair(general, ev)
        assert fires == [flat_clause(general)] * 2

    def test_goals_with_the_same_body_bindings_share_one_firing(self, fires):
        # The body reads no head variable, so both goals project to nothing.
        bg = Background([with_id(one("p(a,b)."), 90)])
        oracle = CoverageOracle(bg, DeriveLimits())
        general = with_id(one("h(X,Y) :- p(a,Z)."), 1)
        evidence = [self.ev("h(1,2)."), self.ev("h(3,4).", 51)]
        assert [oracle.covers_pair(general, ev) for ev in evidence] == [True, True]
        assert fires == [flat_clause(general)]
        # a head that does not match the goal is decided without firing
        assert not oracle.covers_pair(with_id(one("h(X,X) :- p(a,Z)."), 2), evidence[0])
        assert fires == [flat_clause(general)]
        assert [covers(bg, general, ev) for ev in evidence] == [True, True]

    def test_saturated_shared_verdict_flips_after_a_clause_promotion(self, fires):
        # Two goals with one projection (X = a): the second, asked only after
        # the promotion, must not read the first one's verdict from before it.
        bg = Background([with_id(one("p(a)."), 90), with_id(one("q(X) :- p(X)."), 91)])
        oracle = CoverageOracle(bg, DeriveLimits())
        general = with_id(one("h(X,Y) :- q(X), s(X)."), 1)
        before, after = self.ev("h(a,1)."), self.ev("h(a,2).", 51)
        assert not oracle.covers_pair(general, before)
        grown = bg.extended([with_id(one("s(X) :- p(X)."), 92)])
        assert grown.fingerprint == bg.fingerprint
        oracle.set_background(grown)
        assert oracle.covers_pair(general, after) and oracle.covers_pair(general, before)
        assert fires == [flat_clause(general)] * 2

    def test_oracle_agrees_with_direct_firing_on_the_pools(self):
        chess = {name: [with_id(r, 10_000 * n + i) for i, r in enumerate(
            parse_file(os.path.join(CHESS_DIR, f"{name}.kbr")))]
            for n, name in enumerate((
                "background", "candidates", "evidence", "rook_bishop_candidates",
                "rook_bishop_evidence", "queen_candidates", "queen_evidence"))}
        bg = Background(chess["background"])
        generals = [r for name in chess if name.endswith("candidates") for r in chess[name]]
        evidence = [r for name in chess if name.endswith("evidence") for r in chess[name]]
        _, covered = TestCompiledForms.check(bg, generals, evidence)
        assert covered > 0
        # queen rules that read rook and bishop moves fire against the saturated store
        promoted = bg.extended(chess["rook_bishop_candidates"][:3])
        _, covered = TestCompiledForms.check(promoted, chess["queen_candidates"],
                                             chess["queen_evidence"])
        assert covered > 0  # synth pool 1: TestCompiledForms.test_synth_pool_pairs

    def test_shared_store_agrees_with_separate_stores(self, family_bg):
        rules = [r for r in parse_file(FAMILY_KBR) if r.origin != BACKGROUND]
        generals = [r for r in rules if r.origin != "evidence"]
        pairs = [(a, b) for a in generals for b in rules if a.id != b.id]
        # One chain of versions; each change flips a verdict, through the
        # saturated store (900, 902) or through the raw facts (901).
        derived = family_bg.extended([with_id(one("female(X) :- parent(Y,X)."), 900)])
        fact = derived.without_ids([900]).extended([with_id(one("parent(ann,eve)."), 901)])
        chain = one("parent(X,Z) :- parent(X,Y), parent(Y,Z).")
        other = fact.without_ids([901]).extended([with_id(chain, 902)])
        orders = ((family_bg, derived, fact, other), (other, fact, derived, family_bg))

        def verdicts(oracles):
            out = []
            for oracle, order in zip(oracles, orders):
                for bg in order:
                    oracle.set_background(bg)
                    out.append([oracle.covers_pair(a, b) for a, b in pairs])
            return out

        limits, store = DeriveLimits(), VerdictStore()
        shared = [CoverageOracle(order[0], limits, verdicts=store) for order in orders]
        alone = [CoverageOracle(order[0], limits) for order in orders]
        direct = [
            [covers(bg, a, b) for a, b in pairs]
            for order in orders for bg in order
        ]
        assert len({tuple(v) for v in direct}) == 3
        assert verdicts(shared) == verdicts(alone) == direct


class TestCompiledForms:
    """Verdicts from the forms `VerdictStore.forms` keeps per canonical key,
    and the oracle's, against the reference join on every pair of a
    general and an evidence fact of a pool."""

    @staticmethod
    def check(bg, generals, specifics):
        """Asserts every pair's verdicts; gives the store and covered pairs."""
        store = deduce.forward_closure(bg)
        want = ReferenceStore()
        clauses, facts = background_atoms(bg)
        reference_extend_closure(want, clauses, (), facts, DeriveLimits())
        keys = {r.id: canonical_form(r) for r in [*generals, *specifics]}
        verdicts = VerdictStore()
        oracle = CoverageOracle(bg, DeriveLimits(), keys=keys, verdicts=verdicts)
        covered = 0
        for general in generals:
            for specific in specifics:
                clause = verdicts.forms(keys[general.id], general).clause
                goal = verdicts.forms(keys[specific.id], specific).skolemized[0]
                expected = reference_general_fires(general, atom_of(goal), want)
                assert deduce.general_fires(clause, goal, store) == expected, (general, specific)
                assert oracle.covers_pair(general, specific) == expected, (general, specific)
                covered += expected
        return verdicts, covered

    def test_family_pairs_and_renamed_twins(self, family_bg):
        rules = [r for r in parse_file(FAMILY_KBR) if r.origin != BACKGROUND]
        twins = [with_id(R110, 800),
                 with_id(one("daughter(A,B) :- female(A), parent(B,A)."), 801)]
        key = canonical_form(twins[0])
        assert canonical_form(twins[1]) == key
        generals = [r for r in rules if r.origin != EVIDENCE] + twins
        evidence = [r for r in rules if r.origin == EVIDENCE]
        derived = family_bg.extended([with_id(one("female(X) :- parent(Y,X)."), 900)])
        counts = []
        for bg in (family_bg, derived):
            verdicts, covered = self.check(bg, generals, evidence)
            counts.append(covered)
            # the second twin reads the first one's clause
            first, second = (verdicts.forms(key, t).clause for t in twins)
            assert first is second == flat_clause(twins[0])
        assert 0 < counts[0] < counts[1]

    @staticmethod
    def synth_pool():
        files = synth.generate(1, synth.SIZE)
        return {name: [with_id(r, 10_000 * n + i)
                       for i, r in enumerate(parse_program(files[f"{name}.kbr"]))]
                for n, name in enumerate(("background", "evidence", "candidates"))}

    def test_synth_pool_pairs(self):
        pool = self.synth_pool()
        _, covered = self.check(Background(pool["background"]), pool["candidates"],
                                pool["evidence"])
        assert covered > 0

    def test_synth_pool_with_a_recursive_clause(self):
        # A transitive p0 takes saturation through several rounds, so each
        # round after the first joins the clause against a delta, at both
        # body positions: the store must equal the naive fixpoint.
        pool = self.synth_pool()
        transitive = with_id(one("p0(X,Z) :- p0(X,Y), p0(Y,Z)."), 9_999)
        bg = Background([*pool["background"], transitive])
        want = reference_naive_closure(*background_atoms(bg), DeriveLimits())
        assert len(want.by_pred[("p0", 2)]) > 2 * len(bg.facts) // synth.N_PREDICATES
        assert same_facts_modulo_variants(stored_atoms(deduce.forward_closure(bg)), want.atoms())
        # the generals that read p0 fire against that saturated store
        _, covered = self.check(bg, pool["candidates"][::8], pool["evidence"])
        assert covered > 0
