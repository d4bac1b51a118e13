import random

import pytest

from covkb import deduce
from covkb.deduce import (
    DERIVATION,
    SUBSUMPTION,
    Background,
    CoverageConfig,
    CoverageOracle,
    DeriveLimits,
    LimitExceeded,
    VerdictStore,
    covers,
    theta_subsumes,
)
from covkb.parser import parse_file, parse_program
from covkb.rules import BACKGROUND, Rule

from conftest import FAMILY_KBR
from oracles import derives_goal


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


class TestThetaSubsumption:
    def test_most_general_subsumes_110(self):
        assert theta_subsumes(with_id(R138, 1), with_id(R110, 2))

    def test_no_parent_atom_blocks(self):
        assert not theta_subsumes(with_id(R138, 1), with_id(R35, 2))

    def test_self_subsumption(self):
        assert theta_subsumes(with_id(R110, 1), with_id(R110, 2))

    def test_35_subsumes_20(self):
        assert theta_subsumes(with_id(R35, 1), with_id(R20, 2))

    def test_ground_head_cannot_generalise(self):
        assert not theta_subsumes(with_id(R20, 1), with_id(R35, 2))

    def test_shared_variable_names_are_harmless(self):
        a = one("p(X) :- q(X).")
        b = one("p(X) :- q(X), r(X).")
        assert theta_subsumes(with_id(a, 1), with_id(b, 2))
        assert not theta_subsumes(with_id(b, 2), with_id(a, 1))

    def test_substitution_is_a_function(self):
        # X cannot map to both a and b.
        g = one("p(X,X).")
        s = one("p(a,b).")
        assert not theta_subsumes(with_id(g, 1), with_id(s, 2))


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
    def ev(self, text, rid):
        (r,) = parse_program(f"#classes + -\n#evidence +\n{text}")
        return with_id(r, rid)

    def test_derivation_covers_example(self, family_bg):
        assert covers(family_bg, with_id(R110, 1), self.ev("daughter(mary,ann).", 2), DERIVATION)

    def test_derivation_rejects_rule_100(self, family_bg):
        # Skolemised body of 100 gives female(sk), parent(sk,mary);
        # daughter(sk0,sk1) is then underivable with 110.
        assert not covers(family_bg, with_id(R110, 1), with_id(R100, 2), DERIVATION)

    def test_subsumption_mode(self, family_bg):
        assert covers(family_bg, with_id(R35, 1), with_id(R20, 2), SUBSUMPTION)

    def test_same_id_rejected(self, family_bg):
        with pytest.raises(ValueError):
            covers(family_bg, with_id(R110, 1), with_id(R110, 1), DERIVATION)

    def test_background_alone_is_not_coverage(self):
        # The general clause must fire; a background that already entails
        # the head does not make an unrelated rule a coverer.
        bg = Background([one("q(a)."), one("p(X) :- q(X).")])
        unrelated = one("p(X) :- r(X).")
        target = self.ev("p(a).", 9)
        assert not covers(bg, with_id(unrelated, 1), target, DERIVATION)
        related = one("p(X) :- q(X).")
        assert covers(bg, with_id(related, 2), target, DERIVATION)

    def test_limit_reported_as_warning(self):
        warnings = []
        bg = Background(
            rules_of("edge(a,b). edge(b,c). edge(c,d). edge(d,e).")
            + [one("reach(Y) :- reach(X), edge(X,Y).")]
        )
        specific = one("goal(X) :- reach(a).")
        general = one("goal(X) :- edge(a,X).")
        out = covers(
            bg,
            with_id(general, 1),
            with_id(specific, 2),
            DERIVATION,
            DeriveLimits(max_depth=1),
            on_warning=warnings.append,
        )
        assert out is False
        assert warnings


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
    def test_subsumption_implies_derivation_coverage(self):
        rng = random.Random(20240601)
        bg = Background([])
        pairs = 0
        for _ in range(400):
            g = random_rule(rng, 1)
            s = random_rule(rng, 2)
            if theta_subsumes(g, s):
                pairs += 1
                assert covers(bg, g, s, DERIVATION)
        assert pairs > 20  # the generator must actually exercise the property

    def test_derivation_monotone_in_background(self, family_bg):
        rng = random.Random(99)
        extra = Background(list(family_bg.rules) + [one("female(zoe).")])
        for _ in range(120):
            g = random_rule(rng, 1)
            s = random_rule(rng, 2)
            if covers(family_bg, g, s, DERIVATION):
                assert covers(extra, g, s, DERIVATION)

    def test_determinism(self, family_bg):
        g, s = with_id(R138, 1), with_id(R110, 2)
        results = {covers(family_bg, g, s, DERIVATION) for _ in range(5)}
        assert results == {True}

    def test_transitivity_on_family(self, family_bg):
        rules = [r for r in parse_file(FAMILY_KBR) if r.origin != BACKGROUND]
        cfg = CoverageConfig()
        oracle = CoverageOracle(family_bg, cfg)
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


class TestOracle:
    def test_matches_direct_covers_on_family(self, family_bg):
        rules = [r for r in parse_file(FAMILY_KBR) if r.origin != BACKGROUND]
        cfg = CoverageConfig()
        oracle = CoverageOracle(family_bg, cfg)
        for a in rules:
            if a.origin == "evidence":
                continue
            for b in rules:
                if a.id == b.id:
                    continue
                mode = DERIVATION if b.origin == "evidence" else SUBSUMPTION
                direct = covers(family_bg, a, b, mode, cfg.limits)
                assert oracle.covers_pair(a, b) == direct

    def test_cache_survives_background_growth(self, family_bg):
        cfg = CoverageConfig()
        oracle = CoverageOracle(family_bg, cfg)
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
        oracle = CoverageOracle(fb.extended([with_id(one("q(a)."), 91)]), CoverageConfig())
        assert not oracle.covers_pair(general, ev)
        oracle.set_background(fb.extended([with_id(one("r(a)."), 92)]))
        assert oracle.covers_pair(general, ev)


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
            calls.append(general.id)
            return real(general, goal, store)

        monkeypatch.setattr(deduce, "general_fires", counted)
        return calls

    def test_clause_only_promotion_keeps_facts_only_verdicts(self, fires):
        bg = Background([with_id(one("p(a)."), 90), with_id(one("q(a)."), 91)])
        oracle = CoverageOracle(bg, CoverageConfig())
        general, ev = with_id(one("h(X) :- p(X)."), 1), self.ev("h(a).")
        assert oracle.covers_pair(general, ev)
        grown = bg.extended([with_id(one("r(X) :- q(X)."), 92)])
        assert grown.fingerprint == bg.fingerprint
        oracle.set_background(grown)
        assert oracle.covers_pair(general, ev)
        assert fires == [1]

    def test_promoted_fact_flips_facts_only_verdict(self, fires):
        bg = Background([with_id(one("p(a)."), 90)])
        oracle = CoverageOracle(bg, CoverageConfig())
        general, ev = with_id(one("h(X) :- p(X), q(X)."), 1), self.ev("h(a).")
        assert not oracle.covers_pair(general, ev)
        oracle.set_background(bg.extended([with_id(one("q(a)."), 91)]))
        assert oracle.covers_pair(general, ev)
        assert fires == [1, 1]

    def test_saturated_verdict_decided_again_after_change(self, fires):
        bg = Background([with_id(one("p(a)."), 90), with_id(one("q(X) :- p(X)."), 91)])
        oracle = CoverageOracle(bg, CoverageConfig())
        general, ev = with_id(one("h(X) :- q(X)."), 1), self.ev("h(a).")
        assert oracle.covers_pair(general, ev)
        assert oracle.covers_pair(general, ev)
        assert fires == [1]
        oracle.set_background(bg.extended([with_id(one("s(X) :- p(X)."), 92)]))
        assert oracle.covers_pair(general, ev)
        assert fires == [1, 1]

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

        cfg = CoverageConfig()
        store = VerdictStore()
        shared = [CoverageOracle(order[0], cfg, verdicts=store) for order in orders]
        alone = [CoverageOracle(order[0], cfg) for order in orders]
        direct = [
            [covers(bg, a, b, DERIVATION if b.origin == "evidence" else SUBSUMPTION)
             for a, b in pairs]
            for order in orders for bg in order
        ]
        assert len({tuple(v) for v in direct}) == 3
        assert verdicts(shared) == verdicts(alone) == direct


class TestCoverageModeKnobs:
    def test_rule_rule_derivation_is_weaker_than_subsumption(self, family_bg):
        # Under theta-subsumption the most general rule does not cover the
        # bodiless-chain rule (no parent atom to map into), which keeps the
        # family graph shaped as published.  Under derivation-modulo-K the
        # skolemised body is satisfiable from K alone, so coverage holds:
        # exactly the difference the per-scenario mode knob controls.
        g = with_id(R138, 1)
        s = with_id(R35, 2)
        assert not covers(family_bg, g, s, SUBSUMPTION)
        assert covers(family_bg, g, s, DERIVATION)

    def test_evidence_subsumption_mode(self, family_bg):
        (ev,) = parse_program("#classes + -\n#evidence +\ndaughter(mary,ann).")
        ev = with_id(ev, 30)
        cfg = CoverageConfig(rule_evidence_mode=SUBSUMPTION)
        oracle = CoverageOracle(family_bg, cfg)
        # a clause with a body cannot theta-subsume a bare fact
        assert not oracle.covers_pair(with_id(R110, 1), ev)
        twin = one("daughter(mary,ann).")
        assert oracle.covers_pair(with_id(twin, 2), ev)
