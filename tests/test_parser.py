import pytest

from covkb.parser import ParseError, parse_file, parse_program, scan_classes
from covkb.rules import BACKGROUND, CANDIDATE, EVIDENCE, Compound, Var

from conftest import FAMILY_KBR


def test_empty_input():
    assert parse_program("") == []


def test_comments_and_blank_lines_only():
    assert parse_program("% nothing here\n\n   % more\n") == []


def test_fact_under_evidence_block():
    rules = parse_program("#classes + -\n#evidence +\ndaughter(mary,ann).\n")
    (r,) = rules
    assert r.origin == EVIDENCE
    assert r.class_label == "+"
    assert r.head.pred == "daughter"
    assert r.body == ()


def test_nested_compound_terms():
    (r,) = parse_program("move(knight,pos(d,5),pos(e,3)).")
    assert r.head.args[0] == Compound("knight")
    assert r.head.args[1] == Compound("pos", (Compound("d"), Compound("5")))
    assert r.head.args[2] == Compound("pos", (Compound("e"), Compound("3")))


def test_variables_and_integers():
    (r,) = parse_program("p(X, _g, 12).")
    assert r.head.args == (Var("X"), Var("_g"), Compound("12"))


def test_ids_sequential_in_file_order():
    rules = parse_program("a. b. c.")
    assert [r.id for r in rules] == [1, 2, 3]


def test_clause_may_span_lines():
    rules = parse_program("p(X) :-\n  q(X),\n  r(X).\n")
    assert len(rules) == 1
    assert len(rules[0].body) == 2


def test_several_clauses_one_line():
    assert len(parse_program("a. b. c(X) :- a.")) == 3


def test_length_attaches_to_next_clause_only():
    rules = parse_program("#length 17.844\nf(a). g(b).")
    assert rules[0].length_override == 17.844
    assert rules[1].length_override is None


def test_sections_switch_origin():
    text = "#background\nk(a).\n#candidates\np(X) :- k(X).\n#classes +\n#evidence +\nf(a).\n"
    rules = parse_program(text)
    assert [r.origin for r in rules] == [BACKGROUND, CANDIDATE, EVIDENCE]


def test_family_fixture_parses():
    rules = parse_file(FAMILY_KBR)
    assert len(rules) == 21
    assert sum(r.origin == BACKGROUND for r in rules) == 9
    assert sum(r.origin == EVIDENCE for r in rules) == 5
    assert sum(r.origin == CANDIDATE for r in rules) == 7
    overridden = [r for r in rules if r.length_override is not None]
    assert len(overridden) == 9  # 5 examples + rules 100, 59, 20, 35


def test_scan_classes():
    assert scan_classes("#classes + -\n#evidence +\n") == ("+", "-")
    assert scan_classes("#evidence yes\n#evidence no\n") == ("yes", "no")


class TestErrors:
    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_program("p(a)\nq(b ! c).")
        assert err.value.line == 2

    def test_arity_conflict(self):
        with pytest.raises(ParseError, match="arity"):
            parse_program("p(a). p(a,b).")

    def test_class_outside_declared_set(self):
        with pytest.raises(ParseError, match="not in declared"):
            parse_program("#classes + -\n#evidence maybe\nf(a).")

    def test_evidence_with_body_rejected(self):
        with pytest.raises(ParseError, match="facts"):
            parse_program("#classes +\n#evidence +\np(X) :- q(X).")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_program("#frobnicate 3\n")

    def test_unterminated_clause(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_program("p(a)")

    def test_directive_inside_clause(self):
        with pytest.raises(ParseError, match="inside"):
            parse_program("p(a) :- q(a),\n#length 3\nr(a).")

    def test_dangling_length(self):
        with pytest.raises(ParseError, match="no following clause"):
            parse_program("f(a).\n#length 3\n")

    def test_bad_length_value(self):
        with pytest.raises(ParseError, match="bad length"):
            parse_program("#length three\nf(a).")

    def test_skolem_namespace_unwritable(self):
        with pytest.raises(ParseError):
            parse_program("p($sk0).")

    def test_uppercase_predicate_rejected(self):
        with pytest.raises(ParseError):
            parse_program("Pred(a).")
