"""Clause language: terms, atoms, rules, printing and length measurement.

The language is a deliberately small Prolog subset: compound terms with
lowercase-initial functors or integer literals, uppercase/underscore
variables, no lists, strings, floats or arithmetic.  Arity is part of a
symbol's identity throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Tuple, Union

EVIDENCE = "evidence"
CANDIDATE = "candidate"
BACKGROUND = "background"


@dataclass(frozen=True)
class Var:
    """A logic variable; name starts with an uppercase letter or `_`."""

    name: str

    def __repr__(self):
        return f"Var({self.name})"


@dataclass(frozen=True)
class Compound:
    """A functor applied to zero or more terms; zero args means a constant."""

    functor: str
    args: Tuple["Term", ...] = ()

    def __repr__(self):
        if not self.args:
            return f"Compound({self.functor})"
        return f"Compound({self.functor}/{len(self.args)})"


Term = Union[Var, Compound]


@dataclass(frozen=True)
class Atom:
    """A predicate applied to terms; predicate identity is (name, arity)."""

    pred: str
    args: Tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def key(self) -> Tuple[str, int]:
        return (self.pred, len(self.args))


@dataclass(frozen=True)
class Rule:
    """A clause: head atom, body atoms (empty for facts) and bookkeeping.

    Evidence rules are facts carrying a class label; candidates carry none.
    `length_override`, when set, replaces the computed description length
    everywhere (used to inject externally fixed lengths into fixtures).
    """

    id: int
    head: Atom
    body: Tuple[Atom, ...] = ()
    class_label: Optional[str] = None
    length_override: Optional[float] = None
    origin: str = CANDIDATE
    protected: bool = False

    @property
    def is_fact(self) -> bool:
        return not self.body

    def atoms(self) -> Iterator[Atom]:
        yield self.head
        yield from self.body

    def with_protection(self, flag: bool) -> "Rule":
        return replace(self, protected=flag)


@dataclass(frozen=True)
class SignatureStats:
    """Occurrence and distinct-symbol counts over one rule."""

    n_functor_occ: int
    m_functor_distinct: int
    n_var_occ: int
    m_var_distinct: int


def iter_terms(term: Term) -> Iterator[Term]:
    """Depth-first walk over a term and all its subterms."""
    yield term
    if isinstance(term, Compound):
        for arg in term.args:
            yield from iter_terms(arg)


def signature_stats(rule: Rule) -> SignatureStats:
    """Count symbol occurrences across head and body jointly.

    Predicate symbols count as functor occurrences, so a ground fact f(a)
    yields two occurrences.  Distinctness is keyed on (name, arity).
    """
    n_functor = 0
    functors = set()
    n_var = 0
    variables = set()
    for atom in rule.atoms():
        n_functor += 1
        functors.add((atom.pred, atom.arity))
        for arg in atom.args:
            for sub in iter_terms(arg):
                if isinstance(sub, Var):
                    n_var += 1
                    variables.add(sub.name)
                else:
                    n_functor += 1
                    functors.add((sub.functor, len(sub.args)))
    return SignatureStats(n_functor, len(functors), n_var, len(variables))


def rule_length(rule: Rule) -> float:
    """Description length of a rule in bits.

    Occurrences pay log2(1 + distinct symbols in the rule); variable
    occurrences pay half as much as functor occurrences, so generalising a
    constant into a variable tends to shorten the rule.
    """
    if rule.length_override is not None:
        return rule.length_override
    s = signature_stats(rule)
    return s.n_functor_occ * math.log2(s.m_functor_distinct + 1) + (
        s.n_var_occ / 2.0
    ) * math.log2(s.m_var_distinct + 1)


def render_term(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    if not term.args:
        return term.functor
    return term.functor + "(" + ",".join(render_term(a) for a in term.args) + ")"


def render_atom(atom: Atom) -> str:
    if not atom.args:
        return atom.pred
    return atom.pred + "(" + ",".join(render_term(a) for a in atom.args) + ")"


def render_rule(rule: Rule) -> str:
    """Deterministic clause text: `head.` or `head :- a1, a2.`"""
    head = render_atom(rule.head)
    if not rule.body:
        return head + "."
    return head + " :- " + ", ".join(render_atom(a) for a in rule.body) + "."


def rename_term(term: Term, mapping: dict, fresh: Callable[[int], Term]) -> Term:
    """`term` with each variable replaced through `mapping`; a variable not
    yet in it maps to `fresh(len(mapping))`, so names follow first occurrence."""
    if isinstance(term, Var):
        new = mapping.get(term.name)
        if new is None:
            new = mapping[term.name] = fresh(len(mapping))
        return new
    if not term.args:
        return term
    return Compound(term.functor, tuple(rename_term(a, mapping, fresh) for a in term.args))


def rename_atom(atom: Atom, mapping: dict, fresh: Callable[[int], Term]) -> Atom:
    return Atom(atom.pred, tuple(rename_term(a, mapping, fresh) for a in atom.args))


def canonical_var(n: int) -> Var:
    return Var(f"V{n}")


def canonical_form(rule: Rule) -> str:
    """Dedup key: clause text under canonical variable names.

    Body order is preserved on purpose (duplicate detection is syntactic,
    not semantic).  The class label is part of the key so the same fact
    filed under two classes stays distinct.
    """
    mapping: dict = {}
    head, *body = (rename_atom(a, mapping, canonical_var) for a in rule.atoms())
    text = render_rule(replace(rule, head=head, body=tuple(body)))
    if rule.class_label is not None:
        return text + " #" + rule.class_label
    return text
