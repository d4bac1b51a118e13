"""Recursive-descent parser for `.kbr` rule files.

File grammar:
    %               comment to end of line
    #background / #candidates               section switches
    #evidence <class-token>                 evidence section for one class
    #classes <tok> <tok> ...                class declaration (before evidence)
    #length <decimal>                       length override for the next clause
    head.                                   fact
    head :- a1, a2, ... .                   clause

Directives are line-oriented; clauses may span lines.  A term nests at
most MAX_TERM_NESTING deep, so a deeper one is a ParseError with its
position, not a blown Python stack.  `$` is not a legal token character,
which keeps the internal skolem namespace (`$sk<n>`) unwritable from
user input.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .rules import (
    BACKGROUND,
    CANDIDATE,
    EVIDENCE,
    Atom,
    Compound,
    Rule,
    Var,
)


MAX_TERM_NESTING = 100  # the fixtures nest terms 3 deep; the Python stack allows a few hundred


class ParseError(Exception):
    """Syntax or consistency error in a rule file, with position info."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        self.reason = message  # without the position
        if line:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME VAR INT LPAREN RPAREN COMMA PERIOD IMPLIES
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<IMPLIES>:-)
  | (?P<NAME>[a-z][A-Za-z0-9_]*)
  | (?P<VAR>[A-Z_][A-Za-z0-9_]*)
  | (?P<INT>\d+)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<PERIOD>\.)
    """,
    re.VERBOSE,
)


def _tokenize_line(text: str, line_no: int, out: List[_Token]) -> None:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        kind = m.lastgroup or ""
        if kind != "WS":
            out.append(_Token(kind, m.group(), line_no, pos + 1))
        pos = m.end()


class _ClauseParser:
    """Parses one clause from a token list (already stripped of directives)."""

    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.i = 0

    def _peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self, expected: str) -> _Token:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else _Token("", "", 0, 0)
            raise ParseError(f"unexpected end of clause, expected {expected}", last.line, last.col)
        if tok.kind != expected:
            raise ParseError(f"expected {expected}, found {tok.text!r}", tok.line, tok.col)
        self.i += 1
        return tok

    def term(self, depth: int = 1):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of clause in term", 0, 0)
        if depth > MAX_TERM_NESTING:
            raise ParseError(f"term nested more than {MAX_TERM_NESTING} deep", tok.line, tok.col)
        if tok.kind == "VAR":
            self.i += 1
            return Var(tok.text)
        if tok.kind == "INT":
            self.i += 1
            return Compound(tok.text)
        if tok.kind == "NAME":
            self.i += 1
            nxt = self._peek()
            if nxt is not None and nxt.kind == "LPAREN":
                args = self._arglist(depth + 1)
                return Compound(tok.text, args)
            return Compound(tok.text)
        raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)

    def _arglist(self, depth: int = 1) -> Tuple:
        """A parenthesised list of terms, each at nesting `depth`."""
        self._next("LPAREN")
        args = [self.term(depth)]
        while self._peek() is not None and self._peek().kind == "COMMA":
            self.i += 1
            args.append(self.term(depth))
        self._next("RPAREN")
        return tuple(args)

    def atom(self) -> Atom:
        tok = self._peek()
        if tok is None or tok.kind != "NAME":
            bad = tok.text if tok else "end of input"
            line = tok.line if tok else 0
            col = tok.col if tok else 0
            raise ParseError(f"expected a predicate name, found {bad!r}", line, col)
        self.i += 1
        nxt = self._peek()
        if nxt is not None and nxt.kind == "LPAREN":
            return Atom(tok.text, self._arglist())
        return Atom(tok.text)

    def clause(self) -> Tuple[Atom, Tuple[Atom, ...]]:
        head = self.atom()
        body: List[Atom] = []
        tok = self._peek()
        if tok is not None and tok.kind == "IMPLIES":
            self.i += 1
            body.append(self.atom())
            while self._peek() is not None and self._peek().kind == "COMMA":
                self.i += 1
                body.append(self.atom())
        self._next("PERIOD")
        return head, tuple(body)


def _strip_comment(line: str) -> str:
    idx = line.find("%")
    return line if idx < 0 else line[:idx]


def parse_program(text: str) -> List[Rule]:
    """Parse a `.kbr` document into rules, in file order.

    Ids are assigned sequentially from 1.  Class labels come from
    the enclosing `#evidence` block; a `#length` directive attaches to the
    next clause only.  Raises ParseError on syntax errors, on a predicate
    reused at a different arity, and on an evidence class outside the
    declared class set.
    """
    rules: List[Rule] = []
    section = CANDIDATE
    section_class: Optional[str] = None
    pending_length: Optional[float] = None
    length_line = 0
    classes: Optional[set] = None
    pred_arity: dict = {}
    tokens: List[_Token] = []
    next_id = 1

    def flush_clauses() -> None:
        nonlocal tokens, pending_length, next_id
        parser = _ClauseParser(tokens)
        # Parse only complete clauses; keep a trailing fragment for later lines.
        while any(t.kind == "PERIOD" for t in tokens[parser.i :]):
            start = tokens[parser.i]
            head, body = parser.clause()
            for atom in (head,) + body:
                known = pred_arity.get(atom.pred)
                if known is not None and known != atom.arity:
                    raise ParseError(
                        f"predicate {atom.pred!r} used with arity {atom.arity}, "
                        f"previously {known}",
                        start.line,
                        start.col,
                    )
                pred_arity[atom.pred] = atom.arity
            if section == EVIDENCE and body:
                raise ParseError("evidence clauses must be facts", start.line, start.col)
            rules.append(
                Rule(
                    id=next_id,
                    head=head,
                    body=body,
                    class_label=section_class if section == EVIDENCE else None,
                    length_override=pending_length,
                    origin=section,
                )
            )
            next_id += 1
            pending_length = None
        tokens = tokens[parser.i :]

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        stripped = line.strip()
        if stripped.startswith("#"):
            if tokens:
                raise ParseError("directive inside a clause", line_no, 1)
            parts = stripped[1:].split()
            if not parts:
                raise ParseError("empty directive", line_no, 1)
            name, args = parts[0], parts[1:]
            if name == "background":
                section, section_class = BACKGROUND, None
            elif name == "candidates":
                section, section_class = CANDIDATE, None
            elif name == "evidence":
                if len(args) != 1:
                    raise ParseError("#evidence takes one class token", line_no, 1)
                if classes is not None and args[0] not in classes:
                    raise ParseError(
                        f"class {args[0]!r} not in declared classes", line_no, 1
                    )
                section, section_class = EVIDENCE, args[0]
            elif name == "classes":
                if not args:
                    raise ParseError("#classes needs at least one token", line_no, 1)
                classes = set(args) if classes is None else classes | set(args)
            elif name == "length":
                if pending_length is not None:
                    raise ParseError(f"#length directive follows the one on line "
                                     f"{length_line}, which has no clause", line_no, 1)
                if len(args) != 1:
                    raise ParseError("#length takes one decimal", line_no, 1)
                length_line = line_no
                try:
                    pending_length = float(args[0])
                except ValueError:
                    raise ParseError(f"bad length value {args[0]!r}", line_no, 1)
                if not (math.isfinite(pending_length) and pending_length >= 0):
                    raise ParseError("length must be finite and >= 0", line_no, 1)
            else:
                raise ParseError(f"unknown directive #{name}", line_no, 1)
            continue
        _tokenize_line(line, line_no, tokens)
        if any(t.kind == "PERIOD" for t in tokens):
            flush_clauses()

    if tokens:
        last = tokens[-1]
        raise ParseError("unterminated clause at end of input", last.line, last.col)
    if pending_length is not None:
        raise ParseError("#length directive with no following clause", length_line, 1)
    return rules


def parse_file(path) -> List[Rule]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8: {exc}") from None
    return parse_program(text)


def scan_classes(text: str) -> Tuple[str, ...]:
    """Collect class tokens from #classes and #evidence directives."""
    found: List[str] = []
    for raw in text.splitlines():
        stripped = _strip_comment(raw).strip()
        if stripped.startswith("#classes"):
            for tok in stripped.split()[1:]:
                if tok not in found:
                    found.append(tok)
        elif stripped.startswith("#evidence"):
            parts = stripped.split()
            if len(parts) == 2 and parts[1] not in found:
                found.append(parts[1])
    return tuple(found)
