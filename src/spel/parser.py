"""Parser and renderer for the `.spel` textual knowledge base format.

Grammar (``#`` starts a line comment, ``;`` terminates statements):

    kb     := (decl | stmt)*
    decl   := ("standpoint"|"concept"|"role"|"individual") IDENT ";"
    stmt   := formula [";"]
            | ["not"] sharpening ";"
            | ["not"] axiom ";"          (bare form, wrapped as box *)
    sharpening := sp ("&" sp)* "<=" (sp | "0")      (parens allowed)
    formula := ("box"|"dia") sp "{" literal (";" literal)* [";"] "}"
    literal := ["not"] axiom
    axiom  := concept "sub" concept
            | role ("o" role)* "sub" role
            | concept "(" IDENT ")"
            | IDENT "(" IDENT "," IDENT ")"
    concept := "Top" | "Bot" | IDENT | concept "and" concept
            | "ex" IDENT "." concept | "ex" IDENT ".Self"
            | ("box"|"dia") sp concept | "(" concept ")"
    sp     := IDENT | "*"

"box"/"ex" prefixes bind tightest, then "and" (left-associative), then
"sub". Whether ``F(x)`` is a concept or role assertion is decided by F's
declared kind, or by arity if F is undeclared. Names are declared either
explicitly or implicitly by first use (kind inferred from position).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .model import (
    BOT,
    BOX,
    Bottom,
    DIA,
    EMPTY,
    RESERVED_PREFIX,
    TOP,
    Top,
    UNIVERSAL,
    ConceptAssertion,
    ConceptTerm,
    Conj,
    Exists,
    GCI,
    KnowledgeBase,
    Literal,
    Modal,
    ModalFormula,
    Name,
    Nominal,
    RIA,
    RoleAssertion,
    SelfLoop,
    Sharpening,
    Statement,
    Vocabulary,
    occurring_vocabulary,
)

KEYWORDS = {
    "standpoint", "concept", "role", "individual",
    "box", "dia", "not", "sub", "and", "ex", "o", "Top", "Bot", "Self",
}

DECL_KINDS = ("standpoint", "concept", "role", "individual")


@dataclass(frozen=True)
class ParseError:
    line: int
    column: int
    message: str
    kind: str  # lexical | syntax | undeclared-name | reserved-prefix | nominal-in-input

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.kind}: {self.message}"


class _Halt(Exception):
    """Internal: abort the current statement after recording an error."""


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT, KW, SYM, EOF
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym><=|[;{}().,&*]|0)
    """,
    re.VERBOSE,
)


def _tokenize(text: str, errors: list[ParseError]) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            errors.append(
                ParseError(line, col, f"unexpected character {text[pos]!r}", "lexical")
            )
            pos += 1
            col += 1
            continue
        if m.lastgroup == "nl":
            line += 1
            col = 1
        elif m.lastgroup in ("ws", "comment"):
            col += len(m.group())
        elif m.lastgroup == "ident":
            word = m.group()
            kind = "KW" if word in KEYWORDS else "IDENT"
            tokens.append(_Token(kind, word, line, col))
            col += len(word)
        else:
            tokens.append(_Token("SYM", m.group(), line, col))
            col += len(m.group())
        pos = m.end()
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], errors: list[ParseError],
                 allow_fresh: bool) -> None:
        self.tokens = tokens
        self.pos = 0
        self.errors = errors
        self.allow_fresh = allow_fresh
        self.kinds: dict[str, str] = {}  # name -> concept|role|individual|standpoint
        self.statements: list[Statement] = []

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def next(self) -> _Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind in ("KW", "SYM")

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if not self.at(text):
            self.fail(f"expected {text!r}, found {tok.text!r}" if tok.text
                      else f"expected {text!r}, found end of input")
        return self.next()

    def fail(self, message: str, kind: str = "syntax") -> None:
        tok = self.peek()
        self.errors.append(ParseError(tok.line, tok.column, message, kind))
        raise _Halt()

    # -- name registration --------------------------------------------------

    def register(self, tok: _Token, kind: str) -> str:
        name = tok.text
        if name.startswith(RESERVED_PREFIX) and not self.allow_fresh:
            self.errors.append(ParseError(
                tok.line, tok.column,
                f"identifier {name!r} uses the reserved prefix {RESERVED_PREFIX!r}",
                "reserved-prefix"))
            raise _Halt()
        if name.startswith("_") and not self.allow_fresh:
            self.errors.append(ParseError(
                tok.line, tok.column,
                f"identifier {name!r} may not start with an underscore",
                "lexical"))
            raise _Halt()
        known = self.kinds.get(name)
        if known is None:
            self.kinds[name] = kind
        elif known != kind:
            self.errors.append(ParseError(
                tok.line, tok.column,
                f"{name!r} already used as a {known}, now as a {kind}",
                "undeclared-name"))
            raise _Halt()
        return name

    def ident(self, kind: str) -> str:
        tok = self.peek()
        if tok.kind != "IDENT":
            self.fail(f"expected a {kind} name, found {tok.text!r}")
        self.next()
        return self.register(tok, kind)

    # -- statement dispatch --------------------------------------------------

    def parse_kb(self) -> None:
        while self.peek().kind != "EOF":
            try:
                self.parse_item()
            except _Halt:
                self.recover()

    def recover(self) -> None:
        """Skip to just past the next ';' (or '}') at brace depth zero."""
        depth = 0
        while self.peek().kind != "EOF":
            tok = self.next()
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                if depth <= 1:
                    if self.at(";"):
                        self.next()
                    return
                depth -= 1
            elif tok.text == ";" and depth == 0:
                return

    def parse_item(self) -> None:
        tok = self.peek()
        if tok.kind == "KW" and tok.text in DECL_KINDS:
            self.next()
            self.ident(tok.text)
            self.expect(";")
            return
        self.statements.append(self.parse_statement())

    def parse_statement(self) -> Statement:
        if (self.at("box") or self.at("dia")) and self.peek(2).text == "{":
            return self.parse_formula()
        if self.sharpening_ahead():
            negated = self.at("not")
            if negated:
                self.next()
            return self.parse_sharpening(negated)
        literal = self.parse_literal()
        self.expect(";")
        return ModalFormula(BOX, UNIVERSAL, (literal,))

    def sharpening_ahead(self) -> bool:
        """True if a '<=' occurs before the next top-level ';'."""
        depth = 0
        i = self.pos
        while i < len(self.tokens):
            t = self.tokens[i]
            if t.kind == "EOF" or (t.text == ";" and depth == 0):
                return False
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
            elif t.text == "<=":
                return True
            i += 1
        return False

    def parse_sharpening(self, negated: bool) -> Sharpening:
        parens = self.at("(")
        if parens:
            self.next()
        lhs = [self.parse_sp()]
        while self.at("&"):
            self.next()
            lhs.append(self.parse_sp())
        self.expect("<=")
        if self.at("0"):
            self.next()
            rhs = EMPTY
        else:
            rhs = self.parse_sp()
        if parens:
            self.expect(")")
        self.expect(";")
        return Sharpening(negated, tuple(lhs), rhs)

    def parse_sp(self) -> str:
        if self.at("*"):
            self.next()
            return UNIVERSAL
        return self.ident("standpoint")

    def parse_formula(self) -> ModalFormula:
        op = BOX if self.next().text == "box" else DIA
        sp = self.parse_sp()
        self.expect("{")
        literals = [self.parse_literal()]
        while self.at(";"):
            self.next()
            if self.at("}"):
                break
            literals.append(self.parse_literal())
        self.expect("}")
        if self.at(";"):
            self.next()
        return ModalFormula(op, sp, tuple(literals))

    def parse_literal(self) -> Literal:
        negated = False
        if self.at("not"):
            self.next()
            negated = True
        parens = negated and self.at("(") and not self.concept_assertion_ahead()
        if parens:
            self.next()
        axiom = self.parse_axiom()
        if parens:
            self.expect(")")
        return Literal(negated, axiom)

    def concept_assertion_ahead(self) -> bool:
        """True if the upcoming '(...)' is a concept followed by '(a)'."""
        depth = 0
        i = self.pos
        while i < len(self.tokens):
            t = self.tokens[i]
            if t.kind == "EOF" or (t.text in (";", "}") and depth == 0):
                return False
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
                if depth == 0:
                    return self.tokens[i + 1].text == "("
            i += 1
        return False

    # -- axioms ---------------------------------------------------------------

    def parse_axiom(self) -> GCI | RIA | ConceptAssertion | RoleAssertion:
        tok = self.peek()
        if tok.kind == "IDENT":
            nxt = self.peek(1).text
            if nxt == "(":
                return self.parse_assertion()
            if nxt == "o":
                return self.parse_ria()
            if nxt == "sub" and self.kinds.get(tok.text) == "role":
                return self.parse_ria()
        lhs = self.parse_concept()
        if self.at("("):
            self.next()
            individual = self.ident("individual")
            self.expect(")")
            return ConceptAssertion(lhs, individual)
        self.expect("sub")
        rhs = self.parse_concept()
        return GCI(lhs, rhs)

    def parse_assertion(self) -> ConceptAssertion | RoleAssertion:
        head = self.peek()
        kind = self.kinds.get(head.text)
        if kind is None:
            # infer from arity: scan for a comma inside the parentheses
            i = self.pos + 2
            arity = 1
            while i < len(self.tokens) and self.tokens[i].text not in (")", ";", "}"):
                if self.tokens[i].text == ",":
                    arity = 2
                i += 1
            kind = "role" if arity == 2 else "concept"
        if kind == "role":
            return self.parse_role_assertion()
        if kind == "concept":
            name = self.ident("concept")
            self.expect("(")
            individual = self.ident("individual")
            self.expect(")")
            return ConceptAssertion(Name(name), individual)
        self.fail(f"{head.text!r} is a {kind} and cannot head an assertion")
        raise AssertionError  # unreachable

    def parse_role_assertion(self) -> RoleAssertion:
        role = self.ident("role")
        self.expect("(")
        subject = self.ident("individual")
        self.expect(",")
        obj = self.ident("individual")
        self.expect(")")
        return RoleAssertion(role, subject, obj)

    def parse_ria(self) -> RIA:
        chain = [self.ident("role")]
        while self.at("o"):
            self.next()
            chain.append(self.ident("role"))
        self.expect("sub")
        super_role = self.ident("role")
        return RIA(tuple(chain), super_role)

    # -- concepts ---------------------------------------------------------------

    def parse_concept(self) -> ConceptTerm:
        term = self.parse_prefix()
        while self.at("and"):
            self.next()
            term = Conj(term, self.parse_prefix())
        return term

    def parse_prefix(self) -> ConceptTerm:
        if self.at("box") or self.at("dia"):
            op = BOX if self.next().text == "box" else DIA
            sp = self.parse_sp()
            return Modal(op, sp, self.parse_prefix())
        if self.at("ex"):
            self.next()
            role = self.ident("role")
            self.expect(".")
            if self.at("Self"):
                self.next()
                return SelfLoop(role)
            return Exists(role, self.parse_prefix())
        return self.parse_primary()

    def parse_primary(self) -> ConceptTerm:
        tok = self.peek()
        if self.at("Top"):
            self.next()
            return TOP
        if self.at("Bot"):
            self.next()
            return BOT
        if self.at("("):
            self.next()
            inner = self.parse_concept()
            self.expect(")")
            return inner
        if tok.kind == "IDENT":
            return Name(self.ident("concept"))
        self.fail(f"expected a concept, found {tok.text!r}"
                  if tok.text else "expected a concept, found end of input")
        raise AssertionError  # unreachable


def parse_kb(
    text: str, allow_fresh: bool = False
) -> KnowledgeBase | list[ParseError]:
    """Parse `.spel` text; returns a KnowledgeBase or a nonempty error list.

    `allow_fresh` admits identifiers with the reserved generated-name prefix
    (used when re-reading normalizer output); user input must leave it off.
    """
    errors: list[ParseError] = []
    tokens = _tokenize(text, errors)
    parser = _Parser(tokens, errors, allow_fresh)
    parser.parse_kb()
    if errors:
        return errors
    declared = Vocabulary(
        frozenset(n for n, k in parser.kinds.items() if k == "concept"),
        frozenset(n for n, k in parser.kinds.items() if k == "role"),
        frozenset(n for n, k in parser.kinds.items() if k == "individual"),
        frozenset(n for n, k in parser.kinds.items() if k == "standpoint"),
    )
    vocab = occurring_vocabulary(parser.statements).merge(declared)
    return KnowledgeBase(vocab, tuple(parser.statements))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

class RenderError(ValueError):
    pass


def _render_primary(c: ConceptTerm) -> str:
    if isinstance(c, Conj):
        return f"({_render_concept(c)})"
    return _render_concept(c)


def _render_concept(c: ConceptTerm) -> str:
    if isinstance(c, Top):
        return "Top"
    if isinstance(c, Bottom):
        return "Bot"
    if isinstance(c, Name):
        return c.name
    if isinstance(c, Conj):
        return f"{_render_concept(c.left) if isinstance(c.left, Conj) else _render_primary(c.left)} and {_render_primary(c.right)}"
    if isinstance(c, Exists):
        return f"ex {c.role} . {_render_primary(c.filler)}"
    if isinstance(c, SelfLoop):
        return f"ex {c.role} . Self"
    if isinstance(c, Modal):
        return f"{c.op} {c.standpoint} {_render_primary(c.inner)}"
    if isinstance(c, Nominal):
        raise RenderError("nominal concepts are internal-only and cannot be rendered")
    raise TypeError(f"not a concept term: {c!r}")


def _render_axiom(ax) -> str:
    if isinstance(ax, GCI):
        return f"{_render_concept(ax.lhs)} sub {_render_concept(ax.rhs)}"
    if isinstance(ax, RIA):
        return f"{' o '.join(ax.chain)} sub {ax.super_role}"
    if isinstance(ax, ConceptAssertion):
        if isinstance(ax.concept, Name):
            return f"{ax.concept.name}({ax.individual})"
        return f"({_render_concept(ax.concept)})({ax.individual})"
    if isinstance(ax, RoleAssertion):
        return f"{ax.role}({ax.subject}, {ax.object})"
    raise TypeError(f"not an axiom: {ax!r}")


def _render_literal(lit: Literal) -> str:
    body = _render_axiom(lit.axiom)
    if lit.negated:
        if isinstance(lit.axiom, (GCI, RIA)):
            return f"not ({body})"
        return f"not {body}"
    return body


def render_statement(st: Statement) -> str:
    if isinstance(st, Sharpening):
        body = f"{' & '.join(st.lhs)} <= {st.rhs}"
        return f"not ({body});" if st.negated else f"{body};"
    if isinstance(st, ModalFormula):
        lits = " ".join(f"{_render_literal(l)};" for l in st.literals)
        return f"{st.op} {st.standpoint} {{ {lits} }}"
    raise TypeError(f"not a statement: {st!r}")


def render_kb(kb: KnowledgeBase) -> str:
    """Render a KB to `.spel` text; `parse_kb(render_kb(kb)) == kb`."""
    lines: list[str] = []
    v = kb.vocabulary
    for kind, names in (
        ("standpoint", v.standpoint_names - {UNIVERSAL}),
        ("concept", v.concept_names),
        ("role", v.role_names),
        ("individual", v.individual_names),
    ):
        lines.extend(f"{kind} {n};" for n in sorted(names))
    lines.extend(render_statement(st) for st in kb.statements)
    return "\n".join(lines) + ("\n" if lines else "")
