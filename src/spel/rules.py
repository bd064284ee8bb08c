"""The deduction calculus as a declarative rule table.

Each rule has premise patterns and one conclusion pattern over fact tuples.
Patterns mix constants with `Var`s; extended-concept positions may hold
nested patterns like ("nom", Var("a")) to destructure nominals and
self-loop concepts. Axiom schemas (the T rules) and the per-individual
nominal-introduction rule carry `ranges`: variables instantiated over the
registered universes instead of bound by premises.

The same table, with the one set of pattern operations below
(`is_nested`, `unify`, `resolve`, `pattern_vars`), drives the saturation
engine's join compiler, trace replay (`apply_rule`) and the Datalog code
generator. Fact shapes and their universe kinds come from
`preprocess.FACT_SHAPES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .model import UNIVERSAL
from .preprocess import (BOTC, FACT_SHAPES, NESTED_TAGS, Fact, TOPC,
                         Universes)


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class Rule:
    name: str
    premises: tuple[tuple, ...]
    conclusion: tuple
    #: (variable name, universe kind) pairs for schema instantiation.
    ranges: tuple[tuple[str, str], ...] = ()


def _v(*names: str) -> list[Var]:
    return [Var(n) for n in names]


def _build_rules() -> tuple[Rule, ...]:
    s, s1, s2, s3, t, u = _v("s", "s1", "s2", "s3", "t", "u")
    r, r1, r2, r3 = _v("r", "r1", "r2", "r3")
    b, c, c1, c2, d, e, f = _v("b", "c", "c1", "c2", "d", "e", "f")
    a, a2, a3 = _v("a", "a2", "a3")
    ST = UNIVERSAL
    rules = [
        # Tautology schemas over the registered universes.
        Rule("T.1", (), ("sharper", s, ST), ranges=(("s", "standpoint"),)),
        Rule("T.2", (), ("sharper", s, s), ranges=(("s", "standpoint"),)),
        Rule("T.3", (), ("gci_nested", ST, TOPC, ST, c, c),
             ranges=(("c", "concept"),)),
        Rule("T.4", (), ("gci_nested", ST, TOPC, ST, c, TOPC),
             ranges=(("c", "concept"),)),
        Rule("T.5", (), ("ria2", ST, r, r), ranges=(("r", "role"),)),
        # Standpoint hierarchy.
        Rule("S.1", (("sharper", s1, s2), ("sharper", s2, s3)),
             ("sharper", s1, s3)),
        Rule("S.2", (("sharper", s, s1), ("sharper", s, s2),
                     ("sharper_intersection", s1, s2, u)),
             ("sharper", s, u)),
        Rule("S.3:ria2", (("ria2", u, r1, r2), ("sharper", s, u)),
             ("ria2", s, r1, r2)),
        Rule("S.3:ria3", (("ria3", u, r1, r2, r3), ("sharper", s, u)),
             ("ria3", s, r1, r2, r3)),
        Rule("S.3:gci_nested",
             (("gci_nested", u, c, t, d, e), ("sharper", s, u)),
             ("gci_nested", s, c, t, d, e)),
        Rule("S.3:gci_dia_right",
             (("gci_dia_right", u, c, t, d), ("sharper", s, u)),
             ("gci_dia_right", s, c, t, d)),
        Rule("S.3:gci_ex_right",
             (("gci_ex_right", u, c, r, d), ("sharper", s, u)),
             ("gci_ex_right", s, c, r, d)),
        Rule("S.3:gci_ex_left",
             (("gci_ex_left", u, r, c, d), ("sharper", s, u)),
             ("gci_ex_left", s, r, c, d)),
        Rule("S.3:gci_con_left",
             (("gci_con_left", u, c1, c2, d), ("sharper", s, u)),
             ("gci_con_left", s, c1, c2, d)),
        Rule("S.3:role_assertion",
             (("role_assertion", u, r, a, a2), ("sharper", s, u)),
             ("role_assertion", s, r, a, a2)),
        Rule("S.4", (("gci_nested", t, c, u, d, e), ("sharper", s, u)),
             ("gci_nested", t, c, s, d, e)),
        # Internal inferences for extended GCIs.
        Rule("I.1", (("gci_nested", s, c, s, TOPC, d),),
             ("gci_nested", ST, TOPC, s, c, d)),
        Rule("I.2", (("gci_nested", u, TOPC, s, c, d),),
             ("gci_nested", ST, TOPC, s, c, d)),
        # Role subsumption transitivity.
        Rule("R.1", (("ria2", s, r1, r2), ("ria2", s, r2, r3)),
             ("ria2", s, r1, r3)),
        # Forward chaining.
        Rule("C.1", (("gci_nested", t, b, s, c, d),
                     ("gci_nested", t, b, s, d, e)),
             ("gci_nested", t, b, s, c, e)),
        Rule("C.2", (("gci_nested", u, TOPC, t, b, c),
                     ("gci_nested", t, c, s, d, e)),
             ("gci_nested", t, b, s, d, e)),
        Rule("C.3", (("gci_nested", u, TOPC, t, c, d),
                     ("gci_dia_right", t, d, s, e)),
             ("gci_dia_right", t, c, s, e)),
        Rule("C.4", (("gci_dia_right", t, c, s, d),
                     ("gci_nested", t, c, s, d, e)),
             ("gci_dia_right", t, c, s, e)),
        # Flattening of modalities.
        Rule("F.1", (("gci_nested", t, c, u, TOPC, d),
                     ("gci_nested", u, d, s, e, f)),
             ("gci_nested", t, c, s, e, f)),
        Rule("F.2", (("gci_nested", t, c, u, TOPC, d),
                     ("gci_dia_right", u, d, s, e)),
             ("gci_dia_right", t, c, s, e)),
        Rule("F.3", (("gci_dia_right", t, c, u, d),
                     ("gci_nested", u, d, s, e, f)),
             ("gci_nested", t, c, s, e, f)),
        Rule("F.4", (("gci_dia_right", t, c, u, d),
                     ("gci_dia_right", u, d, s, e)),
             ("gci_dia_right", t, c, s, e)),
        # Existentials and conjunction.
        Rule("E.1", (("gci_ex_right", s, c, r1, d),
                     ("gci_nested", u, TOPC, s, d, e),
                     ("ria2", s, r1, r2)),
             ("gci_ex_right", s, c, r2, e)),
        Rule("E.2", (("gci_ex_right", s, c, r1, d),
                     ("gci_ex_right", s, d, r2, e),
                     ("ria3", s, r1, r2, r3)),
             ("gci_ex_right", s, c, r3, e)),
        Rule("E.3", (("gci_ex_right", s, c, r, d),
                     ("gci_ex_left", s, r, d, f)),
             ("gci_nested", ST, TOPC, s, c, f)),
        Rule("E.4", (("gci_nested", t, b, s, c, c1),
                     ("gci_nested", t, b, s, c, c2),
                     ("gci_con_left", s, c1, c2, d)),
             ("gci_nested", t, b, s, c, d)),
        # Individual-based inferences.
        Rule("A.1", (("gci_nested", u, TOPC, s, b, c),),
             ("gci_nested", ST, ("nom", a), s, b, c),
             ranges=(("a", "individual"),)),
        Rule("A.2", (("gci_nested", u, ("nom", a), s, TOPC, c),),
             ("gci_nested", ST, TOPC, s, ("nom", a), c)),
        # A.2 is an equivalence: nominals denote the same singleton in every
        # precisification, so a membership recorded with the nominal on the
        # inner left can be rewritten with the nominal as the outer subject.
        Rule("A.2b", (("gci_nested", u, TOPC, s, ("nom", a), c),),
             ("gci_nested", ST, ("nom", a), s, TOPC, c)),
        Rule("A.3", (("gci_nested", u, ("nom", a), s, b, c),),
             ("gci_nested", ST, ("nom", a), s, b, c)),
        Rule("A.4", (("role_assertion", s, r, a, a2), ("ria2", s, r, r2)),
             ("role_assertion", s, r2, a, a2)),
        Rule("A.5", (("role_assertion", s, r1, a, a2),
                     ("role_assertion", s, r2, a2, a3),
                     ("ria3", s, r1, r2, r3)),
             ("role_assertion", s, r3, a, a3)),
        Rule("A.6", (("role_assertion", s, r, a, a2),
                     ("gci_nested", u, ("nom", a2), s, TOPC, b)),
             ("gci_ex_right", s, ("nom", a), r, b)),
        Rule("A.7", (("role_assertion", s, r1, a, a2),
                     ("gci_ex_right", s, ("nom", a2), r2, c),
                     ("ria3", s, r1, r2, r3)),
             ("gci_ex_right", s, ("nom", a), r3, c)),
        Rule("A.8", (("role_assertion", s, r1, a, a2),
                     ("gci_nested", u, ("nom", a2), s, TOPC, b),
                     ("gci_ex_right", s, b, r2, c),
                     ("ria3", s, r1, r2, r3)),
             ("gci_ex_right", s, ("nom", a), r3, c)),
        # Self-loop interaction.
        Rule("L.1", (("gci_nested", u, ("nom", a), s, TOPC, ("self", r)),),
             ("role_assertion", s, r, a, a)),
        Rule("L.2", (("gci_nested", u, TOPC, s, c, ("self", r)),),
             ("gci_ex_right", s, c, r, c)),
        Rule("L.3", (("gci_ex_left", s, r, d, c),),
             ("gci_con_left", s, ("self", r), d, c)),
        Rule("L.4", (("role_assertion", s, r, a, a),),
             ("gci_nested", ST, ("nom", a), s, TOPC, ("self", r))),
        Rule("L.5", (("ria2", s, r, r2),),
             ("gci_nested", ST, TOPC, s, ("self", r), ("self", r2))),
        Rule("L.6", (("ria3", s, r1, r2, r3),),
             ("gci_con_left", s, ("self", r1), ("self", r2), ("self", r3))),
        # Bottom backpropagation.
        Rule("B.1", (("gci_ex_right", s, c, r, BOTC),),
             ("gci_nested", ST, TOPC, s, c, BOTC)),
        Rule("B.2", (("gci_nested", t, c, s, TOPC, BOTC),),
             ("gci_nested", ST, TOPC, t, c, BOTC)),
        Rule("B.3", (("gci_dia_right", t, c, s, BOTC),),
             ("gci_nested", ST, TOPC, t, c, BOTC)),
        Rule("B.4", (("gci_nested", u, ("nom", a), s, TOPC, BOTC),),
             ("gci_nested", ST, TOPC, ST, TOPC, BOTC)),
    ]
    return tuple(rules)


RULES: tuple[Rule, ...] = _build_rules()
RULES_BY_NAME: dict[str, Rule] = {r.name: r for r in RULES}


# ---------------------------------------------------------------------------
# Pattern operations
# ---------------------------------------------------------------------------

def is_nested(term) -> bool:
    """True for a nominal or self-loop concept term, ("nom", x) or
    ("self", x), whether x is a name or a `Var`."""
    return (isinstance(term, tuple) and len(term) == 2
            and term[0] in NESTED_TAGS)


def _walk(term, subst: dict):
    """Follow `term` through the variables `subst` binds."""
    while isinstance(term, Var) and term.name in subst:
        term = subst[term.name]
    return term


def unify(x, y, subst: dict) -> dict | None:
    """Extend `subst` so that the patterns `x` and `y` become equal, or
    None when no instance of both agrees. Tuples (facts, extended
    concepts) unify position by position."""
    x, y = _walk(x, subst), _walk(y, subst)
    if isinstance(x, Var):
        return subst if x == y else {**subst, x.name: y}
    if isinstance(y, Var):
        return {**subst, y.name: x}
    if not (isinstance(x, tuple) and isinstance(y, tuple)):
        return subst if x == y else None
    if len(x) != len(y):
        return None
    for a, b in zip(x, y):
        subst = unify(a, b, subst)
        if subst is None:
            return None
    return subst


def resolve(term, subst: dict):
    """`term` with every variable `subst` binds replaced; the others
    stay."""
    if isinstance(term, Var):
        term = _walk(term, subst)
    if isinstance(term, tuple):
        return tuple([resolve(t, subst) for t in term])
    return term


def pattern_vars(pattern: tuple) -> list[tuple[str, str]]:
    """(variable, universe kind) pairs of a fact pattern, by position."""
    out = []
    for (_, kind), p in zip(FACT_SHAPES[pattern[0]], pattern[1:]):
        if is_nested(p):
            kind, p = NESTED_TAGS[p[0]], p[1]
        if isinstance(p, Var):
            out.append((p.name, kind))
    return out


def instantiate_conclusion(rule: Rule, subst: dict,
                           universes: Universes) -> list[Fact]:
    """All conclusions of `rule` under `subst`, expanding range variables
    over the registered universes."""
    free = [var for var, _ in rule.ranges if var not in subst]
    kinds = dict(rule.ranges)
    return [resolve(rule.conclusion, {**subst, **dict(zip(free, values))})
            for values in product(*(universes.of(kinds[v]) for v in free))]


def apply_rule(rule: Rule | str, premises: list[Fact],
               universes: Universes) -> list[Fact]:
    """Pure single application: match `premises` (in schema order) against
    the rule and return every conclusion. Raises ValueError on mismatch.
    A conclusion variable that neither the premises nor the ranges bind
    stays a `Var`, so a rule cut to a prefix of its premises may carry the
    next premise as its conclusion."""
    if isinstance(rule, str):
        rule = RULES_BY_NAME[rule]
    if len(premises) != len(rule.premises):
        raise ValueError(
            f"{rule.name} takes {len(rule.premises)} premises, "
            f"got {len(premises)}")
    subst: dict | None = {}
    for pat, fact in zip(rule.premises, premises):
        subst = unify(pat, fact, subst)
        if subst is None:
            raise ValueError(f"premises do not match rule {rule.name}")
    return instantiate_conclusion(rule, subst, universes)
