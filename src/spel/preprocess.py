"""Preprocessing: normal-form statements -> the saturation fact universe.

Facts are plain tuples whose first element names the shape; `FACT_SHAPES`
gives each shape's positions with the universe each one ranges over, and
is the one statement of the fact space.

Extended concepts, the values at concept positions, are themselves
tuples: ("top",), ("bot",), ("cn", name), ("nom", individual),
("self", role). Nominals and self-loop concepts are ordinary members of
the concept universe.

Assertions are encoded through nominals; every statement of a normal-form
KB maps to exactly one seed fact. `add_witness_axioms` then adds, for each
diamond target and each individual, the three facts that give the diamond
an addressable witness standpoint, named by the target and the individual
(`witness_names`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
    BOX,
    Bottom,
    ConceptAssertion,
    ConceptTerm,
    Conj,
    DIA,
    Exists,
    GCI,
    KnowledgeBase,
    Modal,
    ModalFormula,
    Name,
    Nominal,
    RESERVED_PREFIX,
    RIA,
    RoleAssertion,
    SelfLoop,
    Sharpening,
    Top,
    UNIVERSAL,
    is_normal_form,
)
from .normalize import normalize

Fact = tuple
ExtConcept = tuple

TOPC: ExtConcept = ("top",)
BOTC: ExtConcept = ("bot",)

#: The fact whose derivation signals unsatisfiability.
REFUTATION_FACT: Fact = ("gci_nested", UNIVERSAL, TOPC, UNIVERSAL, TOPC, BOTC)

#: The universe kinds, in the order a run interns them.
KINDS = ("standpoint", "role", "individual", "concept")
_S, _R, _I, _C = KINDS

#: Per fact shape, its positions as (name, universe kind) pairs.
FACT_SHAPES: dict[str, tuple[tuple[str, str], ...]] = {
    # s1 below s2
    "sharper": (("s1", _S), ("s2", _S)),
    # s1 meet s2 below s3
    "sharper_intersection": (("s1", _S), ("s2", _S), ("s3", _S)),
    # box_s role inclusion r1 sub r2
    "ria2": (("s", _S), ("r1", _R), ("r2", _R)),
    # box_s chain inclusion r1 o r2 sub r3
    "ria3": (("s", _S), ("r1", _R), ("r2", _R), ("r3", _R)),
    # box_t[c sub box_s[d => e]]
    "gci_nested": (("t", _S), ("c", _C), ("s", _S), ("d", _C), ("e", _C)),
    # box_t[c sub dia_s d]
    "gci_dia_right": (("t", _S), ("c", _C), ("s", _S), ("d", _C)),
    # box_s[c sub ex r.d]
    "gci_ex_right": (("s", _S), ("c", _C), ("r", _R), ("d", _C)),
    # box_s[ex r.c sub d]
    "gci_ex_left": (("s", _S), ("r", _R), ("c", _C), ("d", _C)),
    # box_s[c1 and c2 sub d]
    "gci_con_left": (("s", _S), ("c1", _C), ("c2", _C), ("d", _C)),
    # box_s[r(a, b)]
    "role_assertion": (("s", _S), ("r", _R), ("a", _I), ("b", _I)),
}

#: Per nested concept tag, the universe kind of its argument.
NESTED_TAGS = {"nom": _I, "self": _R}

INPUT_RULE = "input"


class PreprocessError(ValueError):
    pass


@dataclass
class Universes:
    """Registered instantiation domains for the schema rules."""

    standpoints: set[str] = field(default_factory=lambda: {UNIVERSAL})
    roles: set[str] = field(default_factory=set)
    individuals: set[str] = field(default_factory=set)
    concepts: set[ExtConcept] = field(default_factory=lambda: {TOPC, BOTC})

    def of(self, kind: str) -> list:
        """The universe of `kind` (one of `KINDS`) in a fixed order: `*`
        and Top first, the rest by repr."""
        members = {_S: self.standpoints, _R: self.roles,
                   _I: self.individuals, _C: self.concepts}[kind]
        return sorted(members, key=lambda m: (m != UNIVERSAL and m != TOPC,
                                              repr(m)))

    def add_terms(self, fact: Fact) -> None:
        """Register each term of `fact` in the universe of its position's
        kind, with the nominal of an individual and the self-loop concept
        of a role, as `to_extended_facts` registers a vocabulary."""
        for term, (_, kind) in zip(fact[1:], FACT_SHAPES[fact[0]]):
            self.add(kind, term)

    def add(self, kind: str, term) -> None:
        if kind == _C:
            self.concepts.add(term)
            if term[0] in NESTED_TAGS:
                self.add(NESTED_TAGS[term[0]], term[1])
        elif kind == _S:
            self.standpoints.add(term)
        elif kind == _R:
            self.roles.add(term)
            self.concepts.add(("self", term))
        else:
            self.individuals.add(term)
            self.concepts.add(("nom", term))

    def copy(self) -> "Universes":
        return Universes(
            set(self.standpoints),
            set(self.roles),
            set(self.individuals),
            set(self.concepts),
        )


class FactStore:
    """Fact set with provenance.

    Monotone: facts are only ever added. Each fact gets a dense integer id;
    provenance maps id -> (rule name, premise ids), with rule "input" and
    no premises for seeds. Saturation reads one and returns a new one;
    while it runs, it keeps its interned facts (terms replaced by
    integers), their ids and provenance in plain lists and dicts.
    """

    def __init__(self, universes: Universes | None = None) -> None:
        self.universes = universes if universes is not None else Universes()
        self.facts: list[Fact] = []
        self.fact_ids: dict[Fact, int] = {}
        self.provenance: list[tuple[str, tuple[int, ...]]] = []
        #: per shape, its facts in id order
        self.by_shape: dict[str, list[Fact]] = {}
        self.partial = False  # set when saturation early-exits

    def __contains__(self, fact: Fact) -> bool:
        return fact in self.fact_ids

    def __len__(self) -> int:
        return len(self.facts)

    def add(self, fact: Fact) -> int | None:
        """Store the input fact `fact`; returns its new id, or None if
        already present."""
        if fact in self.fact_ids:
            return None
        if fact[0] not in FACT_SHAPES:
            raise PreprocessError(f"unknown fact shape: {fact!r}")
        fid = len(self.facts)
        self.facts.append(fact)
        self.fact_ids[fact] = fid
        self.provenance.append((INPUT_RULE, ()))
        self.by_shape.setdefault(fact[0], []).append(fact)
        return fid

    def copy(self) -> "FactStore":
        out = FactStore(self.universes.copy())
        out.facts = list(self.facts)
        out.fact_ids = dict(self.fact_ids)
        out.provenance = list(self.provenance)
        out.by_shape = {k: list(v) for k, v in self.by_shape.items()}
        out.partial = self.partial
        return out


def format_term(term) -> str:
    """A term as the .spel syntax writes it: a standpoint, role or
    individual as its name, an extended concept as its concept."""
    if isinstance(term, tuple):
        if term == TOPC:
            return "Top"
        if term == BOTC:
            return "Bot"
        if term[0] == "cn":
            return term[1]
        if term[0] == "nom":
            return "{%s}" % term[1]
        if term[0] == "self":
            return f"Self({term[1]})"
    return str(term)


# ---------------------------------------------------------------------------
# Statement -> fact encoding
# ---------------------------------------------------------------------------

def ext_concept(c: ConceptTerm) -> ExtConcept:
    if isinstance(c, Top):
        return TOPC
    if isinstance(c, Bottom):
        return BOTC
    if isinstance(c, Name):
        return ("cn", c.name)
    if isinstance(c, Nominal):
        return ("nom", c.individual)
    if isinstance(c, SelfLoop):
        return ("self", c.role)
    raise PreprocessError(f"not an atomic concept: {c!r}")


def statement_to_fact(st) -> Fact:
    """The unique seed fact of one normal-form statement."""
    if isinstance(st, Sharpening):
        if len(st.lhs) == 1:
            return ("sharper", st.lhs[0], st.rhs)
        return ("sharper_intersection", st.lhs[0], st.lhs[1], st.rhs)
    if not isinstance(st, ModalFormula) or st.op != BOX:
        raise PreprocessError(f"not a normal statement: {st!r}")
    s = st.standpoint
    ax = st.literals[0].axiom
    if isinstance(ax, RIA):
        if len(ax.chain) == 1:
            return ("ria2", s, ax.chain[0], ax.super_role)
        return ("ria3", s, ax.chain[0], ax.chain[1], ax.super_role)
    if isinstance(ax, RoleAssertion):
        return ("role_assertion", s, ax.role, ax.subject, ax.object)
    if isinstance(ax, ConceptAssertion):
        return ("gci_nested", UNIVERSAL, ("nom", ax.individual), s, TOPC,
                ext_concept(ax.concept))
    if isinstance(ax, GCI):
        lhs, rhs = ax.lhs, ax.rhs
        if isinstance(lhs, Exists):
            return ("gci_ex_left", s, lhs.role, ext_concept(lhs.filler),
                    ext_concept(rhs))
        if isinstance(lhs, Conj):
            return ("gci_con_left", s, ext_concept(lhs.left),
                    ext_concept(lhs.right), ext_concept(rhs))
        if isinstance(rhs, Exists):
            return ("gci_ex_right", s, ext_concept(lhs), rhs.role,
                    ext_concept(rhs.filler))
        if isinstance(rhs, Modal) and rhs.op == DIA:
            return ("gci_dia_right", s, ext_concept(lhs), rhs.standpoint,
                    ext_concept(rhs.inner))
        if isinstance(rhs, Modal):
            return ("gci_nested", s, ext_concept(lhs), rhs.standpoint, TOPC,
                    ext_concept(rhs.inner))
        # both sides atomic: canonical seed placement box_*[T sub box_s[A=>B]]
        return ("gci_nested", UNIVERSAL, TOPC, s, ext_concept(lhs),
                ext_concept(rhs))
    raise PreprocessError(f"not a normal statement: {st!r}")


def to_extended_facts(kb: KnowledgeBase) -> FactStore:
    """Seed FactStore of a normal-form KB, with universes registered."""
    if not is_normal_form(kb):
        raise PreprocessError("input KB is not in normal form")
    vocab = kb.vocabulary
    uni = Universes()
    uni.standpoints |= vocab.standpoint_names
    uni.roles |= vocab.role_names
    uni.individuals |= vocab.individual_names
    uni.concepts |= {("cn", n) for n in vocab.concept_names}
    uni.concepts |= {("nom", a) for a in vocab.individual_names}
    uni.concepts |= {("self", r) for r in vocab.role_names}
    store = FactStore(uni)
    for st in kb.statements:
        store.add(statement_to_fact(st))
    return store


def diamond_targets(facts) -> set[tuple[str, ExtConcept]]:
    """The diamond targets (s, B) of the gci_dia_right facts among
    `facts`: their dia_s B."""
    return {(f[3], f[4]) for f in facts if f[0] == "gci_dia_right"}


def witness_names(s: str, b: ExtConcept, a: str) -> tuple[str, str]:
    """The witness standpoint and marker concept name of the diamond target
    dia_s B and the individual a. They are named by the three, so adding a
    target to a store leaves every other witness's names as they are."""
    key = f"{RESERVED_PREFIX}w({s},{format_term(b)},{a})"
    return key + "_sp", key + "_p"


def witness_facts(targets, individuals) -> list[Fact]:
    """Per diamond target dia_s B of `targets` and individual a of
    `individuals`, the three facts that give the diamond an addressable
    witness: a fresh witness standpoint below s, and a fresh marker concept
    tying a's B-membership under s to the precisifications of the
    witness."""
    facts = []
    for s, b in targets:
        for a in individuals:
            sp, p = witness_names(s, b, a)
            facts += [("sharper", sp, s),
                      ("gci_nested", UNIVERSAL, ("nom", a), s, b, ("cn", p)),
                      ("gci_nested", UNIVERSAL, ("cn", p), sp, TOPC, b)]
    return facts


def add_witness_axioms(store: FactStore) -> FactStore:
    """Add the witness axioms (`witness_facts`) of the diamond targets of
    `store` and the individuals of its universes. Returns a new store."""
    out = store.copy()
    targets = sorted(diamond_targets(store.by_shape.get("gci_dia_right", ())),
                     key=repr)
    for fact in witness_facts(targets, sorted(store.universes.individuals)):
        out.universes.add_terms(fact)
        out.add(fact)
    return out


def prep(kb: KnowledgeBase) -> FactStore:
    """Full preprocessing pipeline: normalize, encode, add witnesses."""
    return add_witness_axioms(to_extended_facts(normalize(kb)))
