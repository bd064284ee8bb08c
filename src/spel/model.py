"""Core immutable data model: concept terms, axioms, statements, knowledge bases.

All values are frozen dataclasses, hashable and safe to share. A knowledge
base is semantically a *set* of statements; the stored tuple only preserves
presentation order (duplicates are removed at construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

BOX = "box"
DIA = "dia"

#: The universal standpoint, always present in a vocabulary.
UNIVERSAL = "*"
#: The empty pseudo-standpoint; legal only on the right of sharpenings.
EMPTY = "0"

#: Identifiers starting with this prefix are reserved for generated names.
RESERVED_PREFIX = "_g"


# ---------------------------------------------------------------------------
# Concept terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Top:
    def __repr__(self) -> str:
        return "Top"


@dataclass(frozen=True)
class Bottom:
    def __repr__(self) -> str:
        return "Bot"


@dataclass(frozen=True)
class Name:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Conj:
    left: "ConceptTerm"
    right: "ConceptTerm"

    def __repr__(self) -> str:
        return f"({self.left!r} and {self.right!r})"


@dataclass(frozen=True)
class Exists:
    role: str
    filler: "ConceptTerm"

    def __repr__(self) -> str:
        return f"(ex {self.role}.{self.filler!r})"


@dataclass(frozen=True)
class SelfLoop:
    role: str

    def __repr__(self) -> str:
        return f"(ex {self.role}.Self)"


@dataclass(frozen=True)
class Modal:
    op: str  # BOX or DIA
    standpoint: str
    inner: "ConceptTerm"

    def __repr__(self) -> str:
        return f"({self.op} {self.standpoint} {self.inner!r})"


@dataclass(frozen=True)
class Nominal:
    """Singleton concept {a}. Internal only; never produced by the parser."""

    individual: str

    def __repr__(self) -> str:
        return "{%s}" % self.individual


ConceptTerm = Union[Top, Bottom, Name, Conj, Exists, SelfLoop, Modal, Nominal]

TOP = Top()
BOT = Bottom()


# ---------------------------------------------------------------------------
# Axioms and statements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GCI:
    lhs: ConceptTerm
    rhs: ConceptTerm


@dataclass(frozen=True)
class RIA:
    chain: tuple[str, ...]  # length >= 1
    super_role: str

    def __post_init__(self) -> None:
        if not self.chain:
            raise ValueError("RIA chain must be nonempty")


@dataclass(frozen=True)
class ConceptAssertion:
    concept: ConceptTerm
    individual: str


@dataclass(frozen=True)
class RoleAssertion:
    role: str
    subject: str
    object: str


Axiom = Union[GCI, RIA, ConceptAssertion, RoleAssertion]


@dataclass(frozen=True)
class Literal:
    negated: bool
    axiom: Axiom


@dataclass(frozen=True)
class ModalFormula:
    op: str  # BOX or DIA
    standpoint: str
    literals: tuple[Literal, ...]  # nonempty monomial

    def __post_init__(self) -> None:
        if not self.literals:
            raise ValueError("monomial must be nonempty")


@dataclass(frozen=True)
class Sharpening:
    negated: bool
    lhs: tuple[str, ...]  # nonempty; duplicates removed, order kept
    rhs: str  # standpoint name or EMPTY

    def __post_init__(self) -> None:
        if not self.lhs:
            raise ValueError("sharpening lhs must be nonempty")
        seen: list[str] = []
        for s in self.lhs:
            if s not in seen:
                seen.append(s)
        object.__setattr__(self, "lhs", tuple(seen))


Statement = Union[ModalFormula, Sharpening]


def boxed(standpoint: str, axiom: Axiom) -> ModalFormula:
    """Shorthand for a box formula over a single positive axiom."""
    return ModalFormula(BOX, standpoint, (Literal(False, axiom),))


# ---------------------------------------------------------------------------
# Vocabulary and knowledge base
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Vocabulary:
    concept_names: frozenset[str] = frozenset()
    role_names: frozenset[str] = frozenset()
    individual_names: frozenset[str] = frozenset()
    standpoint_names: frozenset[str] = frozenset((UNIVERSAL,))

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "standpoint_names", self.standpoint_names | {UNIVERSAL}
        )
        if EMPTY in self.standpoint_names:
            raise ValueError("pseudo-standpoint 0 cannot be declared")
        sets = [
            self.concept_names,
            self.role_names,
            self.individual_names,
            self.standpoint_names,
        ]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                overlap = sets[i] & sets[j]
                if overlap:
                    raise ValueError(
                        f"name(s) declared with two kinds: {sorted(overlap)}"
                    )

    def merge(self, other: "Vocabulary") -> "Vocabulary":
        return Vocabulary(
            self.concept_names | other.concept_names,
            self.role_names | other.role_names,
            self.individual_names | other.individual_names,
            self.standpoint_names | other.standpoint_names,
        )


@dataclass(frozen=True)
class KnowledgeBase:
    vocabulary: Vocabulary
    statements: tuple[Statement, ...] = ()

    def __post_init__(self) -> None:
        # drop repeated statements, keeping first occurrences in order
        object.__setattr__(self, "statements",
                           tuple(dict.fromkeys(self.statements)))
        occ = occurring_vocabulary(self.statements)
        missing = (
            (occ.concept_names - self.vocabulary.concept_names)
            | (occ.role_names - self.vocabulary.role_names)
            | (occ.individual_names - self.vocabulary.individual_names)
            | (occ.standpoint_names - self.vocabulary.standpoint_names)
        )
        if missing:
            raise ValueError(f"undeclared name(s) in statements: {sorted(missing)}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeBase):
            return NotImplemented
        return self.vocabulary == other.vocabulary and frozenset(
            self.statements
        ) == frozenset(other.statements)

    def __hash__(self) -> int:
        return hash((self.vocabulary, frozenset(self.statements)))

    def with_statements(self, extra: Iterable[Statement]) -> "KnowledgeBase":
        """A new KB with `extra` added; vocabulary grows by occurrence."""
        stmts = self.statements + tuple(extra)
        vocab = self.vocabulary.merge(occurring_vocabulary(stmts))
        return KnowledgeBase(vocab, stmts)


def make_kb(
    statements: Iterable[Statement], declared: Vocabulary | None = None
) -> KnowledgeBase:
    """Build a KB whose vocabulary is the occurrence scan plus `declared`."""
    stmts = tuple(statements)
    vocab = occurring_vocabulary(stmts)
    if declared is not None:
        vocab = vocab.merge(declared)
    return KnowledgeBase(vocab, stmts)


def occurring_vocabulary(statements: Iterable[Statement]) -> Vocabulary:
    concepts: set[str] = set()
    roles: set[str] = set()
    individuals: set[str] = set()
    standpoints: set[str] = {UNIVERSAL}

    def scan_concept(c: ConceptTerm) -> None:
        if isinstance(c, Name):
            concepts.add(c.name)
        elif isinstance(c, Conj):
            scan_concept(c.left)
            scan_concept(c.right)
        elif isinstance(c, Exists):
            roles.add(c.role)
            scan_concept(c.filler)
        elif isinstance(c, SelfLoop):
            roles.add(c.role)
        elif isinstance(c, Modal):
            standpoints.add(c.standpoint)
            scan_concept(c.inner)
        elif isinstance(c, Nominal):
            individuals.add(c.individual)

    def scan_axiom(ax: Axiom) -> None:
        if isinstance(ax, GCI):
            scan_concept(ax.lhs)
            scan_concept(ax.rhs)
        elif isinstance(ax, RIA):
            roles.update(ax.chain)
            roles.add(ax.super_role)
        elif isinstance(ax, ConceptAssertion):
            scan_concept(ax.concept)
            individuals.add(ax.individual)
        elif isinstance(ax, RoleAssertion):
            roles.add(ax.role)
            individuals.add(ax.subject)
            individuals.add(ax.object)

    for st in statements:
        if isinstance(st, ModalFormula):
            standpoints.add(st.standpoint)
            for lit in st.literals:
                scan_axiom(lit.axiom)
        elif isinstance(st, Sharpening):
            standpoints.update(st.lhs)
            if st.rhs != EMPTY:
                standpoints.add(st.rhs)

    return Vocabulary(
        frozenset(concepts),
        frozenset(roles),
        frozenset(individuals),
        frozenset(standpoints),
    )


# ---------------------------------------------------------------------------
# Size metric
# ---------------------------------------------------------------------------

def concept_size(c: ConceptTerm) -> int:
    if isinstance(c, (Top, Bottom, Name, SelfLoop, Nominal)):
        return 1
    if isinstance(c, Conj):
        return 1 + concept_size(c.left) + concept_size(c.right)
    if isinstance(c, Exists):
        return 1 + concept_size(c.filler)
    if isinstance(c, Modal):
        return 1 + concept_size(c.inner)
    raise TypeError(f"not a concept term: {c!r}")


def axiom_size(ax: Axiom) -> int:
    if isinstance(ax, GCI):
        return 1 + concept_size(ax.lhs) + concept_size(ax.rhs)
    if isinstance(ax, RIA):
        return len(ax.chain) + 1
    if isinstance(ax, ConceptAssertion):
        return 1 + concept_size(ax.concept)
    if isinstance(ax, RoleAssertion):
        return 3
    raise TypeError(f"not an axiom: {ax!r}")


def literal_size(lit: Literal) -> int:
    n = axiom_size(lit.axiom)
    return n + 1 if lit.negated else n


def statement_size(st: Statement) -> int:
    if isinstance(st, ModalFormula):
        return 1 + sum(literal_size(l) for l in st.literals)
    if isinstance(st, Sharpening):
        n = len(st.lhs) + 1
        return n + 1 if st.negated else n
    raise TypeError(f"not a statement: {st!r}")


def size(kb: KnowledgeBase) -> int:
    """The size metric used by all growth bounds; sums over statements."""
    return sum(statement_size(st) for st in kb.statements)


# ---------------------------------------------------------------------------
# Normal-form check
# ---------------------------------------------------------------------------

def is_lhs_atom(c: ConceptTerm) -> bool:
    """Concepts allowed at an atomic left-hand position of a normal GCI."""
    return isinstance(c, (Name, Top, SelfLoop, Nominal))


def is_rhs_atom(c: ConceptTerm) -> bool:
    """Concepts allowed at an atomic right-hand position of a normal GCI."""
    return isinstance(c, (Name, Bottom, SelfLoop, Nominal))


def is_atomic(c: ConceptTerm) -> bool:
    """Concepts allowed on the side of a normal GCI that must be atomic."""
    return isinstance(c, (Name, Top, Bottom, SelfLoop, Nominal))


def _normal_gci(ax: GCI) -> bool:
    lhs, rhs = ax.lhs, ax.rhs
    lhs_ok = (
        is_lhs_atom(lhs)
        or (isinstance(lhs, Exists) and is_lhs_atom(lhs.filler))
        or (isinstance(lhs, Conj) and is_lhs_atom(lhs.left)
            and is_lhs_atom(lhs.right))
    )
    rhs_ok = (
        is_rhs_atom(rhs)
        or (isinstance(rhs, Exists) and is_rhs_atom(rhs.filler))
        or (isinstance(rhs, Modal) and is_rhs_atom(rhs.inner))
    )
    return lhs_ok and rhs_ok and (is_atomic(lhs) or is_atomic(rhs))


def is_normal_statement(st: Statement) -> bool:
    if isinstance(st, Sharpening):
        return not st.negated and st.rhs != EMPTY and len(st.lhs) <= 2
    if isinstance(st, ModalFormula):
        if st.op != BOX or len(st.literals) != 1:
            return False
        lit = st.literals[0]
        if lit.negated:
            return False
        ax = lit.axiom
        if isinstance(ax, GCI):
            return _normal_gci(ax)
        if isinstance(ax, RIA):
            return len(ax.chain) <= 2
        if isinstance(ax, ConceptAssertion):
            return isinstance(ax.concept, Name)
        if isinstance(ax, RoleAssertion):
            return True
    return False


def is_normal_form(kb: KnowledgeBase) -> bool:
    """True iff every statement has one of the restricted normal shapes."""
    return all(is_normal_statement(st) for st in kb.statements)
