"""Top-level decision procedures: satisfiability and statement entailment.

Satisfiability is decided by saturating the preprocessed KB and looking
for the refutation fact. Entailment is Turing-reduced to satisfiability:
each query kind adds a refuting counterpart of itself to the KB and asks
whether the result is unsatisfiable; diamonds over monomials additionally
enumerate candidate witness standpoints.

The queries of one command may instead share one closure
(`query_closure`): the KB plus conservative definitions of the queries'
complex concepts, normalized and saturated once, from which `entails`
reads the queries whose facts hold there. Positive box and diamond
queries over assertions, GCIs and short role inclusions, and sharpenings
of one standpoint below a named one, are read this way; the others, and
those whose facts do not hold in the closure, fall back to refutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
    BOX,
    DIA,
    EMPTY,
    GCI,
    RIA,
    TOP,
    UNIVERSAL,
    Axiom,
    ConceptAssertion,
    ConceptTerm,
    KnowledgeBase,
    Literal,
    ModalFormula,
    Name,
    Sharpening,
    Statement,
    boxed,
    is_lhs_atom,
    is_rhs_atom,
    occurring_vocabulary,
)
from .normalize import normalize
from .preprocess import (REFUTATION_FACT, Fact, FactStore, add_witness_axioms,
                         prep, statement_to_fact, to_extended_facts)
from .saturation import (is_refuted, is_tautology, refutation_trace,
                         saturate, stored_form)

SAT = "SAT"
UNSAT = "UNSAT"
ENTAILED = "ENTAILED"
NOT_ENTAILED = "NOT_ENTAILED"
#: what decided a query: the shared closure, or refutation subchecks
CLOSURE = "closure"
REFUTATION = "refutation"


@dataclass(frozen=True)
class NegatedFormula:
    """Query-only wrapper: the negation of a whole modal formula."""

    formula: ModalFormula


Query = Statement | NegatedFormula


@dataclass
class SatResult:
    verdict: str  # SAT | UNSAT
    fact_count: int  # facts stored by the saturation
    refutation_trace: list[str] | None = None


@dataclass
class EntailResult:
    verdict: str  # ENTAILED | NOT_ENTAILED
    subchecks: list[tuple[str, SatResult]] = field(default_factory=list)
    witness_standpoint: str | None = None
    decided_by: str = REFUTATION  # CLOSURE | REFUTATION


def check_sat(kb: KnowledgeBase, trace: bool = False,
              fact_limit: int | None = None) -> SatResult:
    """SAT iff the saturated preprocessed KB lacks the refutation fact;
    the saturation stops once it derives that fact."""
    store = saturate(prep(kb), fact_limit=fact_limit)
    if is_refuted(store):
        return SatResult(UNSAT, len(store),
                         refutation_trace(store) if trace else None)
    return SatResult(SAT, len(store))


class QueryClosure:
    """One saturation of a KB plus conservative definitions of the complex
    concepts of a set of queries, which their entailment checks share.

    Each complex concept of a query gets a fresh name `_gq<n>` defined at
    `*`, one per concept and side: a name Q above it (`C sub Q`) where a
    query holds it on the right of a GCI or in an assertion, a name P
    below it (`P sub C`) on the left. With the names in place, each
    literal of a positive box or diamond query over assertions, GCIs and
    role inclusions with chains of at most 2 is a normal statement, as is
    a sharpening of one standpoint below a named one: these queries are
    the closure's (`forms`). Every model of the KB extends to one of the
    definitions, with each name read as its concept, so what the closure
    entails of the names, the KB entails of their concepts: a refuted
    closure entails every query, and a query whose facts hold there is
    entailed.
    The closure is saturated when a query first needs it."""

    def __init__(self, kb: KnowledgeBase, queries,
                 fact_limit: int | None = None) -> None:
        self._kb = kb
        self._fact_limit = fact_limit
        #: per (concept, the name goes below it), the name and its definition
        self._names: dict[tuple, tuple[Name, Statement]] = {}
        #: per query the closure can read, the query with the names in place
        self.forms: dict[Query, Statement] = {}
        #: how many of `queries` are the closure's and not yet answered
        self._left = 0
        for query in queries:
            form = self._form(query)
            if form is not None:
                self.forms[query] = form
                self._left += 1
        #: the saturated store, from when a query first needs it until the
        #: last of the closure's queries is answered
        self.store: FactStore | None = None
        #: whether the saturation was refuted, and how many facts it stored;
        #: None until it has run
        self.refuted: bool | None = None
        self.fact_count: int | None = None
        #: the standpoints of the normalized KB, the diamond candidates
        self._standpoints: list[str] = []

    def _name(self, concept: ConceptTerm, below: bool) -> Name:
        entry = self._names.get((concept, below))
        if entry is None:
            name = Name(f"_gq{len(self._names)}")
            gci = GCI(name, concept) if below else GCI(concept, name)
            entry = self._names[concept, below] = (name,
                                                   boxed(UNIVERSAL, gci))
        return entry[0]

    def _named(self, ax: Axiom) -> Axiom:
        """`ax` with the names in place of its complex concepts."""
        if isinstance(ax, GCI):
            return GCI(
                ax.lhs if is_lhs_atom(ax.lhs) else self._name(ax.lhs, True),
                ax.rhs if is_rhs_atom(ax.rhs) or ax.rhs == TOP
                else self._name(ax.rhs, False))
        if isinstance(ax, ConceptAssertion) and not isinstance(ax.concept,
                                                               Name):
            return ConceptAssertion(self._name(ax.concept, False),
                                    ax.individual)
        return ax

    def _form(self, query: Query) -> Statement | None:
        """`query` with the names in place, or None when it is not the
        closure's."""
        if isinstance(query, Sharpening):
            return query if (not query.negated and len(query.lhs) == 1
                             and query.rhs != EMPTY) else None
        if not isinstance(query, ModalFormula) or any(
                lit.negated or isinstance(lit.axiom, RIA)
                and len(lit.axiom.chain) > 2 for lit in query.literals):
            return None
        return ModalFormula(query.op, query.standpoint, tuple(
            Literal(False, self._named(lit.axiom)) for lit in query.literals))

    def _saturate(self) -> None:
        normal = normalize(self._kb.with_statements(
            [definition for _, definition in self._names.values()]))
        self._standpoints = sorted(
            occurring_vocabulary(normal.statements).standpoint_names)
        self.store = saturate(add_witness_axioms(to_extended_facts(normal)),
                              fact_limit=self._fact_limit)
        self.refuted = is_refuted(self.store)
        self.fact_count = len(self.store)

    def _held(self, facts: list[Fact]) -> list[Fact] | None:
        """The stored forms of `facts` (a tautology needs none), or None
        when one of them does not hold."""
        held = []
        for fact in facts:
            if not is_tautology(fact):
                form = stored_form(self.store, fact)
                if form is None:
                    return None
                held.append(form)
        return held

    def support(self, query: Query) -> tuple[str | None, list[Fact]] | None:
        """How the closure entails `query`, or None when it does not decide
        it: the witness standpoint of a diamond (else None), and the stored
        facts the verdict rests on, whose derivations are its proof. These
        are the refutation fact of a refuted closure, or else the stored
        forms of the query's facts and, for a diamond at s with witness
        u, of sharper(u, s) when u is not s. The closure is saturated here
        when `query` is its own and it was not yet, and its store is
        released once the last of its own queries is answered."""
        form = self.forms.get(query)
        if form is not None and self.refuted is None:
            self._saturate()
        answer = self._read(form)
        if form is not None:
            self._left -= 1
            if self._left <= 0:
                self.store = None
        return answer

    def _read(self, form: Statement | None
              ) -> tuple[str | None, list[Fact]] | None:
        """`support` of the query whose form is `form` (None for one not
        the closure's)."""
        if self.refuted:
            return None, [REFUTATION_FACT]
        if form is None or self.store is None:
            return None
        if isinstance(form, Sharpening):
            held = self._held([statement_to_fact(form)])
            return None if held is None else (None, held)
        s = form.standpoint

        def facts_at(u: str) -> list[Fact]:
            return [statement_to_fact(boxed(u, lit.axiom))
                    for lit in form.literals]
        if form.op == BOX:
            held = self._held(facts_at(s))
            return None if held is None else (None, held)
        # dia_s: some candidate u below s whose box holds every literal
        for u in dict.fromkeys([s, UNIVERSAL, *self._standpoints]):
            held = self._held(facts_at(u) if u == s else
                              [("sharper", u, s)] + facts_at(u))
            if held is not None:
                return u, held
        return None


def query_closure(kb: KnowledgeBase, queries,
                  fact_limit: int | None = None) -> QueryClosure | None:
    """A closure for `entails` to share over `queries`, or None when fewer
    than two of them are its own: one query shares nothing, and one the
    closure left undecided would pay for the closure and refutation."""
    closure = QueryClosure(kb, queries, fact_limit)
    return closure if len(closure.forms) >= 2 else None


def _neg(lit: Literal) -> Literal:
    return Literal(not lit.negated, lit.axiom)


def _sub(kb: KnowledgeBase, extra: Statement, description: str,
         fact_limit: int | None) -> tuple[str, SatResult]:
    return description, check_sat(kb.with_statements([extra]),
                                  fact_limit=fact_limit)


def entails(kb: KnowledgeBase, query: Query, fact_limit: int | None = None,
            closure: QueryClosure | None = None) -> EntailResult:
    """Decide kb |= query: from `closure`, a `query_closure` of `kb`, when
    it decides the query, and else by reduction to unsatisfiability."""
    if closure is not None:
        support = closure.support(query)
        if support is not None:
            return EntailResult(ENTAILED, witness_standpoint=support[0],
                                decided_by=CLOSURE)
    subchecks: list[tuple[str, SatResult]] = []

    def unsat_check(extra: Statement, description: str) -> bool:
        subchecks.append(_sub(kb, extra, description, fact_limit))
        return subchecks[-1][1].verdict == UNSAT

    if isinstance(query, Sharpening):
        flipped = Sharpening(not query.negated, query.lhs, query.rhs)
        kind = "negated sharpening" if query.negated else "sharpening"
        ok = unsat_check(flipped, f"{kind} query: add its negation")
        return EntailResult(ENTAILED if ok else NOT_ENTAILED, subchecks)

    if isinstance(query, NegatedFormula):
        ok = unsat_check(query.formula, "negated formula query: add it")
        return EntailResult(ENTAILED if ok else NOT_ENTAILED, subchecks)

    if isinstance(query, ModalFormula):
        if query.op == BOX:
            # box over a monomial factors into one check per literal
            ok = all(
                unsat_check(
                    ModalFormula(DIA, query.standpoint, (_neg(lit),)),
                    f"box literal {i}: add the diamond of its negation")
                for i, lit in enumerate(query.literals)
            )
            return EntailResult(ENTAILED if ok else NOT_ENTAILED, subchecks)
        if len(query.literals) == 1:
            ok = unsat_check(
                ModalFormula(BOX, query.standpoint, (_neg(query.literals[0]),)),
                "diamond literal: add the box of its negation")
            return EntailResult(ENTAILED if ok else NOT_ENTAILED, subchecks)
        return _entails_dia_monomial(kb, query, subchecks, fact_limit)

    raise TypeError(f"not a query statement: {query!r}")


def _entails_dia_monomial(kb: KnowledgeBase, query: ModalFormula,
                          subchecks: list, fact_limit: int | None
                          ) -> EntailResult:
    """dia_s[mu]: search for a standpoint u below s whose box forces mu.

    Only standpoints of the normalized KB (plus s and *) can witness this,
    because u below s must hold non-vacuously.
    """
    kprime = normalize(kb)
    occurring = occurring_vocabulary(kprime.statements).standpoint_names
    s = query.standpoint
    candidates = [s, UNIVERSAL] + sorted(occurring - {s, UNIVERSAL})
    for u in candidates:
        if u != s:
            desc, res = _sub(kprime, Sharpening(True, (u,), s),
                             f"candidate {u}: refute {u} below {s}",
                             fact_limit)
            subchecks.append((desc, res))
            if res.verdict != UNSAT:
                continue
        # u below s holds (reflexively for u = s); now box_u over mu
        boxed_all = True
        for i, lit in enumerate(query.literals):
            desc, res = _sub(
                kprime, ModalFormula(DIA, u, (_neg(lit),)),
                f"candidate {u}, literal {i}: add the diamond of its negation",
                fact_limit)
            subchecks.append((desc, res))
            if res.verdict != UNSAT:
                boxed_all = False
                break
        if boxed_all:
            return EntailResult(ENTAILED, subchecks, witness_standpoint=u)
    return EntailResult(NOT_ENTAILED, subchecks)
