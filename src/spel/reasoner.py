"""Top-level decision procedures: satisfiability and statement entailment.

Satisfiability is decided by saturating the preprocessed KB and looking
for the refutation fact. Entailment is Turing-reduced to satisfiability:
each query kind adds a refuting counterpart of itself to the KB and asks
whether the result is unsatisfiable; diamonds over monomials additionally
enumerate candidate witness standpoints.

There is one refutation path. Each subcheck is a fork of one saturated
base (`_Base`): the base keeps its engine state (`Saturation`), and a
fork normalizes the refuting statement alone, under the fork prefix
`_gf` (`normalize.FORK_PREFIX`), adds its facts and the witness axioms of
any diamond target it adds, and walks on from the base's fixpoint. So
the KB is normalized and saturated once, and no fresh name of a
subcheck meets one of the KB's. The base reserves in its universes, before
its saturation, the fresh names its forks will use.

The queries of one command with two or more share one base, the closure
(`query_closure`): the KB plus conservative definitions of the queries'
complex concepts, from which `entails` first reads the queries whose
facts hold there. Positive box and diamond queries over assertions, GCIs
and short role inclusions, and sharpenings of one standpoint below a
named one, are read this way; the others, and those whose facts do not
hold in the closure, are refuted from forks of the closure's run. A
single query, or one `entails` is asked without a closure, forks a base
of the KB alone.
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
    make_kb,
    occurring_vocabulary,
)
from .normalize import FORK_PREFIX, normalize
from .preprocess import (REFUTATION_FACT, Fact, FactStore, add_witness_axioms,
                         diamond_targets, prep, statement_to_fact,
                         to_extended_facts, witness_facts)
from .saturation import (Saturation, is_refuted, is_tautology,
                         refutation_trace, saturate, stored_form)

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
    #: facts stored by the saturation; of a fork, the base's included
    fact_count: int
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

    The closure's run is also the base (`_Base`) that the refutation
    subchecks of its queries fork, with the fresh names of their refuting
    statements reserved. It is saturated when a query first needs it, and
    the run and its decoded store are kept until the last of the
    closure's queries is answered (`answered`), then released; the fact
    count stays."""

    def __init__(self, kb: KnowledgeBase, queries,
                 fact_limit: int | None = None) -> None:
        self._kb = kb
        self._fact_limit = fact_limit
        #: per (concept, the name goes below it), the name and its definition
        self._names: dict[tuple, tuple[Name, Statement]] = {}
        #: per query the closure can read, the query with the names in place
        self.forms: dict[Query, Statement] = {}
        #: the saturated base and its store, from when a query first needs
        #: them until the last of `queries` is answered
        self._base: _Base | None = None
        self.store: FactStore | None = None
        #: whether the saturation was refuted, and how many facts it stored;
        #: None until it has run
        self.refuted: bool | None = None
        self.fact_count: int | None = None
        for query in queries:
            form = self._form(query)
            if form is not None:
                self.forms[query] = form
        self._queries = set(queries)
        #: how many of `queries` are not yet answered
        self._left = len(queries)

    def _name(self, concept: ConceptTerm, below: bool) -> Name | None:
        """The name of `concept` on its side, made while the closure is not
        saturated; None for a concept without one once it is."""
        entry = self._names.get((concept, below))
        if entry is None:
            if self.refuted is not None:
                return None
            name = Name(f"_gq{len(self._names)}")
            gci = GCI(name, concept) if below else GCI(concept, name)
            entry = self._names[concept, below] = (name,
                                                   boxed(UNIVERSAL, gci))
        return entry[0]

    def _named(self, ax: Axiom) -> Axiom | None:
        """`ax` with the names in place of its complex concepts, or None
        when one has none."""
        if isinstance(ax, GCI):
            lhs = ax.lhs if is_lhs_atom(ax.lhs) else self._name(ax.lhs, True)
            rhs = ax.rhs if is_rhs_atom(ax.rhs) or ax.rhs == TOP \
                else self._name(ax.rhs, False)
            return None if lhs is None or rhs is None else GCI(lhs, rhs)
        if isinstance(ax, ConceptAssertion) and not isinstance(ax.concept,
                                                               Name):
            name = self._name(ax.concept, False)
            return None if name is None else ConceptAssertion(
                name, ax.individual)
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
        axioms = [self._named(lit.axiom) for lit in query.literals]
        if None in axioms:
            return None
        return ModalFormula(query.op, query.standpoint, tuple(
            Literal(False, ax) for ax in axioms))

    def _saturate(self) -> None:
        normal = normalize(self._kb.with_statements(
            [definition for _, definition in self._names.values()]))
        self._base = _Base(normal, self._queries, self._fact_limit)
        self.store = self._base.run.store()
        self.refuted = self._base.run.refuted
        self.fact_count = len(self.store)

    def plans(self, query: Query) -> bool:
        """Whether `query` is one of the closure's queries, and the base is
        kept for it."""
        return query in self._queries and self._left > 0

    def base(self) -> "_Base":
        """The saturated base, whose run the refutation subchecks of the
        closure's queries fork."""
        if self.refuted is None:
            self._saturate()
        return self._base

    def answered(self) -> None:
        """Count one of the closure's queries as answered; after the last,
        the base and its store are released."""
        self._left -= 1
        if self._left <= 0:
            self._base = self.store = None

    def holds(self, statement: Statement) -> bool:
        """Whether the saturated closure holds `statement`, read as it
        reads a query of its own, with the names it has in place; the KB
        then entails the statement."""
        form = self._form(statement)
        return form is not None and self._read(form) is not None

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
        when `query` is its own and it was not yet."""
        form = self.forms.get(query)
        if form is not None and self.refuted is None:
            self._saturate()
        return self._read(form)

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
        for u in _candidates(s, self._base.standpoints):
            held = self._held(facts_at(u) if u == s else
                              [("sharper", u, s)] + facts_at(u))
            if held is not None:
                return u, held
        return None


def query_closure(kb: KnowledgeBase, queries,
                  fact_limit: int | None = None) -> QueryClosure | None:
    """A closure for `entails` to share over `queries`, or None for fewer
    than two of them: one query shares nothing."""
    return QueryClosure(kb, queries, fact_limit) if len(queries) >= 2 else None


def _neg(lit: Literal) -> Literal:
    return Literal(not lit.negated, lit.axiom)


def _subchecks(query: Query) -> list[tuple[Statement, str]]:
    """The refuting statements, with their descriptions, of a query that is
    entailed iff adding each one makes the KB unsatisfiable: every query
    but a diamond over a monomial (`_refute` searches its witness)."""
    if isinstance(query, Sharpening):
        kind = "negated sharpening" if query.negated else "sharpening"
        return [(Sharpening(not query.negated, query.lhs, query.rhs),
                 f"{kind} query: add its negation")]
    if isinstance(query, NegatedFormula):
        return [(query.formula, "negated formula query: add it")]
    if isinstance(query, ModalFormula):
        s = query.standpoint
        if query.op == BOX:
            # box over a monomial factors into one check per literal
            return [(ModalFormula(DIA, s, (_neg(lit),)),
                     f"box literal {i}: add the diamond of its negation")
                    for i, lit in enumerate(query.literals)]
        return [(ModalFormula(BOX, s, (_neg(query.literals[0]),)),
                 "diamond literal: add the box of its negation")]
    raise TypeError(f"not a query statement: {query!r}")


def _is_dia_monomial(query: Query) -> bool:
    return (isinstance(query, ModalFormula) and query.op == DIA
            and len(query.literals) > 1)


def _candidates(s: str, standpoints) -> list[str]:
    """The standpoints that may witness a diamond at `s` over a monomial:
    s, `*` and the standpoints of the normalized KB, as only those can lie
    below s non-vacuously."""
    return list(dict.fromkeys([s, UNIVERSAL, *sorted(standpoints)]))


def _planned(query: Query, standpoints) -> list[Statement]:
    """The refuting statements `_Base` reserves names for, for `query`:
    those of `_subchecks`, or for a diamond over a monomial those of its
    first candidates. The statements of the other candidates differ from
    these only in the candidate standpoint, which normalization never
    rewrites, so they have the same fresh names and diamond targets."""
    if not _is_dia_monomial(query):
        return [statement for statement, _ in _subchecks(query)]
    s = query.standpoint
    others = [u for u in _candidates(s, standpoints) if u != s]
    return [Sharpening(True, (u,), s) for u in others[:1]] + [
        ModalFormula(DIA, s, (_neg(lit),)) for lit in query.literals]


class _Base:
    """A normalized KB saturated once, whose engine state the refutation
    subchecks of some queries fork (`check`).

    A fork normalizes its refuting statement alone, under `FORK_PREFIX`,
    adds its facts and the witness axioms of the diamond targets it adds,
    and walks on (`Saturation.extend`). Forks never combine, so each
    numbers its fresh names from 0 and all draw on one pool: before its
    saturation, the base reserves in its universes the names of the
    statements `_planned` for its queries, with the witness standpoints
    and markers of their new targets."""

    def __init__(self, normal: KnowledgeBase, queries,
                 fact_limit: int | None) -> None:
        #: the standpoints of the normalized KB, the diamond candidates
        self.standpoints = sorted(
            occurring_vocabulary(normal.statements).standpoint_names)
        self._vocabulary = normal.vocabulary
        #: per refuting statement, the facts of its normal form
        self._added: dict[Statement, list[Fact]] = {}
        store = to_extended_facts(normal)
        self._targets = diamond_targets(store.facts)
        added = set()
        for query in queries:
            for statement in _planned(query, self.standpoints):
                for fact in self._facts(statement):
                    store.universes.add_terms(fact)
                added |= diamond_targets(self._added[statement])
        self._individuals = sorted(store.universes.individuals)
        for fact in witness_facts(added - self._targets, self._individuals):
            store.universes.add_terms(fact)
        self.run = Saturation(add_witness_axioms(store),
                              fact_limit=fact_limit)
        self.run.walk()

    def _facts(self, statement: Statement) -> list[Fact]:
        facts = self._added.get(statement)
        if facts is None:
            # a name of the statement keeps its kind in the KB
            self._vocabulary.merge(occurring_vocabulary([statement]))
            normal = normalize(make_kb([statement]), FORK_PREFIX)
            facts = self._added[statement] = [
                statement_to_fact(st) for st in normal.statements]
        return facts

    def fork(self, statement: Statement) -> Saturation:
        """A fork of the base's run with `statement` added, walked."""
        facts = self._facts(statement)
        targets = sorted(diamond_targets(facts) - self._targets, key=repr)
        fork = self.run.fork()
        fork.extend(facts + witness_facts(targets, self._individuals))
        fork.walk()
        return fork

    def check(self, statement: Statement) -> SatResult:
        """Whether the KB plus `statement` is satisfiable, from a fork of
        the base's run: its fact count is the fork's, the base's facts
        included."""
        if self.run.stopped:
            return SatResult(UNSAT, len(self.run))
        fork = self.fork(statement)
        return SatResult(UNSAT if fork.refuted else SAT, len(fork))


def entails(kb: KnowledgeBase, query: Query, fact_limit: int | None = None,
            closure: QueryClosure | None = None) -> EntailResult:
    """Decide kb |= query: from `closure`, a `query_closure` of `kb` over
    `query` among others, when it decides the query, and else by reduction
    to unsatisfiability, each subcheck a fork of one saturated base: the
    closure's, or one of `kb` alone."""
    if closure is not None and closure.plans(query):
        try:
            support = closure.support(query)
            if support is not None:
                return EntailResult(ENTAILED, witness_standpoint=support[0],
                                    decided_by=CLOSURE)
            return _refute(closure.base(), query, closure)
        finally:
            closure.answered()
    return _refute(_Base(normalize(kb), [query], fact_limit), query)


def _refute(base: _Base, query: Query,
            closure: QueryClosure | None = None) -> EntailResult:
    """Decide the query by refutation subchecks, each a fork of `base`. A
    diamond over a monomial skips the subchecks of the statements that
    `closure`, if given, holds, and tries the candidates it holds below
    the diamond's standpoint before the others."""
    subchecks: list[tuple[str, SatResult]] = []

    def unsat_check(extra: Statement, description: str) -> bool:
        subchecks.append((description, base.check(extra)))
        return subchecks[-1][1].verdict == UNSAT

    if not _is_dia_monomial(query):
        ok = all(unsat_check(*check) for check in _subchecks(query))
        return EntailResult(ENTAILED if ok else NOT_ENTAILED, subchecks)
    # dia_s[mu]: search for a standpoint u below s whose box forces mu;
    # after s, first those the closure holds below s
    s = query.standpoint
    held = closure.holds if closure is not None else (lambda st: False)
    candidates = _candidates(s, base.standpoints)
    below = {u for u in candidates if u != s
             and held(Sharpening(False, (u,), s))}
    for u in sorted(candidates, key=lambda u: u != s and u not in below):
        if u != s and u not in below and not unsat_check(
                Sharpening(True, (u,), s),
                f"candidate {u}: refute {u} below {s}"):
            continue
        # u below s holds (reflexively for u = s); now box_u over mu
        if all(held(ModalFormula(BOX, u, (lit,))) or unsat_check(
                ModalFormula(DIA, u, (_neg(lit),)),
                f"candidate {u}, literal {i}: add the diamond of its negation")
               for i, lit in enumerate(query.literals)):
            return EntailResult(ENTAILED, subchecks, witness_standpoint=u)
    return EntailResult(NOT_ENTAILED, subchecks)
