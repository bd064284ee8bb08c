"""Top-level decision procedures: satisfiability and statement entailment.

Satisfiability is decided by saturating the preprocessed KB and looking
for the refutation fact. Entailment is Turing-reduced to satisfiability:
each query kind adds a refuting counterpart of itself to the KB and asks
whether the result is unsatisfiable; diamonds over monomials additionally
enumerate candidate witness standpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import (
    BOX,
    DIA,
    KnowledgeBase,
    Literal,
    ModalFormula,
    Sharpening,
    Statement,
    UNIVERSAL,
    occurring_vocabulary,
)
from .normalize import normalize
from .preprocess import prep
from .saturation import is_refuted, refutation_trace, saturate

SAT = "SAT"
UNSAT = "UNSAT"
ENTAILED = "ENTAILED"
NOT_ENTAILED = "NOT_ENTAILED"


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


def check_sat(kb: KnowledgeBase, trace: bool = False,
              fact_limit: int | None = None) -> SatResult:
    """SAT iff the saturated preprocessed KB lacks the refutation fact;
    the saturation stops once it derives that fact."""
    store = saturate(prep(kb), fact_limit=fact_limit)
    if is_refuted(store):
        return SatResult(UNSAT, len(store),
                         refutation_trace(store) if trace else None)
    return SatResult(SAT, len(store))


def _neg(lit: Literal) -> Literal:
    return Literal(not lit.negated, lit.axiom)


def _sub(kb: KnowledgeBase, extra: Statement, description: str,
         fact_limit: int | None) -> tuple[str, SatResult]:
    return description, check_sat(kb.with_statements([extra]),
                                  fact_limit=fact_limit)


def entails(kb: KnowledgeBase, query: Query,
            fact_limit: int | None = None) -> EntailResult:
    """Decide kb |= query by reduction to unsatisfiability."""
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
