"""Two-phase structural transformation into the restricted normal form.

Phase 1 breaks formulas down into modalised single axioms, compiling away
diamonds at formula level, multi-literal monomials, negated axioms, and
negated sharpenings. Phase 2 breaks down complex concept terms, long role
chains, long sharpening intersections, and intersections bounded by the
empty pseudo-standpoint, until every statement has a normal shape.

Both phases run a FIFO worklist; for each statement the applicable rewrite
with the lowest rule number fires and its products go to the back of the
queue. Output size is linear in input size and the whole transformation is
a conservative extension (models restrict/extend across the fresh names).
"""

from __future__ import annotations

from collections import deque

from .model import (
    BOT,
    BOX,
    DIA,
    EMPTY,
    RESERVED_PREFIX,
    TOP,
    UNIVERSAL,
    Bottom,
    ConceptAssertion,
    ConceptTerm,
    Conj,
    Exists,
    GCI,
    KnowledgeBase,
    Modal,
    ModalFormula,
    Name,
    RIA,
    RoleAssertion,
    Sharpening,
    Statement,
    Top,
    boxed,
    is_atomic,
    is_lhs_atom,
    is_normal_statement,
    is_rhs_atom,
    make_kb,
    size,
)


#: The prefix of the fresh names of a statement normalized alone, to be
#: added to a KB normalized before: its names never meet the KB's.
FORK_PREFIX = RESERVED_PREFIX + "f"


class FreshNameFactory:
    """Deterministic source of names disjoint from any user vocabulary.

    Emitted names look like ``_g31_0007``: `prefix` (the reserved prefix,
    or `FORK_PREFIX`), the number of the rewrite rule that asked for the
    name, and a counter from 0.
    """

    def __init__(self, prefix: str = RESERVED_PREFIX) -> None:
        self.prefix = prefix
        self.counter = 0

    def fresh(self, rule: int | str) -> str:
        name = f"{self.prefix}{rule}_{self.counter:04d}"
        self.counter += 1
        return name


class NormalizationError(RuntimeError):
    pass


#: Rewrite-step safety valve; Lemma-1-style linearity keeps real runs far
#: below this.
MAX_APPLICATIONS_PER_SIZE = 50


def _conj_chain(parts: list[ConceptTerm]) -> ConceptTerm:
    term = parts[0]
    for p in parts[1:]:
        term = Conj(term, p)
    return term


def _nest_exists(chain: tuple[str, ...], filler: ConceptTerm) -> ConceptTerm:
    term = filler
    for role in reversed(chain):
        term = Exists(role, term)
    return term


# ---------------------------------------------------------------------------
# Phase 1
# ---------------------------------------------------------------------------

def _phase1_step(st: Statement, fresh: FreshNameFactory) -> list[Statement] | None:
    """Products of the lowest-numbered applicable phase-1 rule, or None."""
    if isinstance(st, ModalFormula):
        if st.op == DIA:  # rule (17)
            v = fresh.fresh(17)
            return [Sharpening(False, (v,), st.standpoint),
                    ModalFormula(BOX, v, st.literals)]
        if len(st.literals) > 1:  # rule (18)
            return [ModalFormula(BOX, st.standpoint, (lit,))
                    for lit in st.literals]
        lit = st.literals[0]
        if not lit.negated:
            return None
        s, ax = st.standpoint, lit.axiom
        if isinstance(ax, GCI):  # rule (19)
            a, r = fresh.fresh(19), fresh.fresh(19)
            return [boxed(s, GCI(Name(a), ax.lhs)),
                    boxed(s, GCI(Conj(Name(a), ax.rhs), BOT)),
                    boxed(s, GCI(TOP, Exists(r, Name(a))))]
        if isinstance(ax, ConceptAssertion):  # rule (20)
            a = fresh.fresh(20)
            return [boxed(s, ConceptAssertion(Name(a), ax.individual)),
                    boxed(s, GCI(Conj(Name(a), ax.concept), BOT))]
        if isinstance(ax, RoleAssertion):  # rule (21)
            aa, ab = fresh.fresh(21), fresh.fresh(21)
            return [boxed(s, ConceptAssertion(Name(aa), ax.subject)),
                    boxed(s, ConceptAssertion(Name(ab), ax.object)),
                    boxed(s, GCI(Conj(Name(aa), Exists(ax.role, Name(ab))), BOT))]
        if isinstance(ax, RIA):  # rule (22)
            aa, ab, r = fresh.fresh(22), fresh.fresh(22), fresh.fresh(22)
            return [boxed(s, GCI(TOP, Exists(r, Name(aa)))),
                    boxed(s, GCI(Conj(Name(aa), Exists(ax.super_role, Name(ab))), BOT)),
                    boxed(s, GCI(Name(aa), _nest_exists(ax.chain, Name(ab))))]
        return None
    if isinstance(st, Sharpening) and st.negated:  # rule (23)
        v = fresh.fresh(23)
        out: list[Statement] = [Sharpening(False, (v,), si) for si in st.lhs]
        if st.rhs != EMPTY:
            out.append(Sharpening(False, (v, st.rhs), EMPTY))
        # rhs 0 needs nothing further: named standpoints are nonempty, so
        # v below every lhs member already contradicts lhs <= 0.
        return out
    return None


# ---------------------------------------------------------------------------
# Phase 2
# ---------------------------------------------------------------------------

def _phase2_gci(s: str, ax: GCI, fresh: FreshNameFactory) -> list[Statement] | None:
    lhs, rhs = ax.lhs, ax.rhs
    if isinstance(rhs, Top):  # rule (28)
        return []
    if isinstance(lhs, Bottom):  # rule (29)
        return []
    if isinstance(rhs, Exists) and not is_rhs_atom(rhs.filler):  # rule (30)
        a = fresh.fresh(30)
        return [boxed(s, GCI(lhs, Exists(rhs.role, Name(a)))),
                boxed(s, GCI(Name(a), rhs.filler))]
    if isinstance(rhs, Conj):  # rule (31)
        a = fresh.fresh(31)
        return [boxed(s, GCI(lhs, Name(a))),
                boxed(s, GCI(Name(a), rhs.left)),
                boxed(s, GCI(Name(a), rhs.right))]
    if isinstance(rhs, Modal) and not is_rhs_atom(rhs.inner):  # rule (32)
        # The modal evaluates its filler at the inner standpoint's
        # precisifications, not at s's: the fresh name stands for it in
        # every precisification.
        a = fresh.fresh(32)
        return [boxed(s, GCI(lhs, Modal(rhs.op, rhs.standpoint, Name(a)))),
                boxed(UNIVERSAL, GCI(Name(a), rhs.inner))]
    if isinstance(lhs, Exists) and not is_lhs_atom(lhs.filler):  # rule (33)
        a = fresh.fresh(33)
        return [boxed(s, GCI(lhs.filler, Name(a))),
                boxed(s, GCI(Exists(lhs.role, Name(a)), rhs))]
    if isinstance(lhs, Conj) and not (
        is_lhs_atom(lhs.left) and is_lhs_atom(lhs.right)
    ):  # rule (34), modulo commutativity; complex left conjunct first
        a = fresh.fresh(34)
        if not is_lhs_atom(lhs.left):
            return [boxed(s, GCI(lhs.left, Name(a))),
                    boxed(s, GCI(Conj(Name(a), lhs.right), rhs))]
        return [boxed(s, GCI(lhs.right, Name(a))),
                boxed(s, GCI(Conj(lhs.left, Name(a)), rhs))]
    if isinstance(lhs, Modal) and lhs.op == DIA:  # rule (35)
        a = fresh.fresh(35)
        return [boxed(lhs.standpoint, GCI(lhs.inner, Modal(BOX, UNIVERSAL, Name(a)))),
                boxed(s, GCI(Name(a), rhs))]
    if isinstance(lhs, Modal) and lhs.op == BOX:  # rule (36)
        u = lhs.standpoint
        v0, v1, a = fresh.fresh(36), fresh.fresh(36), fresh.fresh(36)
        return [Sharpening(False, (v0,), u),
                Sharpening(False, (v1,), u),
                boxed(u, GCI(lhs.inner, Name(a))),
                boxed(s, GCI(Conj(Modal(DIA, v0, Name(a)),
                                  Modal(DIA, v1, Name(a))), rhs))]
    # Leftover case the figure rules never reach: both sides are already in
    # restricted shape but neither is atomic (e.g. ex R.A sub ex Q.B).
    # Split through a fresh middle name.
    if not is_atomic(lhs) and not is_atomic(rhs):
        a = fresh.fresh("x")
        return [boxed(s, GCI(lhs, Name(a))), boxed(s, GCI(Name(a), rhs))]
    return None


def _phase2_step(st: Statement, fresh: FreshNameFactory) -> list[Statement] | None:
    if isinstance(st, Sharpening):
        if st.negated:
            raise NormalizationError("phase 2 received a negated sharpening")
        if len(st.lhs) >= 3:  # rule (24)
            sp = fresh.fresh(24)
            return [Sharpening(False, st.lhs[:2], sp),
                    Sharpening(False, (sp,) + st.lhs[2:], st.rhs)]
        if st.rhs == EMPTY:  # rule (25)
            names = [fresh.fresh(25) for _ in st.lhs]
            out: list[Statement] = [
                boxed(si, GCI(TOP, Name(a))) for si, a in zip(st.lhs, names)
            ]
            out.append(boxed(UNIVERSAL, GCI(
                _conj_chain([Name(a) for a in names]), BOT)))
            return out
        return None
    if isinstance(st, ModalFormula):
        if st.op != BOX or len(st.literals) != 1 or st.literals[0].negated:
            raise NormalizationError("phase 2 received a non-phase-1 formula")
        ax = st.literals[0].axiom
        s = st.standpoint
        if isinstance(ax, RIA):
            if len(ax.chain) >= 3:  # rule (26)
                r = fresh.fresh(26)
                return [boxed(s, RIA(ax.chain[:2], r)),
                        boxed(s, RIA((r,) + ax.chain[2:], ax.super_role))]
            return None
        if isinstance(ax, ConceptAssertion):
            if not isinstance(ax.concept, Name):  # rule (27)
                a = fresh.fresh(27)
                return [boxed(s, ConceptAssertion(Name(a), ax.individual)),
                        boxed(s, GCI(Name(a), ax.concept))]
            return None
        if isinstance(ax, GCI):
            return _phase2_gci(s, ax, fresh)
        return None
    return None


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _run_phase(statements, step, fresh, budget) -> list[Statement]:
    queue = deque(statements)
    done: list[Statement] = []
    applications = 0
    while queue:
        st = queue.popleft()
        products = step(st, fresh)
        if products is None:
            done.append(st)
            continue
        applications += 1
        if applications > budget:
            raise NormalizationError(
                f"rewrite did not settle within {budget} applications")
        queue.extend(products)
    return done


def normalize(kb: KnowledgeBase, prefix: str = RESERVED_PREFIX
              ) -> KnowledgeBase:
    """Full normalization; output satisfies `is_normal_form` and is an
    equisatisfiable conservative extension of the input. Its fresh names
    start with `prefix`. Each statement is rewritten on its own, so the
    normal form of a KB plus a statement is that of the KB plus that of
    the statement alone, up to fresh names."""
    fresh = FreshNameFactory(prefix)
    out = kb
    for step in (_phase1_step, _phase2_step):
        budget = MAX_APPLICATIONS_PER_SIZE * max(size(out), 1)
        out = make_kb(_run_phase(out.statements, step, fresh, budget),
                      declared=out.vocabulary)
    bad = [st for st in out.statements if not is_normal_statement(st)]
    if bad:
        raise NormalizationError(f"statements left in non-normal shape: {bad!r}")
    return out
