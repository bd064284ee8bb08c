"""Bounded semantic oracle: exhaustive model search and direct evaluation.

A standpoint structure fixes a finite domain, a finite set of
precisifications, a nonempty precisification set per standpoint (the
universal standpoint covering all of them), and one classical
interpretation per precisification; individuals are rigid. `eval_concept`
and `eval_statement` evaluate concept terms and statements against such a
structure directly from the semantic equations.

Engine facts are read once, on entry (`eval_statement`, `find_model_facts`),
as the statements they encode: a sharper or sharper_intersection fact as a
`Sharpening`, a gci_nested fact box_t[C sub box_s[D => E]] as its tuple with
concept terms for C, D and E, and every other fact as box_s of its axiom.
The reading and its decoder of extended concepts are the oracle's own, not
`preprocess`'s encoder, so that a wrong encoding shows up as a disagreement.

`find_model` enumerates structures smallest-first up to the given bounds.
Interpretations are not enumerated naively: a three-valued DFS assigns
membership atoms one at a time, keeping lower/upper bounds on every
concept and role extension and pruning as soon as any statement is
definitely violated. A step budget turns pathological searches into an
explicit Inconclusive outcome, distinct from NoneWithinBounds (which
exhausted the bounded space and proves nothing beyond it).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .model import (
    BOT,
    BOX,
    Bottom,
    ConceptAssertion,
    Conj,
    DIA,
    EMPTY,
    Exists,
    GCI,
    KnowledgeBase,
    Modal,
    ModalFormula,
    Name,
    Nominal,
    RIA,
    RoleAssertion,
    SelfLoop,
    Sharpening,
    TOP,
    Top,
    UNIVERSAL,
    boxed,
)
from .preprocess import FactStore


class _Outcome:
    def __init__(self, label: str) -> None:
        self.label = label

    def __repr__(self) -> str:
        return self.label

    def __bool__(self) -> bool:
        return False


#: No structure exists within the requested bounds (not a proof of UNSAT).
NONE_WITHIN_BOUNDS = _Outcome("NoneWithinBounds")
#: The step budget ran out before the bounded space was exhausted.
INCONCLUSIVE = _Outcome("Inconclusive")

DEFAULT_STEP_BUDGET = 10**8

#: Largest number of undecided membership atoms a single evaluation piece
#: may have before exact enumeration gives up and stays three-valued.
_EXACT_CAP = 12


@dataclass
class StandpointStructure:
    domain: tuple[int, ...]
    precisifications: tuple[int, ...]
    sigma: dict[str, frozenset[int]]
    concept_ext: dict[tuple[int, str], frozenset[int]]  # (prec, name)
    role_ext: dict[tuple[int, str], frozenset[tuple[int, int]]]
    individuals: dict[str, int]

    def dump(self) -> str:
        lines = [f"domain: {list(self.domain)}",
                 f"precisifications: {list(self.precisifications)}"]
        for s in sorted(self.sigma):
            lines.append(f"sigma({s}) = {sorted(self.sigma[s])}")
        for a in sorted(self.individuals):
            lines.append(f"{a} -> {self.individuals[a]}")
        for pi in self.precisifications:
            lines.append(f"gamma({pi}):")
            names = sorted({n for (p, n) in self.concept_ext if p == pi})
            for n in names:
                lines.append(f"  {n} = {sorted(self.concept_ext[(pi, n)])}")
            rnames = sorted({n for (p, n) in self.role_ext if p == pi})
            for n in rnames:
                lines.append(f"  {n} = {sorted(self.role_ext[(pi, n)])}")
        return "\n".join(lines)


class _OutOfBudget(Exception):
    pass


class _Budget:
    def __init__(self, steps: int) -> None:
        self.left = steps

    def tick(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise _OutOfBudget


# ---------------------------------------------------------------------------
# Three-valued evaluation
#
# `asg` maps membership atoms to booleans; missing atoms are undecided.
# Atoms: ("c", prec, concept name, element) and ("r", prec, role, (d, e)).
# All bound computations return (definite members, possible members).
# ---------------------------------------------------------------------------

class _Ctx:
    """One candidate structure under construction (or a complete one)."""

    def __init__(self, domain, precs, sigma, individuals, asg):
        self.domain = domain
        self.precs = precs
        self.sigma = sigma
        self.individuals = individuals
        self.asg = asg
        self.budget = None  # charged for exact enumeration trials
        self.cap = _EXACT_CAP

    def sig(self, s: str) -> frozenset[int]:
        if s == EMPTY:
            return frozenset()
        return self.sigma[s]

    def c_bounds(self, pi: int, c) -> tuple[frozenset, frozenset]:
        if isinstance(c, Top):
            full = frozenset(self.domain)
            return full, full
        if isinstance(c, Bottom):
            return _EMPTYSET, _EMPTYSET
        if isinstance(c, Name):
            lo, hi = set(), set()
            asg = self.asg
            for d in self.domain:
                v = asg.get(("c", pi, c.name, d))
                if v:
                    lo.add(d)
                if v is not False:
                    hi.add(d)
            return frozenset(lo), frozenset(hi)
        if isinstance(c, Nominal):
            e = frozenset((self.individuals[c.individual],))
            return e, e
        if isinstance(c, SelfLoop):
            rlo, rhi = self.r_bounds(pi, c.role)
            return (frozenset(d for d in self.domain if (d, d) in rlo),
                    frozenset(d for d in self.domain if (d, d) in rhi))
        if isinstance(c, Conj):
            llo, lhi = self.c_bounds(pi, c.left)
            rlo, rhi = self.c_bounds(pi, c.right)
            return llo & rlo, lhi & rhi
        if isinstance(c, Exists):
            rlo, rhi = self.r_bounds(pi, c.role)
            flo, fhi = self.c_bounds(pi, c.filler)
            return (frozenset(d for d in self.domain
                              if any((d, e) in rlo for e in flo)),
                    frozenset(d for d in self.domain
                              if any((d, e) in rhi for e in fhi)))
        if isinstance(c, Modal):
            lo: frozenset = _EMPTYSET
            hi: frozenset = _EMPTYSET
            precs = self.sig(c.standpoint)
            if c.op == BOX:
                lo, hi = frozenset(self.domain), frozenset(self.domain)
                for p in precs:
                    ilo, ihi = self.c_bounds(p, c.inner)
                    lo, hi = lo & ilo, hi & ihi
                return lo, hi
            for p in precs:
                ilo, ihi = self.c_bounds(p, c.inner)
                lo, hi = lo | ilo, hi | ihi
            return lo, hi
        raise TypeError(f"not a concept: {c!r}")

    def r_bounds(self, pi: int, role: str) -> tuple[frozenset, frozenset]:
        lo, hi = set(), set()
        asg = self.asg
        for d in self.domain:
            for e in self.domain:
                v = asg.get(("r", pi, role, (d, e)))
                if v:
                    lo.add((d, e))
                if v is not False:
                    hi.add((d, e))
        return frozenset(lo), frozenset(hi)

    def chain_bounds(self, pi: int, chain) -> tuple[frozenset, frozenset]:
        lo, hi = self.r_bounds(pi, chain[0])
        for role in chain[1:]:
            nlo, nhi = self.r_bounds(pi, role)
            lo = frozenset((d, f) for (d, e) in lo for (e2, f) in nlo
                           if e == e2)
            hi = frozenset((d, f) for (d, e) in hi for (e2, f) in nhi
                           if e == e2)
        return lo, hi

    # -- exact enumeration over small atom sets --
    #
    # Interval bounds lose correlations between occurrences of the same
    # atom, so e.g. `C and C sub C` stays undecided under a partial
    # assignment and forces exponential branching. Each status below is
    # therefore split into per-element (or per-pair) pieces; when the
    # bounds leave a piece undecided, its few relevant unassigned atoms
    # are enumerated outright, which decides any piece whose truth does
    # not actually depend on free atoms.

    def _mem_atoms(self, pi: int, c, d, acc: set) -> bool:
        """Collect the unassigned atoms membership of `d` in `c` at `pi`
        depends on; False once the collection exceeds the cap."""
        if isinstance(c, (Top, Bottom, Nominal)):
            return True
        if isinstance(c, Name):
            a = ("c", pi, c.name, d)
            if a not in self.asg:
                acc.add(a)
            return len(acc) <= self.cap
        if isinstance(c, SelfLoop):
            a = ("r", pi, c.role, (d, d))
            if a not in self.asg:
                acc.add(a)
            return len(acc) <= self.cap
        if isinstance(c, Conj):
            return (self._mem_atoms(pi, c.left, d, acc)
                    and self._mem_atoms(pi, c.right, d, acc))
        if isinstance(c, Exists):
            for e in self.domain:
                a = ("r", pi, c.role, (d, e))
                if a not in self.asg:
                    acc.add(a)
                if not self._mem_atoms(pi, c.filler, e, acc):
                    return False
            return len(acc) <= self.cap
        if isinstance(c, Modal):
            for p in self.sig(c.standpoint):
                if not self._mem_atoms(p, c.inner, d, acc):
                    return False
            return True
        raise TypeError(f"not a concept: {c!r}")

    def _chain_atoms(self, pi: int, chain, d, f, acc: set) -> bool:
        if len(chain) == 1:
            a = ("r", pi, chain[0], (d, f))
            if a not in self.asg:
                acc.add(a)
            return len(acc) <= self.cap
        for e in self.domain:
            a = ("r", pi, chain[0], (d, e))
            if a not in self.asg:
                acc.add(a)
            if not self._chain_atoms(pi, chain[1:], e, f, acc):
                return False
        return True

    def _enumerate(self, acc: set, eval_fn):
        """Truth of a piece over every assignment of its free atoms:
        True / False if constant, None if it genuinely varies."""
        atoms = sorted(acc)
        seen_true = seen_false = False
        for bits in product((False, True), repeat=len(atoms)):
            if self.budget is not None:
                self.budget.tick()
            for a, v in zip(atoms, bits):
                self.asg[a] = v
            if eval_fn():
                seen_true = True
            else:
                seen_false = True
            if seen_true and seen_false:
                break
        for a in atoms:
            del self.asg[a]
        if seen_true and seen_false:
            return None
        return seen_true

    def _mem(self, pi: int, c, d) -> bool:
        return d in self.c_bounds(pi, c)[0]

    def mem_status(self, pi: int, c, d):
        lo, hi = self.c_bounds(pi, c)
        if d in lo:
            return True
        if d not in hi:
            return False
        acc: set = set()
        if not self._mem_atoms(pi, c, d, acc):
            return None
        return self._enumerate(acc, lambda: self._mem(pi, c, d))

    def _imp_status(self, pi: int, lhs, d, rhs):
        """Membership in `lhs` implies membership in `rhs`, for `d`."""
        if d not in self.c_bounds(pi, lhs)[1] or d in self.c_bounds(pi, rhs)[0]:
            return True
        acc: set = set()
        if not (self._mem_atoms(pi, lhs, d, acc)
                and self._mem_atoms(pi, rhs, d, acc)):
            return None
        return self._enumerate(
            acc, lambda: not self._mem(pi, lhs, d) or self._mem(pi, rhs, d))

    # -- statuses: True / False / None (undecided) --

    def gci_status(self, pi: int, lhs, rhs):
        llo, lhi = self.c_bounds(pi, lhs)
        rlo, rhi = self.c_bounds(pi, rhs)
        if llo - rhi:
            return False
        if lhi <= rlo:
            return True
        out = True
        for d in lhi - rlo:
            v = self._imp_status(pi, lhs, d, rhs)
            if v is False:
                return False
            if v is None:
                out = None
        return out

    def axiom_status(self, pi: int, ax):
        if isinstance(ax, GCI):
            return self.gci_status(pi, ax.lhs, ax.rhs)
        if isinstance(ax, RIA):
            clo, chi = self.chain_bounds(pi, ax.chain)
            slo, shi = self.r_bounds(pi, ax.super_role)
            if clo - shi:
                return False
            if chi <= slo:
                return True
            out = True
            for d, f in sorted(chi - slo):
                acc: set = {("r", pi, ax.super_role, (d, f))} - self.asg.keys()
                if not self._chain_atoms(pi, ax.chain, d, f, acc):
                    out = None
                    continue
                v = self._enumerate(acc, lambda d=d, f=f: (
                    (d, f) not in self.chain_bounds(pi, ax.chain)[0]
                    or (d, f) in self.r_bounds(pi, ax.super_role)[0]))
                if v is False:
                    return False
                if v is None:
                    out = None
            return out
        if isinstance(ax, ConceptAssertion):
            return self.mem_status(
                pi, ax.concept, self.individuals[ax.individual])
        if isinstance(ax, RoleAssertion):
            pair = (self.individuals[ax.subject], self.individuals[ax.object])
            lo, hi = self.r_bounds(pi, ax.role)
            if pair in lo:
                return True
            if pair not in hi:
                return False
            return None
        raise TypeError(f"not an axiom: {ax!r}")

    def _axiom_atoms(self, pi: int, ax, acc: set) -> bool:
        if isinstance(ax, GCI):
            for d in self.domain:
                if not (self._mem_atoms(pi, ax.lhs, d, acc)
                        and self._mem_atoms(pi, ax.rhs, d, acc)):
                    return False
            return True
        if isinstance(ax, RIA):
            for d in self.domain:
                for f in self.domain:
                    a = ("r", pi, ax.super_role, (d, f))
                    if a not in self.asg:
                        acc.add(a)
                    if not self._chain_atoms(pi, ax.chain, d, f, acc):
                        return False
            return True
        if isinstance(ax, ConceptAssertion):
            return self._mem_atoms(
                pi, ax.concept, self.individuals[ax.individual], acc)
        if isinstance(ax, RoleAssertion):
            a = ("r", pi, ax.role,
                 (self.individuals[ax.subject], self.individuals[ax.object]))
            if a not in self.asg:
                acc.add(a)
            return len(acc) <= self.cap
        raise TypeError(f"not an axiom: {ax!r}")

    def statement_atoms(self, st) -> list:
        """Sorted unassigned atoms the statement's truth still depends on."""
        saved, self.cap = self.cap, 10**9
        acc: set = set()
        try:
            if isinstance(st, tuple):  # a read gci_nested fact
                _, t, c, s, d, e = st
                for x in self.domain:
                    for pi in self.sig(t):
                        self._mem_atoms(pi, c, x, acc)
                    for pj in self.sig(s):
                        self._mem_atoms(pj, d, x, acc)
                        self._mem_atoms(pj, e, x, acc)
            elif isinstance(st, ModalFormula):
                for pi in self.sig(st.standpoint):
                    for lit in st.literals:
                        self._axiom_atoms(pi, lit.axiom, acc)
            # sharpenings depend on sigma only
        finally:
            self.cap = saved
        return sorted(acc)

    def _monomial_literal_statuses(self, pi: int, literals):
        out = True
        for lit in literals:
            v = self.axiom_status(pi, lit.axiom)
            if lit.negated:
                v = None if v is None else not v
            if v is False:
                return False
            if v is None:
                out = None
        return out

    def monomial_status(self, pi: int, literals):
        out = self._monomial_literal_statuses(pi, literals)
        if out is not None or len(literals) < 2:
            return out
        # literals are three-valued independently, losing correlations
        # between them (e.g. A(a) and not A(a)); enumerate jointly
        acc: set = set()
        for lit in literals:
            if not self._axiom_atoms(pi, lit.axiom, acc):
                return None
        return self._enumerate(
            acc, lambda: self._monomial_literal_statuses(pi, literals))

    def statement_status(self, st):
        if isinstance(st, tuple):  # a read gci_nested fact
            return self._nested_status(st)
        if isinstance(st, Sharpening):
            meet = frozenset(self.precs)
            for s in st.lhs:
                meet &= self.sig(s)
            holds = meet <= self.sig(st.rhs)
            return not holds if st.negated else holds
        if isinstance(st, ModalFormula):
            precs = self.sig(st.standpoint)
            if st.op == BOX:
                out = True
                for pi in precs:
                    v = self.monomial_status(pi, st.literals)
                    if v is False:
                        return False
                    if v is None:
                        out = None
                return out
            out = False
            for pi in precs:
                v = self.monomial_status(pi, st.literals)
                if v:
                    return True
                if v is None:
                    out = None
            return out
        raise TypeError(f"not a statement: {st!r}")

    def _nested_status(self, fact: tuple):
        # box_t[C sub box_s[D => E]]: for every prec of t and member of C
        # there, membership in D forces membership in E at every prec of s.
        _, t, c, s, d, e = fact
        out = True
        for pi in self.sig(t):
            clo, chi = self.c_bounds(pi, c)
            if not chi:
                continue
            for pj in self.sig(s):
                dlo, dhi = self.c_bounds(pj, d)
                elo, ehi = self.c_bounds(pj, e)
                if (clo & dlo) - ehi:
                    return False
                for x in (chi & dhi) - elo:
                    acc: set = set()
                    if not (self._mem_atoms(pi, c, x, acc)
                            and self._mem_atoms(pj, d, x, acc)
                            and self._mem_atoms(pj, e, x, acc)):
                        out = None
                        continue
                    v = self._enumerate(acc, lambda x=x: (
                        not (self._mem(pi, c, x) and self._mem(pj, d, x))
                        or self._mem(pj, e, x)))
                    if v is False:
                        return False
                    if v is None:
                        out = None
        return out


_EMPTYSET: frozenset = frozenset()

#: per extended-concept tag, the concept term of its arguments
_TERMS = {"top": lambda: TOP, "bot": lambda: BOT, "cn": Name,
          "nom": Nominal, "self": SelfLoop}

#: per fact shape, the statement a fact states, from its positions: a
#: gci_nested fact stays a tuple, evaluated by `_Ctx._nested_status`
_READINGS = {
    "sharper": lambda s1, s2: Sharpening(False, (s1,), s2),
    "sharper_intersection":
        lambda s1, s2, s3: Sharpening(False, (s1, s2), s3),
    "ria2": lambda s, r1, r2: boxed(s, RIA((r1,), r2)),
    "ria3": lambda s, r1, r2, r3: boxed(s, RIA((r1, r2), r3)),
    "role_assertion": lambda s, r, a, b: boxed(s, RoleAssertion(r, a, b)),
    "gci_ex_right": lambda s, c, r, d: boxed(
        s, GCI(_as_term(c), Exists(r, _as_term(d)))),
    "gci_ex_left": lambda s, r, c, d: boxed(
        s, GCI(Exists(r, _as_term(c)), _as_term(d))),
    "gci_con_left": lambda s, c1, c2, d: boxed(
        s, GCI(Conj(_as_term(c1), _as_term(c2)), _as_term(d))),
    "gci_dia_right": lambda t, c, s, d: boxed(
        t, GCI(_as_term(c), Modal(DIA, s, _as_term(d)))),
    "gci_nested": lambda t, c, s, d, e: (
        "gci_nested", t, _as_term(c), s, _as_term(d), _as_term(e)),
}


def _as_term(c: tuple):
    """Extended-concept tuple -> concept term."""
    return _TERMS[c[0]](*c[1:])


def _read(statement):
    """A statement as it is; an engine fact as what it states (`_READINGS`)."""
    if not isinstance(statement, tuple):
        return statement
    if statement[0] not in _READINGS:
        raise TypeError(f"not a fact: {statement!r}")
    return _READINGS[statement[0]](*statement[1:])


# ---------------------------------------------------------------------------
# Exact evaluation against a complete structure
# ---------------------------------------------------------------------------

def _ctx_of(structure: StandpointStructure) -> _Ctx:
    asg: dict = {}
    for (pi, name), ext in structure.concept_ext.items():
        for d in structure.domain:
            asg[("c", pi, name, d)] = d in ext
    for (pi, role), ext in structure.role_ext.items():
        for d in structure.domain:
            for e in structure.domain:
                asg[("r", pi, role, (d, e))] = (d, e) in ext
    return _Ctx(structure.domain, structure.precisifications,
                structure.sigma, structure.individuals, asg)


def eval_concept(structure: StandpointStructure, pi: int, concept) -> frozenset:
    """Extension of the concept term `concept` at `pi`."""
    lo, hi = _ctx_of(structure).c_bounds(pi, concept)
    if lo != hi:
        raise ValueError("structure does not interpret all names in concept")
    return lo


def eval_statement(structure: StandpointStructure, statement) -> bool:
    """Truth of a Statement, or of the statement an engine fact encodes,
    in `structure`."""
    v = _ctx_of(structure).statement_status(_read(statement))
    if v is None:
        raise ValueError("structure does not interpret all names in statement")
    return v


# ---------------------------------------------------------------------------
# Bounded search
# ---------------------------------------------------------------------------

def _nonempty_subsets(precs: tuple[int, ...]):
    for k in range(1, len(precs) + 1):
        for combo in combinations(precs, k):
            yield frozenset(combo)


def _individual_maps(count: int, size: int):
    """The maps of `count` individuals into range(size), in lexicographic
    order, in which each individual takes an element at most one above the
    largest taken before it. The domain elements are interchangeable, so
    every other map is a permutation of one of these (least-number
    symmetry breaking)."""
    if count == 0:
        yield ()
        return
    for head in _individual_maps(count - 1, size):
        for value in range(min(max(head, default=-1) + 2, size)):
            yield head + (value,)


def _search(statements, standpoints, concepts, roles, individuals,
            max_domain: int, max_prec: int, budget: _Budget):
    named = sorted(standpoints - {UNIVERSAL})
    statements = list(statements)

    for nd in range(1, max_domain + 1):
        domain = tuple(range(nd))
        for np in range(1, max_prec + 1):
            precs = tuple(range(np))
            subset_choices = list(_nonempty_subsets(precs))
            for sigma_vals in product(subset_choices, repeat=len(named)):
                budget.tick()
                sigma = dict(zip(named, sigma_vals))
                sigma[UNIVERSAL] = frozenset(precs)
                for ind_vals in _individual_maps(len(individuals), nd):
                    budget.tick()
                    ind = dict(zip(sorted(individuals), ind_vals))
                    ctx = _Ctx(domain, precs, sigma, ind, {})
                    ctx.budget = budget
                    # sharpenings depend only on sigma: filter early
                    ok = True
                    for st in statements:
                        if isinstance(st, Sharpening):
                            if ctx.statement_status(st) is False:
                                ok = False
                                break
                    if not ok:
                        continue
                    found = _dfs(ctx, statements, budget)
                    if found is not None:
                        return _build_structure(
                            ctx, concepts, roles, domain, precs, sigma, ind)
    return None


def _dfs(ctx: _Ctx, statements, budget: _Budget):
    budget.tick()
    branch_atom = None
    best = None
    pending = []  # statuses are monotone: drop definitely-true statements
    for st in statements:
        v = ctx.statement_status(st)
        if v is False:
            return None
        if v is None:
            pending.append(st)
            # branch within the most constrained undecided statement
            free = ctx.statement_atoms(st)
            if free and (best is None or len(free) < best):
                best = len(free)
                branch_atom = free[0]
    if branch_atom is None:
        return ctx.asg  # every statement definitely true
    for value in (True, False):
        ctx.asg[branch_atom] = value
        found = _dfs(ctx, pending, budget)
        if found is not None:
            return found
    del ctx.asg[branch_atom]
    return None


def _build_structure(ctx, concepts, roles, domain, precs, sigma,
                     individuals) -> StandpointStructure:
    concept_ext = {}
    role_ext = {}
    for pi in precs:
        for name in sorted(concepts):
            concept_ext[(pi, name)] = frozenset(
                d for d in domain if ctx.asg.get(("c", pi, name, d)))
        for role in sorted(roles):
            role_ext[(pi, role)] = frozenset(
                p for p in product(domain, domain)
                if ctx.asg.get(("r", pi, role, p)))
    return StandpointStructure(domain, precs, dict(sigma), concept_ext,
                               role_ext, dict(individuals))


def _find(statements, standpoints, concepts, roles, individuals,
          max_domain: int, max_precisifications: int, step_budget: int):
    """The driver of `find_model` and `find_model_facts`, over statements
    and read facts with the names to interpret."""
    if max_domain < 1 or max_precisifications < 1:
        raise ValueError("bounds must be at least 1")
    try:
        found = _search(statements, standpoints, concepts, roles, individuals,
                        max_domain, max_precisifications, _Budget(step_budget))
    except _OutOfBudget:
        return INCONCLUSIVE
    if found is None:
        return NONE_WITHIN_BOUNDS
    ctx = _ctx_of(found)
    assert all(ctx.statement_status(st) for st in statements)
    return found


def find_model(kb: KnowledgeBase, max_domain: int, max_precisifications: int,
               step_budget: int = DEFAULT_STEP_BUDGET):
    """First structure within the bounds satisfying every statement, else
    NONE_WITHIN_BOUNDS; INCONCLUSIVE if the step budget ran out."""
    vocab = kb.vocabulary
    return _find(kb.statements, vocab.standpoint_names, vocab.concept_names,
                 vocab.role_names, vocab.individual_names,
                 max_domain, max_precisifications, step_budget)


def find_model_facts(store: FactStore, max_domain: int,
                     max_precisifications: int,
                     step_budget: int = DEFAULT_STEP_BUDGET):
    """find_model over the statements the facts of a store encode (used to
    extend satisfiability checks across preprocessing)."""
    uni = store.universes
    return _find([_read(f) for f in store.facts], uni.standpoints,
                 {c[1] for c in uni.concepts if c[0] == "cn"}, uni.roles,
                 uni.individuals, max_domain, max_precisifications,
                 step_budget)
