"""Semi-naive fixpoint saturation of a fact store under the calculus.

The engine seeds the premise-free schema instances over the registered
universes, then works a queue of not-yet-joined facts: each popped fact is
tried in every premise position it can fill, the remaining premises are
joined through on-demand hash indexes, and new conclusions are interned
with provenance and appended to the queue. A join only admits facts no
newer than the popped one, so every premise combination is produced
exactly once — when its newest member is processed.

Tautologies are implicit. A gci_nested fact box_t[C sub box_s[D => E]]
with D = E or E = Top holds in every structure, and the calculus derives
every one over the universes (`_tautology_step` gives the derivation);
storing them would make up most of a saturated store and most rule
firings. Instead:
- a conclusion that is such a tautology is neither stored nor queued,
  and the premise-free rules that only give tautologies (T.3, T.4) are
  not instantiated;
- each join over a gci_nested premise also matches the tautologies
  consistent with its bound positions, as if they were older than every
  stored fact; joins whose premises are all tautologies run once, before
  the queue;
- join variants that can only conclude a tautology, or their own stored
  premise, are dropped when the rules are compiled;
- a tautology that is a premise of a stored conclusion is stored too
  (unindexed, unqueued) with that derivation, at most four steps from the
  T rules, so every provenance entry names stored ids and replays through
  `apply_rule`.
D = Bot facts stay explicit: the calculus has no schema for them, and
matching them implicitly would add Bot-subject copies of most facts.

Two mechanical speedups, invisible in the results:
- every (rule, premise position, implicit premises) variant is compiled
  once, on first use, into a closure of plain loops and tuple accesses;
  the declarative table in `rules` stays the single source of truth, and
  the variants are planned with its pattern operations (`unify`,
  `resolve`, `pattern_vars`), the ones trace replay uses when it
  re-checks every derivation through `apply_rule`;
- each run interns its terms (standpoints, roles, individuals, extended
  concepts) to integers in tables of its own, with maps linking nominals
  and self-loop concepts to their individual/role, and joins over a
  `FactStore` of interned facts; at the end it decodes that store once
  into a readable `FactStore`. Only `*`, Top and Bot, the constants the
  compiled joins hold, have fixed ids, so runs share no mutable state and
  may go on side by side in threads.

The fact space is fixed by the universes: `preprocess.FACT_SHAPES` gives
the universe of every position of every shape. So the run is bounded by
an explicit polynomial, the size of that space; exceeding it signals an
engine bug rather than a big input. A caller may set a lower limit. Both
count stored facts only, and the error says which one tripped.
"""

from __future__ import annotations

from collections import deque
from functools import cache
from itertools import product
from math import prod

from .model import UNIVERSAL
from .preprocess import (
    BOTC,
    FACT_SHAPES,
    KINDS,
    Fact,
    FactStore,
    REFUTATION_FACT,
    TOPC,
    Universes,
)
from .rules import (RULES, Rule, Var, instantiate_conclusion, is_nested,
                    pattern_vars, resolve, unify)


class FactLimitExceeded(RuntimeError):
    """A saturation stored more facts than allowed. `at_bound` tells which
    limit tripped: the polynomial fact bound, which only an engine bug can
    exceed, or a smaller limit the caller gave."""

    def __init__(self, count: int, limit: int, at_bound: bool) -> None:
        what = "the polynomial fact bound" if at_bound else "the fact limit"
        super().__init__(f"{count} facts exceed {what} {limit}")
        self.at_bound = at_bound


def polynomial_fact_bound(universes: Universes) -> int:
    """Count of the distinct facts constructible over the universes: per
    shape, the product of its positions' universe sizes."""
    size = {kind: len(universes.of(kind)) for kind in KINDS}
    return sum(prod(size[kind] for _, kind in positions)
               for positions in FACT_SHAPES.values())


# ---------------------------------------------------------------------------
# Term interning
# ---------------------------------------------------------------------------

#: The only terms with fixed ids: the constants of the rule patterns, which
#: the compiled joins hold. Every other term is interned per run.
_FIXED_TERMS = (UNIVERSAL, TOPC, BOTC)
_FIXED_IDS = {t: i for i, t in enumerate(_FIXED_TERMS)}
_STAR = _FIXED_IDS[UNIVERSAL]
_TOP = _FIXED_IDS[TOPC]

#: per nested concept tag, the names of the run's maps from the concept id
#: to its individual/role id and back, as the compiled joins name them
_NESTED_MAPS = {"nom": ("NOM2IND", "IND2NOM"),
                "self": ("SELF2ROLE", "ROLE2SELF")}


# ---------------------------------------------------------------------------
# Implicit tautologies
# ---------------------------------------------------------------------------

def _is_tautology(fact: Fact) -> bool:
    """True for the gci_nested facts box_t[C sub box_s[D => E]] with D = E
    or E = Top, which hold in every structure and are left implicit. Also
    accepts rule patterns: then true iff every instance is one."""
    return fact[0] == "gci_nested" and (fact[4] == fact[5]
                                        or fact[5] == TOPC)


#: the two terms each implicit tautology family equates in a gci_nested
#: pattern
_TAUTOLOGY_FAMILIES = {
    "D=E": lambda pat: (pat[4], pat[5]),
    "E=Top": lambda pat: (pat[5], TOPC),
}


def _tautology_step(fact: tuple) -> tuple[str, tuple]:
    """The last step of a canonical derivation of an interned tautology:
    a premise-free T rule, lifted to standpoints t and s by S.3/S.4 and
    to subject C by C.2 over the tautology box_*[Top sub box_t[C => Top]]."""
    _, t, c, s, d, e = fact
    if c != _TOP:
        return "C.2", (("gci_nested", _STAR, _TOP, t, c, _TOP),
                       ("gci_nested", t, _TOP, s, d, e))
    if t != _STAR:
        return "S.3:gci_nested", (("gci_nested", _STAR, _TOP, s, d, e),
                                  ("sharper", t, _STAR))
    if s != _STAR:
        return "S.4", (("gci_nested", _STAR, _TOP, _STAR, d, e),
                       ("sharper", s, _STAR))
    return ("T.3" if d == e else "T.4"), ()


# ---------------------------------------------------------------------------
# Rule compilation
# ---------------------------------------------------------------------------

def _join_plan(rule: Rule, implicit: dict[int, str]):
    """The premise and conclusion patterns of `rule` when the premises in
    `implicit` are tautologies of the given families, or None when no such
    instance exists or every one concludes a tautology or one of its own
    stored premises."""
    subst: dict | None = {}
    for j, family in implicit.items():
        subst = unify(*_TAUTOLOGY_FAMILIES[family](rule.premises[j]), subst)
        if subst is None:
            return None
    premises = resolve(rule.premises, subst)
    conclusion = resolve(rule.conclusion, subst)
    if _is_tautology(conclusion) or any(
            conclusion == p for j, p in enumerate(premises)
            if j not in implicit):
        return None
    return premises, conclusion


def _compile_join(rule: Rule, i: int | None, implicit: list[int],
                  premises: tuple, conclusion: tuple):
    """Compile the join of a `_join_plan` starting from premise position
    `i` (None: no popped fact), with the `implicit` premises generated
    rather than looked up, into a closure
    fn(lookup, fact_ids, fact, fid, ranges, maps, emit, derive), where
    `maps` holds the run's nominal and self-loop maps by name."""
    stored = [j for j in range(len(premises)) if j not in implicit]
    used_maps: set[str] = set()

    def term_expr(p) -> str:
        if isinstance(p, Var):
            return f"v_{p.name}"
        if is_nested(p):
            up = _NESTED_MAPS[p[0]][1]
            used_maps.add(up)
            return f"{up}[v_{p[1].name}]"
        return str(_FIXED_IDS[p])

    def tuple_expr(pat: tuple) -> str:
        return "(" + ", ".join([repr(pat[0])]
                               + [term_expr(p) for p in pat[1:]]) + ")"

    lines: list[str] = [
        "def _fn(lookup, fact_ids, fact, fid, ranges, maps, emit, derive):"]
    ind = "    "
    bound: set[str] = set()

    def destructure(src: str, pat: tuple, bail: str) -> list[str]:
        out = []
        for j, p in enumerate(pat[1:], start=1):
            if p is None:  # wildcard from _defer_pattern
                continue
            if isinstance(p, Var):
                if p.name in bound:
                    out.append(f"{ind}if {src}[{j}] != v_{p.name}: {bail}")
                else:
                    out.append(f"{ind}v_{p.name} = {src}[{j}]")
                    bound.add(p.name)
            elif is_nested(p):
                v = p[1]
                dmap = _NESTED_MAPS[p[0]][0]
                used_maps.add(dmap)
                if v.name in bound:
                    out.append(f"{ind}if {dmap}.get({src}[{j}], -1) != "
                               f"v_{v.name}: {bail}")
                else:
                    out.append(f"{ind}v_{v.name} = {dmap}.get({src}[{j}], -1)")
                    out.append(f"{ind}if v_{v.name} < 0: {bail}")
                    bound.add(v.name)
            else:
                out.append(f"{ind}if {src}[{j}] != {term_expr(p)}: {bail}")
        return out

    if i is not None:
        lines.append(f"{ind}p{i} = fact")
        lines.extend(destructure("fact", premises[i], "return"))

    # stored premises are looked up (and must be no newer than the popped
    # fact); implicit ones are generated afterwards from their free variables
    for j in (k for k in stored if k != i):
        pat = premises[j]
        positions, value_exprs, deferred = [], [], []
        for k, p in enumerate(pat[1:], start=1):
            if isinstance(p, Var):
                groundable = p.name in bound
            elif is_nested(p):
                groundable = p[1].name in bound
            else:
                groundable = True
            if groundable:
                positions.append(k)
                value_exprs.append(term_expr(p))
            else:
                deferred.append((k, p))
        key = (value_exprs[0] if len(value_exprs) == 1
               else "(" + ", ".join(value_exprs) + ")")
        lines.append(f"{ind}for p{j} in lookup({pat[0]!r}, "
                     f"{tuple(positions)!r}, {key}):")
        ind += "    "
        lines.append(f"{ind}if fact_ids[p{j}] > fid: continue")
        lines.extend(
            destructure(f"p{j}", _defer_pattern(pat, deferred), "continue"))

    for n, j in enumerate(implicit):
        later = [conclusion] + [premises[k] for k in implicit[n + 1:]]
        needed = {var for pat in later for var, _ in pattern_vars(pat)}
        for var, kind in pattern_vars(premises[j]):
            if var not in bound:
                # a variable nothing else reads takes any one value
                key = kind if var in needed else ("any", kind)
                lines.append(f"{ind}for v_{var} in ranges[{key!r}]:")
                ind += "    "
                bound.add(var)
        lines.append(f"{ind}p{j} = {tuple_expr(premises[j])}")

    for var, kind in rule.ranges:
        if var not in bound:
            lines.append(f"{ind}for v_{var} in ranges[{kind!r}]:")
            ind += "    "
            bound.add(var)

    if conclusion[0] == "gci_nested":
        pairs = _TAUTOLOGY_FAMILIES.values()
        tests = [f"{term_expr(a)} == {term_expr(b)}"
                 for a, b in (sides(conclusion) for sides in pairs)
                 if unify(a, b, {}) is not None]
        if tests:
            lines.append(f"{ind}if not ({' or '.join(tests)}):")
            ind += "    "
    prems = ("(" + ", ".join(f"p{k}" for k in range(len(premises)))
             + ("," if len(premises) == 1 else "") + ")")
    lines.append(f"{ind}_c = {tuple_expr(conclusion)}")
    # Implicit premises are stored even when the conclusion is not new, so
    # which ones end up stored does not depend on the worklist order.
    for j in implicit:
        lines.append(f"{ind}if p{j} not in fact_ids: derive(p{j})")
    lines.append(f"{ind}if _c not in fact_ids:")
    lines.append(f"{ind}    emit(_c, {prems}, {rule.name!r})")

    lines[1:1] = [f"    {m} = maps[{m!r}]" for m in sorted(used_maps)]
    ns: dict = {}
    label = f"<join {rule.name} from {i}, implicit {implicit}>"
    exec(compile("\n".join(lines), label, "exec"), ns)  # noqa: S102
    return ns["_fn"]


def _defer_pattern(pat: tuple, deferred: list) -> tuple:
    """A pattern keeping only the deferred positions (others wildcarded)."""
    wild: list = [pat[0]] + [None] * (len(pat) - 1)
    for k, p in deferred:
        wild[k] = p
    return tuple(wild)


@cache
def _compile_all():
    """Per popped shape, the joins to run; plus the joins whose premises
    are all implicit tautologies, which run once per saturation. Compiled
    on first use, so importing the package stays cheap."""
    dispatch: dict[str, list] = {}
    seeds: list = []
    families = (None,) + tuple(_TAUTOLOGY_FAMILIES)
    for rule in RULES:
        nested = [j for j, p in enumerate(rule.premises)
                  if p[0] == "gci_nested"]
        starts = list(enumerate(rule.premises))
        if rule.premises and len(nested) == len(rule.premises):
            starts.append((None, None))
        for i, pat in starts:
            others = [j for j in nested if j != i]
            seen = set()
            for choice in product(families, repeat=len(others)):
                implicit = {j: f for j, f in zip(others, choice) if f}
                if i is None and len(implicit) < len(others):
                    continue  # a stored premise fires when it is popped
                plan = _join_plan(rule, implicit)
                # families may coincide on a pattern (e.g. D = E = Top)
                key = (tuple(sorted(implicit)), plan)
                if plan is None or key in seen:
                    continue
                seen.add(key)
                fn = _compile_join(rule, i, list(key[0]), *plan)
                if i is None:
                    seeds.append(fn)
                else:
                    dispatch.setdefault(pat[0], []).append(fn)
    return dispatch, seeds


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class _Stop(Exception):
    pass


def saturate(store: FactStore, early_exit_on_refutation: bool = True,
             fact_limit: int | None = None,
             worklist: str = "fifo") -> FactStore:
    """Closure of `store` under all rules; returns a new store.

    Derived tautologies are not stored, except those that are premises of
    stored facts (see the module docstring). With
    `early_exit_on_refutation` the run may stop as soon as the refutation
    fact appears (the result is then marked partial). `worklist` ("fifo"
    or "lifo") only affects processing order, never the final set — used
    by the order-independence tests. Raises FactLimitExceeded when more
    facts are stored than the polynomial bound or `fact_limit` allows.
    """
    bound = polynomial_fact_bound(store.universes)
    limit = bound if fact_limit is None else min(bound, fact_limit)

    # This run's interning tables: term <-> id, and the maps between a
    # nominal (self-loop) concept id and its individual (role) id.
    terms = list(_FIXED_TERMS)
    term_ids = dict(_FIXED_IDS)
    maps: dict[str, dict[int, int]] = {
        name: {} for pair in _NESTED_MAPS.values() for name in pair}

    def intern(term) -> int:
        tid = term_ids.get(term)
        if tid is None:
            tid = term_ids[term] = len(terms)
            terms.append(term)
            if is_nested(term):
                down, up = _NESTED_MAPS[term[0]]
                inner = intern(term[1])
                maps[down][tid] = inner
                maps[up][inner] = tid
        return tid

    def intern_fact(fact: Fact) -> tuple:
        return (fact[0],) + tuple([intern(t) for t in fact[1:]])

    # Intern the universes first so the nominal/self maps are complete
    # before any rule fires. `*` and Top lead their ranges: they are the
    # values an implicit premise takes where any value will do.
    uni = store.universes
    ranges: dict = {kind: [intern(t) for t in uni.of(kind)] for kind in KINDS}
    for kind in list(ranges):
        ranges[("any", kind)] = ranges[kind][:1]
    refutation = intern_fact(REFUTATION_FACT)

    eng = FactStore(uni)
    add = eng.add
    fact_ids = eng.fact_ids

    def check_limit() -> None:
        if len(fact_ids) > limit:
            raise FactLimitExceeded(len(fact_ids), limit, limit == bound)

    for fid, fact in enumerate(store.facts):
        rule, premises = store.provenance[fid]
        add(intern_fact(fact), rule, premises)
    for rule in RULES:
        if not rule.premises and not _is_tautology(rule.conclusion):
            for fact in instantiate_conclusion(rule, {}, uni):
                add(intern_fact(fact), rule.name, ())
    check_limit()

    queue: deque[tuple] = deque(eng.facts)
    pop = queue.popleft if worklist == "fifo" else queue.pop
    lookup = eng.lookup_pos
    partial = False

    def emit(concl: tuple, premises: tuple, rule_name: str) -> None:
        add(concl, rule_name, tuple([fact_ids[p] for p in premises]))
        check_limit()
        queue.append(concl)
        if early_exit_on_refutation and concl == refutation:
            raise _Stop

    def derive(taut: tuple) -> None:
        """Store an implicit tautology, unindexed and unqueued, with its
        canonical derivation."""
        rule_name, premises = _tautology_step(taut)
        for p in premises:
            if p not in fact_ids:
                derive(p)
        add(taut, rule_name, tuple([fact_ids[p] for p in premises]),
            indexed=False)
        check_limit()

    dispatch, seed_joins = _compile_all()
    if not (early_exit_on_refutation and refutation in fact_ids):
        try:
            for fn in seed_joins:
                fn(lookup, fact_ids, None, -1, ranges, maps, emit, derive)
            while queue:
                fact = pop()
                fid = fact_ids[fact]
                for fn in dispatch.get(fact[0], ()):
                    fn(lookup, fact_ids, fact, fid, ranges, maps, emit,
                       derive)
        except _Stop:
            partial = True
    elif early_exit_on_refutation:
        partial = True

    # Decode into a readable store; ids and provenance carry over as they
    # are, and every fact is listed by shape. The engine store and its
    # indexes are released first, so that they do not add to the peak.
    facts, provenance = eng.facts, eng.provenance
    del eng, add, fact_ids, lookup
    out = FactStore(uni.copy())
    out.facts = [(f[0],) + tuple([terms[t] for t in f[1:]]) for f in facts]
    out.fact_ids = dict(zip(out.facts, range(len(out.facts))))
    out.provenance = provenance
    for fact in out.facts:
        out.by_shape.setdefault(fact[0], []).append(fact)
    out.partial = partial
    return out


def is_refuted(store: FactStore) -> bool:
    """True iff the refutation fact was derived."""
    return REFUTATION_FACT in store


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------

def format_term(term) -> str:
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


def format_fact(fact: Fact) -> str:
    return f"{fact[0]}({', '.join(format_term(t) for t in fact[1:])})"


def format_derivation(store: FactStore, fid: int) -> str:
    rule, premises = store.provenance[fid]
    line = f"fact {fid}: {format_fact(store.facts[fid])} BY {rule}"
    if premises:
        line += " FROM " + " ".join(str(p) for p in premises)
    return line


def export_trace(store: FactStore) -> str:
    """One derivation line per fact, in derivation (id) order."""
    return "\n".join(format_derivation(store, fid)
                     for fid in range(len(store.facts)))


def refutation_trace(store: FactStore) -> list[str] | None:
    """The derivation lines reachable from the refutation fact, in
    dependency order, or None if the store is not refuted."""
    if REFUTATION_FACT not in store.fact_ids:
        return None
    needed: set[int] = set()
    stack = [store.fact_ids[REFUTATION_FACT]]
    while stack:
        fid = stack.pop()
        if fid in needed:
            continue
        needed.add(fid)
        stack.extend(store.provenance[fid][1])
    return [format_derivation(store, fid) for fid in sorted(needed)]
