"""Semi-naive fixpoint saturation of a fact store under the calculus.

The engine seeds the premise-free schema instances over the registered
universes, then walks its fact list in id order: the list is the
worklist, and new conclusions are appended to it with provenance. Each
fact the walk reaches is tried in every premise position it can fill, and
the remaining premises are joined through on-demand hash indexes. A join
only admits facts no newer than the one reached, so every premise
combination is produced exactly once — when its newest member is reached.

Two kinds of gci_nested fact box_t[C sub box_s[D => E]] are implicit:
- tautologies, with D = E or E = Top: they hold in every structure, and
  the calculus derives every one over the universes;
- Top-twins, with C other than Top, whose twin box_t[Top sub box_s[D => E]]
  is stored: the twin implies them by C.2 over the tautology
  box_*[Top sub box_t[C => Top]], for every C of the concept universe.
Storing them would make up most of a saturated store and most rule
firings. Instead:
- a conclusion that is a tautology, or whose Top-subject twin is stored,
  is not stored, and the premise-free rules that only give tautologies
  (T.3, T.4) are not instantiated;
- each join over a gci_nested premise also matches the tautologies
  consistent with its bound positions, as if they were older than every
  stored fact; joins whose premises are all tautologies run once, before
  the walk;
- each join over a gci_nested premise whose subject is not the constant
  Top also matches stored Top-subject facts there, as every subject: the
  premise's subject is then bound by another premise, or ranges over the
  universe (individuals, for a nominal);
- a fact whose twin was stored after it, before the walk reached it, is
  not joined: the twin's joins cover every combination it would make.
  Facts stored before their twin arrived stay in the store;
- join variants that can only conclude a tautology, one of their own
  stored premises or a twin of one, are dropped when the rules are
  compiled, and so is a twin match whose subject only reappears as the
  conclusion's subject;
- an implicit fact that is a premise of a stored conclusion is stored too,
  unindexed, with its derivation (`_implicit_step`): a twin by C.2 from
  its stored twin, a tautology at most four steps from the T rules. So
  every provenance entry names stored ids and replays through
  `apply_rule`. Such a premise-only fact is a tautology or has a stored
  twin, and the walk skips it when it reaches it.
D = Bot facts stay explicit: the calculus has no schema for them, and
matching them implicitly would add Bot-subject copies of most facts.

Two mechanical speedups, invisible in the results:
- every (rule, premise position, implicit and twin premises) variant is
  compiled once, on first use, into a closure of plain loops and tuple
  accesses, and runs only on the facts reached that it can match (for
  gci_nested, by whether the subject is Top); the declarative table in
  `rules` stays the single source of truth, and the variants are planned
  with its pattern operations (`unify`, `resolve`, `pattern_vars`), the
  ones trace replay uses when it re-checks every derivation through
  `apply_rule`;
- each run interns the terms of its universes (standpoints, roles,
  individuals, extended concepts) to integers, once, in tables of its own,
  with maps linking nominals and self-loop concepts to their
  individual/role, and joins over a `FactStore` of interned facts; at the
  end it decodes that store once into a readable `FactStore`. Only `*`,
  Top and Bot, the constants the compiled joins hold, have fixed ids, so
  runs share no mutable state and may go on side by side in threads.

The fact space is fixed by the universes: `preprocess.FACT_SHAPES` gives
the universe of every position of every shape, and an input fact naming a
term outside them is an error. So the run is bounded by an explicit
polynomial, the size of that space; exceeding it signals an engine bug
rather than a big input. A caller may set a lower limit. Both count
stored facts only, and the error says which one tripped.
"""

from __future__ import annotations

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
    NESTED_TAGS,
    PreprocessError,
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
# Implicit facts: tautologies and Top-twins
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

#: the join mode of a gci_nested premise matched by the Top-subject twin
#: of its instances
_TWIN = "twin"

#: the dispatch key of the gci_nested facts with subject Top
_TOP_SUBJECT = "gci_nested/Top"


def _twin(fact: tuple) -> tuple:
    """The Top-subject twin of a gci_nested fact or pattern, which implies
    it by C.2 over the tautology box_*[Top sub box_t[C => Top]]."""
    return fact[:2] + (TOPC,) + fact[3:]


def _implicit_step(fact: tuple) -> tuple[str, tuple]:
    """The last step of a canonical derivation of an interned implicit
    fact. A Top-twin, and a tautology with a subject C other than Top,
    follow by C.2 from box_*[Top sub box_t[C => Top]] and the Top-subject
    twin; a Top-subject tautology is a premise-free T rule lifted to
    standpoints t and s by S.3/S.4."""
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

def _join_plan(rule: Rule, modes: dict[int, str]):
    """The premise and conclusion patterns of `rule` when each premise in
    `modes` is an implicit tautology of the given family or, for `_TWIN`,
    a twin of a stored Top-subject fact; or None when no such instance
    exists or every one is already implied: a tautology, one of its own
    stored premises or a twin of one. So is a twin whose subject variable
    shows up elsewhere only as the subject of an implicit premise or of
    the conclusion: with that subject Top, the plan without the twin
    concludes the Top-subject twin of each of its conclusions."""
    subst: dict | None = {}
    for j, mode in modes.items():
        if mode != _TWIN:
            subst = unify(*_TAUTOLOGY_FAMILIES[mode](rule.premises[j]),
                          subst)
            if subst is None:
                return None
    premises = resolve(rule.premises, subst)
    conclusion = resolve(rule.conclusion, subst)
    twins = [j for j, mode in modes.items() if mode == _TWIN]
    if any(premises[j][2] == TOPC for j in twins):
        return None  # a Top subject is its own twin: the plain join's job
    # what the stored premises match; a twin matches its Top-subject twin
    stored = [_twin(p) if j in twins else p for j, p in enumerate(premises)
              if modes.get(j, _TWIN) == _TWIN]
    nested = conclusion[0] == "gci_nested"
    if conclusion in stored or nested and (
            _is_tautology(conclusion) or _twin(conclusion) in stored):
        return None
    loose = [_twin(p) if j in modes else p for j, p in enumerate(premises)]
    elsewhere = {var for pat in loose + [_twin(conclusion) if nested
                                         else conclusion]
                 for var, _ in pattern_vars(pat)}
    if any(isinstance(premises[j][2], Var)
           and premises[j][2].name not in elsewhere for j in twins):
        return None
    return premises, conclusion


def _compile_join(rule: Rule, i: int | None, implicit: list[int],
                  twins: list[int], premises: tuple, conclusion: tuple):
    """Compile the join of a `_join_plan` starting from premise position
    `i` (None: no fact reached), with the `implicit` premises generated
    rather than looked up and the `twins` matched by their Top-subject
    twins. The result makes, for one run,
    make(index, fact_ids, ranges, maps, emit, derive), the closure
    fn(fact, fid) to call on each fact the walk reaches (fact None for a
    join without one); `index(shape, positions)` gives the run's index
    tables, and `maps` holds its nominal and self-loop maps by name."""
    matched = [_twin(p) if j in twins else p for j, p in enumerate(premises)]
    stored = [j for j in range(len(premises)) if j not in implicit]
    # built from their variables once every stored premise is bound
    generated = implicit + twins
    # a twin's subject variable bound to Top repeats the plain join
    not_top = {premises[j][2].name for j in twins
               if isinstance(premises[j][2], Var)}
    used_maps: set[str] = set()
    tables: dict[tuple, str] = {}

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

    lines: list[str] = []
    ind = "    "
    bound: set[str] = set()

    def bail() -> str:
        return "return" if ind == "    " else "continue"

    def bind(var: str, out: list[str]) -> None:
        bound.add(var)
        if var in not_top:
            out.append(f"{ind}if v_{var} == {_TOP}: {bail()}")

    def destructure(src: str, pat: tuple) -> list[str]:
        out = []
        for j, p in enumerate(pat[1:], start=1):
            if p is None:  # wildcard from _defer_pattern
                continue
            if isinstance(p, Var):
                if p.name in bound:
                    out.append(f"{ind}if {src}[{j}] != v_{p.name}: {bail()}")
                else:
                    out.append(f"{ind}v_{p.name} = {src}[{j}]")
                    bind(p.name, out)
            elif is_nested(p):
                v = p[1]
                dmap = _NESTED_MAPS[p[0]][0]
                used_maps.add(dmap)
                if v.name in bound:
                    out.append(f"{ind}if {dmap}.get({src}[{j}], -1) != "
                               f"v_{v.name}: {bail()}")
                else:
                    out.append(f"{ind}v_{v.name} = {dmap}.get({src}[{j}], -1)")
                    out.append(f"{ind}if v_{v.name} < 0: {bail()}")
                    bound.add(v.name)
            else:
                out.append(f"{ind}if {src}[{j}] != {term_expr(p)}: {bail()}")
        return out

    # A conclusion that is a tautology, or whose Top-subject twin is
    # stored, is implied: each test runs as soon as its variables are bound.
    guards = []
    if conclusion[0] == "gci_nested":
        pairs = [sides(conclusion) for sides in _TAUTOLOGY_FAMILIES.values()]
        pairs = [pair for pair in pairs if unify(*pair, {}) is not None]
        if pairs:
            guards.append((pairs, " or ".join(
                f"{term_expr(a)} == {term_expr(b)}" for a, b in pairs)))
        if conclusion[2] != TOPC:
            # a subject variable may take Top in this join, and conclude
            # the twin itself: wait for it
            twin = _twin(conclusion)
            wait = twin if is_nested(conclusion[2]) else conclusion
            guards.append(([wait], f"{tuple_expr(twin)} in fact_ids"))

    def run_guards() -> None:
        for guard in list(guards):
            terms, test = guard
            if all(v in bound for v in _term_vars(terms)):
                lines.append(f"{ind}if {test}: {bail()}")
                guards.remove(guard)

    if i is not None:
        lines.append(f"{ind}p{i} = fact")
        lines.extend(destructure("fact", matched[i]))
        run_guards()

    # stored premises are looked up (and must be no newer than the reached
    # fact); generated ones are built afterwards from their free variables
    for j in (k for k in stored if k != i):
        pat = matched[j]
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
        table = tables.setdefault((pat[0], tuple(positions)),
                                  f"T{len(tables)}")
        lines.append(f"{ind}for p{j} in {table}.get({key}, ()):")
        ind += "    "
        lines.append(f"{ind}if fact_ids[p{j}] > fid: continue")
        lines.extend(destructure(f"p{j}", _defer_pattern(pat, deferred)))
        run_guards()

    # Only the Top instance of a conclusion's subject is needed: the others
    # are its twins.
    for n, j in enumerate(generated):
        later = [_twin(conclusion) if conclusion[0] == "gci_nested"
                 else conclusion] + [premises[k] for k in generated[n + 1:]]
        needed = {var for pat in later for var, _ in pattern_vars(pat)}
        for var, kind in pattern_vars(premises[j]):
            if var not in bound:
                # a variable nothing else reads takes any one value
                key = kind if var in needed else ("any", kind)
                lines.append(f"{ind}for v_{var} in ranges[{key!r}]:")
                ind += "    "
                bind(var, lines)
                run_guards()
        lines.append(f"{ind}p{j} = {tuple_expr(premises[j])}")

    for var, kind in rule.ranges:
        if var not in bound:
            lines.append(f"{ind}for v_{var} in ranges[{kind!r}]:")
            ind += "    "
            bound.add(var)
    run_guards()

    prems = ("(" + ", ".join(f"p{k}" for k in range(len(premises)))
             + ("," if len(premises) == 1 else "") + ")")
    lines.append(f"{ind}_c = {tuple_expr(conclusion)}")
    lines.append(f"{ind}if _c not in fact_ids:")
    for j in generated:
        lines.append(f"{ind}    if p{j} not in fact_ids: derive(p{j})")
    lines.append(f"{ind}    emit(_c, {prems}, {rule.name!r})")

    head = ["def _make(index, fact_ids, ranges, maps, emit, derive):"]
    head += [f"    {m} = maps[{m!r}]" for m in sorted(used_maps)]
    head += [f"    {name} = index{key!r}" for key, name in tables.items()]
    head += ["    def _fn(fact, fid):"]
    lines = head + ["    " + line for line in lines] + ["    return _fn"]
    ns: dict = {}
    label = f"<join {rule.name} from {i}, implicit {implicit}, twins {twins}>"
    exec(compile("\n".join(lines), label, "exec"), ns)  # noqa: S102
    return ns["_make"]


def _term_vars(term) -> list[str]:
    """The variable names in a pattern or term, nested ones included."""
    if isinstance(term, Var):
        return [term.name]
    if isinstance(term, (tuple, list)):
        return [v for t in term for v in _term_vars(t)]
    return []


def _defer_pattern(pat: tuple, deferred: list) -> tuple:
    """A pattern keeping only the deferred positions (others wildcarded)."""
    wild: list = [pat[0]] + [None] * (len(pat) - 1)
    for k, p in deferred:
        wild[k] = p
    return tuple(wild)


@cache
def _compile_all():
    """Per kind of fact reached (its shape, with gci_nested facts split by
    whether their subject is Top), the joins to run; plus the joins whose
    premises are all implicit tautologies, which run once per saturation.
    Compiled on first use, so importing the package stays cheap."""
    dispatch: dict[str, list] = {}
    seeds: list = []
    for rule in RULES:
        nested = [j for j, p in enumerate(rule.premises)
                  if p[0] == "gci_nested"]
        starts = list(enumerate(rule.premises))
        if rule.premises and len(nested) == len(rule.premises):
            starts.append((None, None))
        for i, pat in starts:
            # the fact reached is stored; another gci_nested premise may
            # also be an implicit tautology; either may be a twin unless
            # its subject is Top
            options = [(None,) + (() if j == i else tuple(_TAUTOLOGY_FAMILIES))
                       + ((_TWIN,) if rule.premises[j][2] != TOPC else ())
                       for j in nested]
            seen = set()
            for choice in product(*options):
                modes = {j: m for j, m in zip(nested, choice) if m}
                implicit = sorted(j for j, m in modes.items() if m != _TWIN)
                twins = sorted(j for j, m in modes.items() if m == _TWIN)
                if i is None and len(implicit) < len(nested):
                    continue  # a stored premise fires when it is reached
                plan = _join_plan(rule, modes)
                # families may coincide on a pattern (e.g. D = E = Top)
                key = (tuple(implicit), tuple(twins), plan)
                if plan is None or key in seen:
                    continue
                seen.add(key)
                fn = _compile_join(rule, i, implicit, twins, *plan)
                if i is None:
                    seeds.append(fn)
                    continue
                for kind in _reached_kinds(i, twins, plan[0]):
                    dispatch.setdefault(kind, []).append(fn)
    return dispatch, seeds


def _reached_kinds(i: int, twins: list[int], premises: tuple) -> list[str]:
    """The kinds of fact reached that a join from premise `i` takes: its
    shape, and for gci_nested, whether the subject may be Top or not.
    A twin or a Top pattern takes only Top; a nominal, or the subject
    variable of a twin, takes anything but Top."""
    pat = premises[i]
    if pat[0] != "gci_nested":
        return [pat[0]]
    subject = TOPC if i in twins else pat[2]
    if subject == TOPC:
        return [_TOP_SUBJECT]
    if isinstance(subject, Var) and subject not in {premises[j][2]
                                                    for j in twins}:
        return ["gci_nested", _TOP_SUBJECT]
    return ["gci_nested"]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class _Stop(Exception):
    pass


def saturate(store: FactStore, early_exit_on_refutation: bool = True,
             fact_limit: int | None = None) -> FactStore:
    """Closure of `store` under all rules; returns a new store.

    Implicit tautologies and Top-twins are not stored, except those that
    are premises of stored facts (see the module docstring). With
    `early_exit_on_refutation` the run may stop as soon as the refutation
    fact appears (the result is then marked partial). Raises
    PreprocessError when an input fact names a term outside the store's
    universes, and FactLimitExceeded when more facts are stored than the
    polynomial bound or `fact_limit` allows.
    """
    uni = store.universes
    bound = polynomial_fact_bound(uni)
    limit = bound if fact_limit is None else min(bound, fact_limit)

    # This run's interning tables, fixed by the universes: term <-> id,
    # each kind's ids, and the maps between a nominal (self-loop) concept
    # id and its individual (role) id. `*` and Top lead their ranges: they
    # are the values an implicit premise takes where any value will do.
    term_ids = dict(_FIXED_IDS)
    ranges: dict = {}
    for kind in KINDS:
        ranges[kind] = [term_ids.setdefault(t, len(term_ids))
                        for t in uni.of(kind)]
        ranges[("any", kind)] = ranges[kind][:1]
    terms = list(term_ids)
    members = {kind: set(ranges[kind]) for kind in KINDS}
    maps: dict[str, dict[int, int]] = {
        name: {} for pair in _NESTED_MAPS.values() for name in pair}
    for c in uni.concepts:
        if is_nested(c):
            down, up = _NESTED_MAPS[c[0]]
            inner = term_ids.get(c[1], -1)
            if inner not in members[NESTED_TAGS[c[0]]]:
                raise PreprocessError(f"concept {format_term(c)} names a "
                                      "term outside the universes")
            maps[down][term_ids[c]] = inner
            maps[up][inner] = term_ids[c]

    def intern_fact(fact: Fact) -> tuple:
        return (fact[0],) + tuple([term_ids.get(t, -1) for t in fact[1:]])

    refutation = intern_fact(REFUTATION_FACT)
    eng = FactStore(uni)
    add = eng.add
    fact_ids = eng.fact_ids

    def check_limit() -> None:
        if len(fact_ids) > limit:
            raise FactLimitExceeded(len(fact_ids), limit, limit == bound)

    for fid, fact in enumerate(store.facts):
        interned = intern_fact(fact)
        if any(t not in members[kind] for t, (_, kind)
               in zip(interned[1:], FACT_SHAPES.get(fact[0], ()))):
            raise PreprocessError(f"input fact {format_fact(fact)} names a "
                                  "term outside the universes")
        rule, premises = store.provenance[fid]
        add(interned, rule, premises)
    for rule in RULES:
        if not rule.premises and not _is_tautology(rule.conclusion):
            for fact in instantiate_conclusion(rule, {}, uni):
                add(intern_fact(fact), rule.name, ())
    check_limit()

    partial = False

    def emit(concl: tuple, premises: tuple, rule_name: str) -> None:
        add(concl, rule_name, tuple([fact_ids[p] for p in premises]))
        check_limit()
        if early_exit_on_refutation and concl == refutation:
            raise _Stop

    def derive(fact: tuple) -> None:
        """Store an implicit tautology or Top-twin, unindexed, with its
        canonical derivation; the walk skips it."""
        rule_name, premises = _implicit_step(fact)
        for p in premises:
            if p not in fact_ids:
                derive(p)
        add(fact, rule_name, tuple([fact_ids[p] for p in premises]),
            indexed=False)
        check_limit()

    dispatch, seed_joins = _compile_all()
    if not (early_exit_on_refutation and refutation in fact_ids):
        # this run's instance of each compiled join
        made = {make: make(eng.index, fact_ids, ranges, maps, emit, derive)
                for makers in (seed_joins, *dispatch.values())
                for make in makers}
        joins = {kind: [made[make] for make in makers]
                 for kind, makers in dispatch.items()}
        try:
            for make in seed_joins:
                made[make](None, -1)
            # The fact list is the worklist: the loop also reaches the
            # facts appended while it runs.
            for fid, fact in enumerate(eng.facts):
                kind = fact[0]
                if kind == "gci_nested":
                    if fact[4] == fact[5] or fact[5] == _TOP:
                        continue  # a tautology: matched implicitly
                    if fact[2] == _TOP:
                        kind = _TOP_SUBJECT
                    elif fact[:2] + (_TOP,) + fact[3:] in fact_ids:
                        continue  # its twin's joins cover it
                for fn in joins.get(kind, ()):
                    fn(fact, fid)
        except _Stop:
            partial = True
        del made, joins  # they hold the engine store's indexes
    else:
        partial = True

    # Decode into a readable store; ids and provenance carry over as they
    # are, and every fact is listed by shape. The engine store and its
    # indexes are released first, so that they do not add to the peak.
    facts, provenance = eng.facts, eng.provenance
    del eng, add, fact_ids
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
