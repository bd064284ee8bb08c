"""Semi-naive fixpoint saturation of a fact store under the calculus.

The engine seeds the premise-free schema instances over the registered
universes, then walks its fact list in id order: the list is the
worklist, and new conclusions are appended to it with provenance. Each
fact the walk reaches is tried in every premise position it can fill, and
the remaining premises are joined through hash indexes of the facts
reached so far, so every premise combination is produced when its newest
member is reached.

Two kinds of fact are implicit:
- tautologies, the gci_nested facts box_t[C sub box_s[D => E]] with D = E
  or E = Top: they hold in every structure, and the calculus derives
  every one over the universes;
- twins: a fact with a stored strict generalization over its
  generalizable positions (`_GENERAL`), which are the subject of a
  gci_nested fact, generalized to Top; the outer standpoint of every
  shape S.3 lifts; and the inner standpoint of a gci_nested fact. A
  standpoint generalizes to those above it in the run's seed sharpening
  order (`_seed_order`): the reflexive-transitive closure of its input
  sharper facts and the T.1 seeds sharper(s, *), kept before the walk as
  maps of up-sets, with `*` on top. The generalization implies
  the fact: by C.2 over the tautology box_*[Top sub box_t[C => Top]] for
  the subject, and by S.3 or S.4 with sharper(s, u) for a standpoint s
  below u. So with H <= SN, box_H[C sub box_H[D => E]] is implicit when
  box_SN[Top sub box_*[D => E]] is stored. Sharpenings that S.2 derives
  during the walk are not in the seed order: their S.3 and S.4 copies are
  stored.
Storing them would make up most of a saturated store and most rule
firings. Instead:
- a conclusion that is a tautology, or has a stored generalization, is
  not stored, and the premise-free rules that only give tautologies
  (T.3, T.4) are not instantiated;
- each join over a gci_nested premise also matches the tautologies
  consistent with its bound positions, as if they were older than every
  stored fact; joins whose premises are all tautologies run once, before
  the walk;
- each join also matches a premise through its stored generalizations:
  where another premise binds a generalizable position, the lookup also
  probes the terms above it (Top, or the standpoint's up-set); where none
  does, a join variant looks up a fact holding Top there, or a standpoint
  w with some below it, and leaves the position open: its variable is
  bound by a later premise's lookup, which must give a concept other
  than Top (a standpoint strictly below w), or ranges over its universe
  (individuals, for a nominal). A fact reached runs the variants that
  bind each generalizable position from it, and, where it holds Top or
  such a w, those that leave the position open;
- a fact with a stored generalization when the walk reaches it is not
  joined: the generalization's joins cover every combination it would
  make. Facts stored before their generalization arrived stay in the
  store;
- join variants that can only conclude a tautology, one of their own
  stored premises or a generalization of one, are dropped when the
  rules are compiled; so are the probes whose matches would imply the
  conclusion (an S.3 or S.4 join from sharper(s, u) does not probe
  above u: under a seed sharpening that copy implies the conclusion, and
  from one S.2 derives, S.1 gives sharper(s, u') for the stored copy at
  u'), and the variants that leave open a variable that
  reappears only at generalizable positions of the conclusion (the
  variant binding that variable from the fact concludes a
  generalization of each of their conclusions: this needs the up-sets
  to be chains, so a standpoint below two unordered ones generalizes to
  `*` only). A stored premise that is the conclusion with standpoints
  above its own (S.3, S.4 along the seed order) stops the join at run
  time;
- an implicit fact that is a premise of a stored conclusion is stored
  too, as a premise only, with its derivation (`_implicit_step`): a
  twin by C.2 from its Top-subject copy, or by S.3:<shape> or S.4 from
  its copy at a standpoint u above its own and sharper(s, u), one
  position at a time until a stored generalization is reached; a
  tautology at most four steps from the T rules. A sharper(s, u) that
  is not stored yet is stored first, by S.1 along input sharper facts,
  and walked like any other fact. So every provenance entry names stored
  ids and replays through `apply_rule`. The walk skips a premise-only
  fact when it reaches it.
D = Bot facts stay explicit: the calculus has no schema for them, and
matching them implicitly would add Bot-subject copies of most facts.

Two mechanical speedups, invisible in the results:
- every (rule, premise position, implicit, lifted and probed premises)
  variant is planned and compiled once per process, on first use, into
  a closure of plain loops and tuple accesses, and runs only on the
  facts reached that it can match: by shape, by which generalizable
  positions hold the top, and by which standpoint positions hold a
  standpoint with another below it (the fact's kind). A run makes its
  instances of a kind's joins when it first reaches a fact of that kind,
  so a run compiles only the joins its kinds need. The declarative table
  in `rules` stays the single source of truth, and the variants are
  planned with its pattern operations (`unify`, `resolve`,
  `pattern_vars`), the ones trace replay uses when it re-checks every
  derivation through `apply_rule`;
- each run interns the terms of its universes (standpoints, roles,
  individuals, extended concepts) to integers, once, in tables of its own,
  with maps linking nominals and self-loop concepts to their
  individual/role and the maps of its seed order, and joins over a
  `FactStore` of interned facts through index tables of its own: a fact
  enters them when the walk reaches and joins it, so they hold no fact
  newer than the one reached (a table a join first asks for mid-walk
  starts with the facts of its shape reached so far), and a lookup whose
  every position is bound is a membership test on the store. At the end
  the run decodes its store once into a readable `FactStore`. Only `*`,
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

from functools import cache, partial
from itertools import product
from math import prod
from operator import itemgetter
from typing import NamedTuple

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


def _no_key(fact: tuple) -> tuple:
    """The key of a fact in an index table by no position."""
    return ()


# ---------------------------------------------------------------------------
# Implicit facts: tautologies and generalization twins
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

#: Per fact shape, its generalizable positions with the top each
#: generalizes to, in the order `_implicit_step` lifts them: the subject of
#: a gci_nested fact (Top, by C.2), the outer standpoint of every shape
#: S.3 lifts, and the inner standpoint of a gci_nested fact (by S.4). A
#: standpoint position generalizes along the run's seed sharpening order,
#: whose top is `*`; the compiled joins hold `*` where they stand for the
#: whole order.
_GENERAL: dict[str, tuple[tuple[int, object], ...]] = {
    rule.premises[0][0]: ((1, UNIVERSAL),)
    for rule in RULES if rule.name.startswith("S.3:")}
_GENERAL["gci_nested"] = ((2, TOPC), (1, UNIVERSAL), (3, UNIVERSAL))
#: the same, with the tops' fixed ids, for interned facts
_GENERAL_IDS = {shape: tuple((k, _FIXED_IDS[c]) for k, c in spots)
                for shape, spots in _GENERAL.items()}


class _Order(NamedTuple):
    """A run's seed sharpening order over interned standpoints: the
    reflexive-transitive closure of its input sharper facts and T.1, with
    `*` above every other standpoint. Two standpoints that sharpen each
    other are left unordered, so that no two facts stand for each other,
    and a standpoint below two unordered ones is put below `*` only, so
    that every up-set is a chain. (Both only leave more facts stored.)"""
    #: per standpoint, itself and then the standpoints strictly above it
    up: dict[int, tuple[int, ...]]
    #: per standpoint, the set of standpoints strictly above it
    above: dict[int, frozenset]
    #: the standpoints with one strictly below them, and `*`
    upper: tuple[int, ...]
    #: per standpoint, those its input sharper facts put it directly below
    edges: dict[int, list[int]]


def _seed_order(standpoints: list[int], sharpers) -> _Order:
    """The seed order over `standpoints` (`*` first) of the interned
    sharper facts `sharpers`."""
    edges: dict[int, list[int]] = {s: [] for s in standpoints}
    for _, s, u in sharpers:
        if s != u and u not in edges[s]:
            edges[s].append(u)
    reach = {}
    for s in standpoints:
        seen, stack = {s, _STAR}, [s]
        while stack:
            for u in edges[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        reach[s] = seen
    above = {s: frozenset(u for u in reach[s] if u != s and s != _STAR and (
        u == _STAR or s not in reach[u])) for s in standpoints}
    # a standpoint below two that are not ordered generalizes to `*` only,
    # so that every up-set is a chain
    meets = [s for s in standpoints
             if any(a != b and a not in above[b] and b not in above[a]
                    for a in above[s] for b in above[s])]
    for s in meets:
        above[s] = frozenset({_STAR})
    up = {s: (s,) + tuple(u for u in standpoints if u in above[s])
          for s in standpoints}
    upper = tuple(u for u in standpoints
                  if u == _STAR or any(u in above[s] for s in standpoints))
    return _Order(up, above, upper, edges)


def _lift(fact: tuple, positions) -> tuple:
    """`fact` (or a pattern) with the constant of each generalizable
    position in `positions` put there."""
    spots = dict(_GENERAL.get(fact[0], ()))
    return tuple(spots[k] if k in positions else p
                 for k, p in enumerate(fact))


def _lifts(fact: tuple, spots) -> list[tuple]:
    """The strict generalizations of `fact` over `spots`, its
    (position, constant) pairs: the constant put at a non-empty subset of
    the positions that do not hold it yet."""
    free = [(k, c) for k, c in spots if fact[k] != c]
    out = []
    for n in range(1, 1 << len(free)):
        lifted = list(fact)
        for bit, (k, c) in enumerate(free):
            if n >> bit & 1:
                lifted[k] = c
        out.append(tuple(lifted))
    return out


def _generalization(fact: tuple, up: dict, stored) -> tuple | None:
    """A strict generalization of the interned `fact` in `stored`, or None:
    a copy with Top for its subject, or with a standpoint of the up-set
    `up` of its own at each standpoint position (`_GENERAL`), Top-subject
    copies first."""
    shape = fact[0]
    if shape == "gci_nested":
        _, t, c, s, d, e = fact
        ts, ss = up[t], up[s]
        if c != _TOP:
            for t2 in ts:
                for s2 in ss:
                    if (shape, t2, _TOP, s2, d, e) in stored:
                        return shape, t2, _TOP, s2, d, e
        for t2 in ts:
            for s2 in ss:
                if (shape, t2, c, s2, d, e) in stored and (t2 != t
                                                            or s2 != s):
                    return shape, t2, c, s2, d, e
    elif shape in _GENERAL_IDS:
        rest = fact[2:]
        for u in up[fact[1]][1:]:
            if (shape, u) + rest in stored:
                return (shape, u) + rest
    return None


def _implicit_step(fact: tuple, general: tuple | None) -> tuple[str, tuple]:
    """The last step of a canonical derivation of an interned implicit fact
    from its stored strict generalization `general` (None for a
    tautology). It lifts the first position, in `_GENERAL` order, at which
    the two differ, to the term of `general` (to the top, for a
    tautology). A subject C other than Top follows by C.2 from
    box_*[Top sub box_t[C => Top]] and the Top-subject copy; an outer or
    inner standpoint s by S.3:<shape> or S.4 from the copy at u and
    sharper(s, u). A tautology with all three lifted is a premise-free T
    rule."""
    for k, top in _GENERAL_IDS[fact[0]]:
        term = top if general is None else general[k]
        if fact[k] != term:
            lifted = fact[:k] + (term,) + fact[k + 1:]
            if k == 2:
                return "C.2", (("gci_nested", _STAR, _TOP, fact[1],
                                fact[2], _TOP), lifted)
            rule = "S.4" if fact[0] == "gci_nested" and k == 3 else (
                "S.3:" + fact[0])
            return rule, (lifted, ("sharper", fact[k], term))
    return ("T.3" if fact[4] == fact[5] else "T.4"), ()


def _sharpening_path(order: _Order, s: int, u: int) -> list[int]:
    """The standpoints from `s` to `u` along the fewest input sharper facts
    (or the T.1 seed sharper(s, *) when u is `*`)."""
    if u == _STAR:
        return [s, u]
    parent = {s: s}
    queue = [s]
    for t in queue:
        for v in order.edges[t]:
            if v not in parent:
                parent[v] = t
                queue.append(v)
    path = [u]
    while path[-1] != s:
        path.append(parent[path[-1]])
    return path[::-1]


# ---------------------------------------------------------------------------
# Rule compilation
# ---------------------------------------------------------------------------

class _Plan(NamedTuple):
    """One join variant of a rule, as `_join_plan` makes it."""
    #: the premise the fact reached fills, or None for a join without one
    start: int | None
    premises: tuple
    conclusion: tuple
    #: the premises that are implicit tautologies, generated
    implicit: tuple[int, ...]
    #: (premise, positions) pairs: the stored fact holds a term above the
    #: premise's there (Top, or a standpoint above), planned as the top,
    #: and the premise's terms are bound elsewhere or range over their
    #: universe
    masks: tuple[tuple[int, tuple[int, ...]], ...]
    #: (premise, positions) pairs: positions bound before the lookup,
    #: where the terms above are probed too
    probes: tuple[tuple[int, tuple[int, ...]], ...]
    #: the fact reached: its shape and generalizable positions holding
    #: the top
    kind: tuple | None


def _join_plan(rule: Rule, i: int | None, families: dict[int, str],
               masks: dict[int, tuple[int, ...]],
               consts: tuple[int, ...] = ()) -> _Plan | None:
    """The variant of `rule` started from premise `i` in which each premise
    in `families` is an implicit tautology of the given family, each
    premise in `masks` is matched by a stored fact holding a term above
    its own at the given positions, and the reached premise holds the top
    at `consts`. The plan holds the top (Top, `*`) for such a term: what
    the top implies, the term above does too. None when no such instance
    exists or every one is already implied: a tautology, one of its own
    stored premises or a generalization of one; or when another variant
    makes the same combinations. A masked position bound by an earlier
    premise is the probe's job, and a masked variable that shows up
    elsewhere only where a premise is lifted or at the conclusion's
    generalizable positions repeats the variant with that variable set to
    the term held (the least of them, as up-sets are chains), which
    concludes a generalization of each of its conclusions."""
    subst: dict | None = {}
    for j, family in families.items():
        subst = unify(*_TAUTOLOGY_FAMILIES[family](rule.premises[j]), subst)
        if subst is None:
            return None
    for k in consts:
        subst = unify(rule.premises[i][k],
                      dict(_GENERAL[rule.premises[i][0]])[k], subst)
        if subst is None:
            return None
    premises = resolve(rule.premises, subst)
    conclusion = resolve(rule.conclusion, subst)
    spots = [dict(_GENERAL.get(p[0], ())) for p in premises]
    if any(premises[j][k] == spots[j][k] for j, ks in masks.items()
           for k in ks):
        return None  # already the constant: the plain variant's job
    matched = [_lift(p, masks.get(j, ())) for j, p in enumerate(premises)]
    stored = [matched[j] for j in range(len(premises)) if j not in families]
    conclusion_spots = _GENERAL.get(conclusion[0], ())
    general = [conclusion] + _lifts(conclusion, conclusion_spots)
    if _is_tautology(conclusion) or any(g in stored for g in general):
        return None
    # the join order: the reached premise, then the other stored ones
    order = [j for j in range(len(premises))
             if j != i and j not in families]
    bound: set[str] = set()
    probes = {}
    for j in ([] if i is None else [i]) + order:
        for k in spots[j]:
            names = _term_vars(premises[j][k])
            if not names or not all(v in bound for v in names):
                continue
            if k in masks.get(j, ()):
                return None
            # probe the terms above too, unless what the top finds
            # implies the conclusion
            if _lift(matched[j], (k,)) not in general:
                probes.setdefault(j, []).append(k)
        bound.update(v for v, _ in pattern_vars(matched[j]))
    loose = [_lift(p, spots[j] if j in families else masks.get(j, ()))
             for j, p in enumerate(premises)]
    loose.append(_lift(conclusion, [k for k, _ in conclusion_spots
                                    if isinstance(conclusion[k], Var)]))
    elsewhere = {var for pat in loose for var, _ in pattern_vars(pat)}
    if any(isinstance(premises[j][k], Var)
           and premises[j][k].name not in elsewhere
           for j, ks in masks.items() for k in ks):
        return None
    kind = None
    if i is not None:
        kind = (premises[i][0],
                tuple(k for k, c in _GENERAL.get(premises[i][0], ())
                      if matched[i][k] == c))
    return _Plan(i, premises, conclusion, tuple(sorted(families)),
                 tuple(sorted(masks.items())),
                 tuple((j, tuple(ks)) for j, ks in sorted(probes.items())),
                 kind)


def _is_order(pat: tuple, k: int) -> bool:
    """True when position `k` of `pat` generalizes along the seed order (a
    standpoint), not to Top."""
    return dict(_GENERAL.get(pat[0], ())).get(k) == UNIVERSAL


@cache
def _compile_join(rule: Rule, plan: _Plan):
    """Compile the join of a `_join_plan`, once per process. The result
    makes, for one run, make(index, fact_ids, ranges, maps, emit, derive),
    the closure fn(fact, fid) to call on each fact the walk reaches (fact
    None for a join without one); `index(shape, positions)` gives the run's
    index tables, which hold the facts reached so far, and `maps` holds its
    nominal, self-loop, alternative-key and seed order maps by name, and
    its lookup of a stored strict generalization (`GENERAL`).

    A masked standpoint position holds a term w of the stored fact with a
    standpoint strictly below it (a lookup tries every such w, `UPPER`),
    and the variable there must take a value strictly below w (`ABOVE`).
    A masked subject holds Top, and its variable any other concept."""
    i, premises, conclusion = plan.start, plan.premises, plan.conclusion
    masks, probes = dict(plan.masks), dict(plan.probes)
    implicit = list(plan.implicit)
    matched = [_lift(p, masks.get(j, ())) for j, p in enumerate(premises)]
    # the term of the stored fact at each masked standpoint position
    held = {(j, k): f"w{j}_{k}" for j, ks in masks.items() for k in ks
            if _is_order(premises[j], k)}
    for (j, k), name in held.items():
        matched[j] = matched[j][:k] + (Var(name),) + matched[j][k + 1:]
    stored = [j for j in range(len(premises)) if j not in implicit]
    # built from their variables once every stored premise is bound
    generated = implicit + [j for j in stored if j in masks]
    # named by their own terms when a conclusion is emitted
    rebuilt = generated + [j for j in stored if j in probes
                           and j not in masks]
    used_maps: set[str] = set()
    # a masked variable must take a value the stored fact stands for: a
    # standpoint strictly below the term held, or a subject other than
    # Top; each check runs once its variables are bound
    checks: list[tuple[set[str], str]] = []
    for j, ks in masks.items():
        for k in ks:
            var = premises[j][k]
            if not isinstance(var, Var):
                continue
            if (j, k) in held:
                used_maps.add("ABOVE")
                checks.append(({var.name, held[j, k]},
                               f"v_{held[j, k]} not in ABOVE[v_{var.name}]"))
            else:
                checks.append(({var.name}, f"v_{var.name} == {_TOP}"))
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
        for check in list(checks):
            names, test = check
            if names <= bound:
                out.append(f"{ind}if {test}: {bail()}")
                checks.remove(check)

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
                    bind(v.name, out)
            else:
                out.append(f"{ind}if {src}[{j}] != {term_expr(p)}: {bail()}")
        return out

    # A conclusion that is a tautology, or that is stored or has a stored
    # strict generalization, is implied: each test runs as soon as its
    # variables are bound.
    guards = []
    conclusion_vars = _term_vars(conclusion)
    if conclusion[0] == "gci_nested":
        pairs = [sides(conclusion) for sides in _TAUTOLOGY_FAMILIES.values()]
        pairs = [pair for pair in pairs if unify(*pair, {}) is not None]
        if pairs:
            guards.append((_term_vars(pairs), " or ".join(
                f"{term_expr(a)} == {term_expr(b)}" for a, b in pairs)))
    spots = _GENERAL.get(conclusion[0], ())
    # a stored premise that is the conclusion with standpoints above its
    # own at order positions (S.3, S.4) implies it
    for j in stored:
        if matched[j][0] != conclusion[0]:
            continue
        above = []
        for k, (p, c) in enumerate(zip(matched[j], conclusion)):
            if p == c or (k, p) == (2, TOPC) and conclusion[0] == "gci_nested":
                continue
            if not (_is_order(conclusion, k) and isinstance(p, Var)
                    and isinstance(c, Var)):
                break
            above.append((p.name, c.name))
        else:
            if above:
                used_maps.add("ABOVE")
                guards.append(([v for pair in above for v in pair],
                               " and ".join(f"v_{a} in ABOVE[v_{b}]"
                                            for a, b in above)))
    stored_test = "_c in fact_ids"
    if any(conclusion[k] != c for k, c in spots):
        stored_test += " or GENERAL(_c) is not None"
        used_maps.add("GENERAL")
    guards.append((conclusion_vars, stored_test))
    computed = []  # the indentation at which _c was computed

    def run_guards() -> None:
        for guard in list(guards):
            names, test = guard
            if all(v in bound for v in names):
                if test == stored_test:
                    lines.append(f"{ind}_c = {tuple_expr(conclusion)}")
                    computed.append(ind)
                lines.append(f"{ind}if {test}: {bail()}")
                guards.remove(guard)

    if i is not None:
        lines.append(f"{ind}p{i} = fact")
        # its kind fixes which generalizable positions hold the top; a
        # masked standpoint position gives the term held
        general = [k for k in plan.kind[1] if (i, k) not in held]
        lines.extend(destructure("fact", tuple(
            None if k in general else p for k, p in enumerate(matched[i]))))
        run_guards()

    # Stored premises are looked up in tables of facts reached so far, or
    # by membership when every position is bound; generated ones are
    # built afterwards from their free variables.
    for j in (k for k in stored if k != i):
        pat = matched[j]
        positions, value_exprs, deferred = [], [], []
        for k, p in enumerate(pat[1:], start=1):
            if (j, k) in held:
                used_maps.add("UPPER")
                lines.append(f"{ind}for v_{held[j, k]} in UPPER:")
                ind += "    "
                bind(held[j, k], lines)
            if all(v in bound for v in _term_vars(p)):
                positions.append(k)
                expr = term_expr(p)
                if k in probes.get(j, ()):
                    alt = ("ALT_S" if dict(_GENERAL[pat[0]])[k] == UNIVERSAL
                           else "ALT_C")
                    used_maps.add(alt)
                    lines.append(f"{ind}for a{j}_{k} in {alt}[{expr}]:")
                    ind += "    "
                    expr = f"a{j}_{k}"
                value_exprs.append(expr)
            else:
                deferred.append((k, p))
        if not deferred:
            lines.append(f"{ind}p{j} = ({pat[0]!r}, "
                         + ", ".join(value_exprs) + ")")
            lines.append(f"{ind}if fact_ids.get(p{j}, fid + 1) > fid: "
                         f"{bail()}")
        else:
            key = (value_exprs[0] if len(value_exprs) == 1
                   else "(" + ", ".join(value_exprs) + ")")
            table = tables.setdefault((pat[0], tuple(positions)),
                                      f"T{len(tables)}")
            lines.append(f"{ind}for p{j} in {table}.get({key}, ()):")
            ind += "    "
            lines.extend(destructure(f"p{j}", _defer_pattern(pat, deferred)))
        run_guards()

    # Only the constant instance of a conclusion's generalizable position
    # is needed: the others are its specializations.
    loose_conclusion = _lift(conclusion, [k for k, _ in spots
                                          if isinstance(conclusion[k], Var)])
    for n, j in enumerate(generated):
        later = [loose_conclusion] + [premises[k] for k in generated[n + 1:]]
        needed = {var for pat in later for var, _ in pattern_vars(pat)}
        for var, kind in pattern_vars(premises[j]):
            if var not in bound:
                # a variable nothing else reads takes any one value
                key = kind if var in needed else ("any", kind)
                lines.append(f"{ind}for v_{var} in ranges[{key!r}]:")
                ind += "    "
                bind(var, lines)
                run_guards()

    for var, kind in rule.ranges:
        if var not in bound:
            lines.append(f"{ind}for v_{var} in ranges[{kind!r}]:")
            ind += "    "
            bound.add(var)
    run_guards()
    if computed[0] != ind:  # a loop since: a conclusion emitted in it
        lines.append(f"{ind}if _c in fact_ids: continue")

    for j in rebuilt:
        lines.append(f"{ind}p{j} = {tuple_expr(premises[j])}")
        lines.append(f"{ind}if p{j} not in fact_ids: derive(p{j})")
    prems = ("(" + ", ".join(f"p{k}" for k in range(len(premises)))
             + ("," if len(premises) == 1 else "") + ")")
    lines.append(f"{ind}emit(_c, {prems}, {rule.name!r})")

    head = ["def _make(index, fact_ids, ranges, maps, emit, derive):"]
    head += [f"    {m} = maps[{m!r}]" for m in sorted(used_maps)]
    head += [f"    {name} = index{key!r}" for key, name in tables.items()]
    head += ["    def _fn(fact, fid):"]
    lines = head + ["    " + line for line in lines] + ["    return _fn"]
    ns: dict = {}
    label = (f"<join {rule.name} from {i}, implicit {implicit}, "
             f"masks {plan.masks}, probes {plan.probes}>")
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


def _subsets(items: list) -> list[tuple]:
    return [tuple(x for bit, x in enumerate(items) if n >> bit & 1)
            for n in range(1 << len(items))]


def _modes(rule: Rule, i: int | None):
    """The (families, masks) choices `_join_plan` is asked about for a join
    of `rule` from premise `i`: each gci_nested premise other than the
    reached one may be an implicit tautology, and each premise may be
    matched by a stored fact lifted at some of its generalizable positions
    that hold no constant. Another premise is not lifted where the reached
    one binds the variable: that is a probe's job."""
    own = [{}] if i is None else [{i: ks} if ks else {} for ks in
                                  _subsets(_liftable(rule.premises[i]))]
    for mine in own:
        bound = set() if i is None else set(_term_vars([
            p for k, p in enumerate(rule.premises[i][1:], start=1)
            if k not in mine.get(i, ())]))
        options = []
        for j, pat in enumerate(rule.premises):
            if j == i:
                continue
            choices = ([({j: f}, {}) for f in _TAUTOLOGY_FAMILIES]
                       if pat[0] == "gci_nested" else [])
            if i is not None:
                free = [k for k in _liftable(pat)
                        if not bound.intersection(_term_vars(pat[k]))]
                choices += [({}, {j: ks} if ks else {})
                            for ks in _subsets(free)]
            options.append(choices)
        for choice in product(*options):
            families: dict[int, str] = {}
            masks: dict[int, tuple[int, ...]] = dict(mine)
            for family, mask in choice:
                families.update(family)
                masks.update(mask)
            yield families, masks


def _liftable(pat: tuple) -> list[int]:
    """The generalizable positions of a pattern that hold no constant."""
    return [k for k, c in _GENERAL.get(pat[0], ()) if pat[k] != c]


def _kinds(rule: Rule, plan: _Plan, families: dict, masks: dict) -> set:
    """The kinds of fact reached that the variant `plan` of `rule` runs
    on. A kind is (shape, positions holding the top, standpoint
    positions holding a standpoint of `_Order.upper`). A join binding a
    variable from a generalizable position of the fact reached runs on the
    facts with the top there, and on the others, unless the variant with
    that variable set to the top is pruned; a join leaving a standpoint
    position open runs on the facts with an upper standpoint there, the
    top or another."""
    i = plan.start
    shape = plan.premises[i][0]
    spots = _GENERAL.get(shape, ())
    ordered = [k for k, c in spots if c == UNIVERSAL]
    held = [k for k in masks.get(i, ()) if k in ordered]
    plain = [k for k in _liftable(plan.premises[i])
             if k not in masks.get(i, ())
             and isinstance(plan.premises[i][k], Var)]
    kinds = set()
    for consts in _subsets(plain):
        variant = (_join_plan(rule, i, families, masks, consts) if consts
                   else plan)
        if variant is None:
            continue
        for tops in _subsets(held):
            general = {k for k in variant.kind[1]
                       if k not in held or k in tops}
            need = set(held) | (general & set(ordered))
            for more in _subsets([k for k in ordered if k not in need]):
                upper = need.union(more)
                kinds.add((shape, tuple(k for k, _ in spots if k in general),
                           tuple(k for k in ordered if k in upper)))
    return kinds


@cache
def _dispatch(shape: str) -> dict[tuple, list]:
    """Per kind of fact reached of `shape`, the (rule, plan) joins to run,
    in rule order. Planned on first use, so importing the package, and a
    run that reaches no fact of the shape, stay cheap."""
    dispatch: dict[tuple, list] = {}
    for rule in RULES:
        seen = set()
        for i, pat in enumerate(rule.premises):
            if pat[0] != shape:
                continue
            for families, masks in _modes(rule, i):
                plan = _join_plan(rule, i, families, masks)
                if plan is None or plan in seen:
                    continue
                seen.add(plan)
                for kind in sorted(_kinds(rule, plan, families, masks)):
                    dispatch.setdefault(kind, []).append((rule, plan))
    return dispatch


@cache
def _joins(kind: tuple | None) -> tuple:
    """The compiled joins to run on each fact reached of `kind`, or for
    None, those whose premises are all implicit tautologies, which run
    once per saturation, before the walk. Compiled on first use."""
    if kind is not None:
        return tuple(_compile_join(rule, plan)
                     for rule, plan in _dispatch(kind[0]).get(kind, ()))
    makes = []
    for rule in RULES:
        if rule.premises and all(p[0] == "gci_nested"
                                 for p in rule.premises):
            for families, masks in _modes(rule, None):
                plan = _join_plan(rule, None, families, masks)
                if plan is not None:
                    make = _compile_join(rule, plan)
                    if make not in makes:
                        makes.append(make)
    return tuple(makes)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class _Stop(Exception):
    pass


def saturate(store: FactStore, early_exit_on_refutation: bool = True,
             fact_limit: int | None = None) -> FactStore:
    """Closure of `store` under all rules; returns a new store.

    Implicit tautologies and twins (facts with a stored generalization)
    are not stored, except those that are premises of stored facts (see
    the module docstring). With `early_exit_on_refutation` the run may
    stop as soon as the refutation fact appears (the result is then
    marked partial). Raises
    PreprocessError when an input fact names a term outside the store's
    universes, and FactLimitExceeded when more facts are stored than the
    polynomial bound or `fact_limit` allows.
    """
    uni = store.universes
    bound = polynomial_fact_bound(uni)
    limit = bound if fact_limit is None else min(bound, fact_limit)

    # This run's interning tables, fixed by the universes: term <-> id,
    # each kind's ids, the maps between a nominal (self-loop) concept id
    # and its individual (role) id, the seed order's maps, and the
    # alternative keys a bound generalizable position is probed with: the
    # standpoint's up-set, or the concept and Top. `*` and Top lead their
    # ranges: they are the values an implicit premise takes where any
    # value will do.
    term_ids = dict(_FIXED_IDS)
    ranges: dict = {}
    for kind in KINDS:
        ranges[kind] = [term_ids.setdefault(t, len(term_ids))
                        for t in uni.of(kind)]
        ranges[("any", kind)] = ranges[kind][:1]
    terms = list(term_ids)
    members = {kind: set(ranges[kind]) for kind in KINDS}
    maps: dict[str, object] = {
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

    order = _seed_order(ranges["standpoint"], [
        intern_fact(f) for f in store.by_shape.get("sharper", ())])
    up = order.up
    upper = set(order.upper)
    maps.update(ALT_S=up, ABOVE=order.above, UPPER=order.upper,
                ALT_C={t: (t, _TOP) if t != _TOP else (t,)
                       for t in ranges["concept"]})

    refutation = intern_fact(REFUTATION_FACT)
    eng = FactStore(uni)
    add = eng.add
    fact_ids = eng.fact_ids
    premise_only: set[int] = set()

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

    stopped = False

    def emit(concl: tuple, premises: tuple, rule_name: str) -> None:
        add(concl, rule_name, tuple([fact_ids[p] for p in premises]))
        check_limit()
        if early_exit_on_refutation and concl == refutation:
            raise _Stop

    # a stored strict generalization of a fact, or None
    general_of = maps["GENERAL"] = partial(_generalization, up=up,
                                           stored=fact_ids)

    def derive(fact: tuple) -> None:
        """Store an implicit fact with its canonical derivation, as a
        premise only: the walk skips it. A sharper fact of the seed order
        is stored by S.1 along input sharper facts instead, and walked."""
        if fact[0] == "sharper":
            path = _sharpening_path(order, fact[1], fact[2])
            for n in range(len(path) - 3, -1, -1):
                add(("sharper", path[n], path[-1]), "S.1", (
                    fact_ids["sharper", path[n], path[n + 1]],
                    fact_ids["sharper", path[n + 1], path[-1]]))
            check_limit()
            return
        tautology = fact[0] == "gci_nested" and (fact[4] == fact[5]
                                                 or fact[5] == _TOP)
        rule_name, premises = _implicit_step(
            fact, None if tautology else general_of(fact))
        for p in premises:
            if p not in fact_ids:
                derive(p)
        premise_only.add(len(eng.facts))
        add(fact, rule_name, tuple([fact_ids[p] for p in premises]))
        check_limit()

    # The run's index tables, by (shape, positions): the value at the one
    # position, or the tuple of values at several (the empty tuple for
    # none), to the facts the walk has reached and joined. A table made
    # during the walk starts with the facts of its shape reached so far.
    tables: dict[tuple, dict] = {}
    tables_of: dict[str, list] = {}
    joined: dict[str, list] = {shape: [] for shape in FACT_SHAPES}

    def index(shape: str, positions: tuple[int, ...]) -> dict:
        table = tables.get((shape, positions))
        if table is None:
            table = tables[shape, positions] = {}
            key_of = itemgetter(*positions) if positions else _no_key
            tables_of.setdefault(shape, []).append((key_of, table))
            for fact in joined[shape]:
                table.setdefault(key_of(fact), []).append(fact)
        return table

    # this run's instance of each compiled join, made when the walk first
    # reaches a fact of a kind that runs it
    made: dict = {}

    def instances(kind: tuple | None) -> list:
        out = []
        for make in _joins(kind):
            if make not in made:
                made[make] = make(index, fact_ids, ranges, maps, emit,
                                  derive)
            out.append(made[make])
        return out

    if not (early_exit_on_refutation and refutation in fact_ids):
        joins: dict[tuple, list] = {}
        try:
            for fn in instances(None):
                fn(None, -1)
            # The fact list is the worklist: the loop also reaches the
            # facts appended while it runs.
            for fid, fact in enumerate(eng.facts):
                if fid in premise_only:
                    continue
                shape = fact[0]
                if shape == "gci_nested" and (fact[4] == fact[5]
                                              or fact[5] == _TOP):
                    continue  # a tautology: matched implicitly
                spots = _GENERAL_IDS.get(shape, ())
                if spots and general_of(fact) is not None:
                    continue  # a stored generalization's joins cover it
                kind = (shape, tuple([k for k, c in spots if fact[k] == c]),
                        tuple([k for k, c in spots
                               if c == _STAR and fact[k] in upper]))
                joined[shape].append(fact)
                for key_of, table in tables_of.get(shape, ()):
                    key = key_of(fact)
                    bucket = table.get(key)
                    if bucket is None:
                        table[key] = [fact]
                    else:
                        bucket.append(fact)
                fns = joins.get(kind)
                if fns is None:
                    fns = joins[kind] = instances(kind)
                for fn in fns:
                    fn(fact, fid)
        except _Stop:
            stopped = True
        del made, joins, tables, tables_of, joined  # the run's indexes
    else:
        stopped = True

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
    out.partial = stopped
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
