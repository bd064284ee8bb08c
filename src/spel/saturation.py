"""Semi-naive fixpoint saturation of a fact store under the calculus.

The engine seeds the premise-free schema instances over the registered
universes, then walks its fact list in id order: the list is the
worklist, and conclusions are appended to it with provenance. Each fact
reached is tried in every premise position it can fill, and the other
premises are joined through hash indexes of the facts reached so far, so
every premise combination is produced when its newest member is reached.

Two kinds of fact are implicit, neither stored nor joined:
- tautologies, the gci_nested facts box_t[C sub box_s[D => E]] with D = E
  or E = Top, which the calculus derives over the whole universes;
- twins, the facts with a stored strict generalization at their
  generalizable positions (`_GENERAL`): a gci_nested subject generalizes
  to Top (by C.2), its D to Top (by C.1 with the tautology
  box_t[C sub box_s[D => Top]]), and the outer standpoint of every shape
  S.3 lifts and the inner standpoint of a gci_nested fact to the
  standpoints above them in the run's seed sharpening order (by S.3 and
  S.4): the closure of its input sharper facts and T.1, `*` on top, with
  standpoints that sharpen each other left unordered (`_seed_order`).
  Sharpenings that S.2 derives mid-walk are not in it.
A join matches them instead. It generates a tautology premise from its
bound variables, and gives each free variable that the conclusion does
not read one value (a join of tautologies only runs once, before the
walk).
A planned variant matches a premise with an unbound subject or D through
a stored fact with Top there, which stands for every value, and binds the
variable later or ranges it over the universe; such a twin variant is
planned only where no other variant gives its conclusions (`_covered`).
The compiled lookups match the rest at run time:
- a bound subject or D is probed with itself and Top;
- a standpoint variable first bound at an open position (generalizable,
  where the premise with the top is no generalization of the conclusion)
  is a ceiling: its value w stands for every s <= w. A later open
  position holding u goes on with each greatest common lower bound of w
  and u (the lower one when they are comparable, none when nothing lies
  below both), as the ceiling's value; a later position that is not open
  accepts an s <= w, which the variable holds from then on. The
  conclusion takes the value reached.
  Tables are keyed without ceilings, and their candidates are filtered;
- a variable first bound elsewhere accepts its up-set at a later open
  position.
Positions that are not open need no generalization: an S.3 or S.4 join
from sharper(s, u) does not look above u, as a seed sharpening gives the
conclusion from that copy itself and S.1 gives sharper(s, u') for a copy
at u' from one S.2 derives; and a join from a fact holding the top there
stops. A conclusion that is a tautology or has a stored generalization is
dropped, and so is a variant that can only conclude one.

A premise that is implicit is stored when a conclusion is, as a premise
only that the walk skips, with its derivation (`_implicit_step`): a twin
by C.2 from its Top-subject copy, by C.1 from its copy with Top for D and
a tautology, or by S.3:<shape> or S.4 from its copy at u above its own and
sharper(s, u), until a stored generalization is reached; a tautology at
most four steps from the T rules; a missing sharper(s, u) by S.1 along
input sharper facts. So every provenance entry names stored ids and
replays through `apply_rule`. A fact with D = Bot, though true, is no
tautology here, as the calculus has no schema for it: it is stored unless
it is a twin.

Each variant is planned with the pattern operations of `rules` and
compiled, once per process and on first use, into a closure of plain
loops and tuple accesses, which runs on the facts reached of the kinds
its reached premise admits. A kind is a fact's shape and, for gci_nested,
whether its subject is Top, its D is Top and its E is Bot
(`_KIND_SPOTS`), so a variant with one of these constants there runs only
on the facts that hold it.

Each run (`Saturation`) interns its universes' terms to integers in
tables of its own (only `*`, Top and Bot, which the compiled joins hold,
have fixed ids), so runs share no mutable state and may go on side by
side in threads. Its walk keeps the store in plain locals: the fact list,
ids and provenance. The test for a stored generalization
(`_generalization_lookup`) probes the fact ids for the fact's copies with
Top for its subject or D and with standpoints above its own. `saturate`
walks one run to its end and decodes its store into a `FactStore`. A run
walked to its fixpoint can also be copied and extended with more input
facts over the same universes, and walks on from there: the refutation
subchecks of `reasoner` fork one saturated base this way.

The universes fix the fact space (`preprocess.FACT_SHAPES`), and an input
fact naming a term outside them is an error. So a run is bounded by the
size of that space, which only an engine bug can exceed; a caller may set
a lower limit. Both count stored facts, and the error says which tripped.
"""

from __future__ import annotations

import copy
from functools import cache
from itertools import combinations, islice, product
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
    INPUT_RULE,
    NESTED_TAGS,
    PreprocessError,
    REFUTATION_FACT,
    TOPC,
    Universes,
    format_term,
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
_BOT = _FIXED_IDS[BOTC]

#: per nested concept tag, the names of the run's maps from the concept id
#: to its individual/role id and back, as the compiled joins name them
_NESTED_MAPS = {"nom": ("NOM2IND", "IND2NOM"),
                "self": ("SELF2ROLE", "ROLE2SELF")}
#: the names of all the maps a run hands its compiled joins
_MAPS = ("UP", "MEET", "ALT_C", "GENERAL") + sum(_NESTED_MAPS.values(), ())


# ---------------------------------------------------------------------------
# Implicit facts: tautologies and generalization twins
# ---------------------------------------------------------------------------

def is_tautology(fact: Fact) -> bool:
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
#: generalizes to, in the order `_implicit_step` lifts them: a gci_nested
#: subject and D (Top), the outer standpoint of every shape S.3 lifts, and
#: the inner standpoint of a gci_nested fact (`*`, the top of every order).
_GENERAL: dict[str, tuple[tuple[int, object], ...]] = {
    rule.premises[0][0]: ((1, UNIVERSAL),)
    for rule in RULES if rule.name.startswith("S.3:")}
_GENERAL["gci_nested"] = ((2, TOPC), (4, TOPC), (1, UNIVERSAL),
                          (3, UNIVERSAL))
#: the same, with the tops' fixed ids, for interned facts
_GENERAL_IDS = {shape: tuple((k, _FIXED_IDS[c]) for k, c in spots)
                for shape, spots in _GENERAL.items()}
#: the gci_nested positions whose top is Top: a stored fact with Top there
#: stands for every value, and a join matches it as a twin
_TWIN_SPOTS = tuple(k for k, top in _GENERAL["gci_nested"] if top == TOPC)
#: per shape, the positions where a fact with Top follows from its copies
#: with any value (a gci_nested E; a diamond's or existential's D, by C.4
#: and E.1 with an E = Top tautology), and where it stands for them (a
#: gci_nested twin's; a diamond's subject, by C.3 with one)
_TOP_FOLLOWS = dict(gci_nested=(5,), gci_dia_right=(4,), gci_ex_right=(4,))
_TOP_STANDS = dict(gci_nested=_TWIN_SPOTS, gci_dia_right=(2,))
#: (rule, premise, position) of the twins whose conclusions other variants
#: give when no premise is implicit: A.6's by A.6 with an E = Top tautology
#: and E.1, A.8's by A.6 and E.2, B.4's by B.2 twice, and E.4's at a
#: conjunct's D by E.4 with the other conjunct a tautology, then C.1
_COVERED_TWINS = {("A.6", 1, 2), ("A.8", 1, 2), ("B.4", 0, 2), ("E.4", 0, 4),
                  ("E.4", 1, 4)}

#: The gci_nested positions, with their constants, that key a fact's kind
#: beyond its shape: whether its subject is Top, D is Top and E is Bot.
#: A join whose reached premise holds such a constant runs only on the
#: facts that hold it too.
_KIND_SPOTS = ((2, TOPC), (4, TOPC), (5, BOTC))


class _Order(NamedTuple):
    """A run's seed sharpening order over interned standpoints: the
    reachability order of its input sharper facts and T.1, `*` on top. Two
    standpoints that sharpen each other are left unordered (which only
    leaves more facts stored)."""
    #: per standpoint, itself and then the standpoints strictly above it
    up: dict[int, tuple[int, ...]]
    #: per standpoints w and u with a common lower bound, the greatest
    #: ones: (the lower,) when the two are comparable
    meet: dict[int, dict[int, tuple[int, ...]]]
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
    up = {s: (s,) + tuple(u for u in standpoints if u in reach[s] and u != s
                          and s != _STAR and (u == _STAR or s not in reach[u]))
          for s in standpoints}
    # s is a common lower bound of every pair in its up-set, and the
    # greatest ones have no other above them
    lower: dict[int, dict[int, list[int]]] = {w: {} for w in standpoints}
    for s in standpoints:
        for w in up[s]:
            for u in up[s]:
                lower[w].setdefault(u, []).append(s)
    meet: dict[int, dict[int, tuple[int, ...]]] = {w: {} for w in standpoints}
    for w, pairs in lower.items():
        for u, low in pairs.items():
            low_set = set(low)
            meet[w][u] = tuple(s for s in low
                               if low_set.isdisjoint(up[s][1:]))
    return _Order(up, meet, edges)


def _lift(fact: tuple, positions) -> tuple:
    """`fact` (or a pattern) with the constant of each generalizable
    position in `positions` put there."""
    spots = dict(_GENERAL.get(fact[0], ()))
    return tuple(spots.get(k, p) if k in positions else p
                 for k, p in enumerate(fact))


def _generalizes(general: tuple, fact: tuple) -> bool:
    """True when the pattern `general` is the pattern `fact`, or `fact`
    with the top put at some of its generalizable positions."""
    spots = dict(_GENERAL.get(fact[0], ()))
    return general[0] == fact[0] and all(
        a == b or spots.get(k) == a for k, (a, b) in enumerate(zip(general,
                                                                    fact)))


def _generalization_lookup(up: dict, stored: dict):
    """The run's lookup general_of(fact) of a strict generalization of the
    interned `fact` in `stored`, or None: a copy with Top for its subject
    or D, or with a standpoint of the up-set `up` of its own at each
    standpoint position (`_GENERAL`). A gci_nested fact's (C, D) is probed
    as (Top, d), (c, d), (Top, Top), (c, Top), each over every pair of
    standpoints, but the fact's own at (c, d); so a stored fact is not its
    own generalization."""

    def above(ts, ss, c, d, e) -> tuple | None:
        for t2 in ts:
            for s2 in ss:
                if ("gci_nested", t2, c, s2, d, e) in stored:
                    return "gci_nested", t2, c, s2, d, e
        return None

    def general_of(fact: tuple) -> tuple | None:
        shape = fact[0]
        if shape == "gci_nested":
            _, t, c, s, d, e = fact
            ts, ss = up[t], up[s]
            found = None
            if c != _TOP:
                found = above(ts, ss, _TOP, d, e)
            if found is None and len(ts) + len(ss) > 2:
                # every pair of standpoints but the fact's own, if any
                found = (above(ts[:1], ss[1:], c, d, e)
                         or above(ts[1:], ss, c, d, e))
            if found is None and d != _TOP:
                if c != _TOP:
                    found = above(ts, ss, _TOP, _TOP, e)
                if found is None:
                    found = above(ts, ss, c, _TOP, e)
            return found
        if shape in _GENERAL_IDS:
            rest = fact[2:]
            for u in up[fact[1]][1:]:
                if (shape, u) + rest in stored:
                    return (shape, u) + rest
        return None

    return general_of


def _implicit_step(fact: tuple, general: tuple | None) -> tuple[str, tuple]:
    """The last step of a canonical derivation of an interned implicit fact
    from its stored strict generalization `general` (None for a
    tautology, whose tops it goes to): it lifts the first position, in
    `_GENERAL` order, where the two differ. A subject follows by C.2 from
    box_*[Top sub box_t[C => Top]], a D by C.1 from the tautology
    box_t[C sub box_s[D => Top]], a standpoint s by S.3:<shape> or S.4
    from sharper(s, u); a tautology keeps its D, and lifted at the other
    three is a T rule."""
    for k, top in _GENERAL_IDS[fact[0]]:
        if general is None and k == 4:
            continue  # a tautology keeps its D
        term = top if general is None else general[k]
        if fact[k] != term:
            lifted = fact[:k] + (term,) + fact[k + 1:]
            if k == 2:
                return "C.2", (("gci_nested", _STAR, _TOP, fact[1],
                                fact[2], _TOP), lifted)
            if k == 4:
                return "C.1", (fact[:5] + (_TOP,), lifted)
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
    #: the stored premises after it, in the order they are looked up
    order: tuple[int, ...]
    premises: tuple
    conclusion: tuple
    #: the premises that are implicit tautologies, generated
    implicit: tuple[int, ...]
    #: the (premise, position) pairs of a subject or D matched by a stored
    #: fact with Top there, which stands for every value
    twins: tuple[tuple[int, int], ...]
    #: the (premise, position) pairs of generalizable positions holding a
    #: variable where the premise with the top is no generalization of the
    #: conclusion, so that the fact matched may hold a term above; at the
    #: reached premise's others, a fact holding the top stops the join
    open: tuple[tuple[int, int], ...]


def _matched(premises: tuple, twins) -> list:
    """The patterns of the stored facts that match `premises`: Top at each
    (premise, position) of `twins`."""
    return [_lift(p, [k for j2, k in twins if j2 == j])
            for j, p in enumerate(premises)]


def _join_plan(rule: Rule, i: int | None, families: dict[int, str],
               twins: tuple[tuple[int, int], ...]) -> _Plan | None:
    """The variant of `rule` started from premise `i` in which each premise
    in `families` is an implicit tautology of the given family and each
    subject or D in `twins` is matched by a stored fact with Top there.
    None when no such instance exists, when each is implied (a tautology,
    or a stored premise or a generalization of one), when a twin's
    variable is bound before (the probe's job), or when other variants
    give a twin's conclusions (`_covered`)."""
    subst: dict | None = {}
    for j, family in families.items():
        subst = unify(*_TAUTOLOGY_FAMILIES[family](rule.premises[j]), subst)
        if subst is None:
            return None
    premises = resolve(rule.premises, subst)
    conclusion = resolve(rule.conclusion, subst)
    if any(premises[j][k] == TOPC for j, k in twins):
        return None  # already Top: the plain variant's job
    matched = _matched(premises, twins)
    if is_tautology(conclusion) or any(
            _generalizes(matched[j], conclusion)
            for j in range(len(premises)) if j not in families) or any(
            _covered(rule, premises[j][k], matched, conclusion, families, j,
                     k) for j, k in twins):
        return None
    # the join order: the reached premise, then the other stored ones,
    # those of the small tables before the large gci_nested ones
    order = sorted((j for j in range(len(premises))
                    if j != i and j not in families),
                   key=lambda j: premises[j][0] == "gci_nested")
    bound: set[str] = set()
    opened = []
    for j in ([] if i is None else [i]) + order:
        for k, _ in _GENERAL.get(premises[j][0], ()):
            if (j, k) in twins:
                if bound.issuperset(_term_vars(premises[j][k])):
                    return None  # bound already: the probe's job
            elif _term_vars(premises[j][k]) and not _generalizes(
                    _lift(matched[j], (k,)), conclusion):
                opened.append((j, k))
        bound.update(v for v, _ in pattern_vars(matched[j]))
    return _Plan(i, tuple(order), premises, conclusion,
                 tuple(sorted(families)), tuple(twins), tuple(opened))


def _covered(rule: Rule, x, matched: list, conclusion: tuple,
             families: dict[int, str], j: int, k: int) -> bool:
    """True when other variants give the conclusions of a twin `x` at
    premise `j`'s position `k`, matched by `matched[j]`: x is a variable
    held elsewhere only by implicit premises, `_TOP_FOLLOWS` and conclusion
    `_TOP_STANDS` positions (the join with x = Top concludes what stands
    for the twin's); I.2 takes `matched[j]` to a generalization of the
    conclusion; or it is one of `_COVERED_TWINS`."""
    return (isinstance(x, Var) and all(
        m in families or n in _TOP_FOLLOWS.get(pat[0], ())
        for m, pat in enumerate(matched) for n, p in enumerate(pat)
        if p == x) and all(n in _TOP_STANDS.get(conclusion[0], ())
                           for n, p in enumerate(conclusion) if p == x)
            or matched[j][2] == TOPC and _generalizes(
                ("gci_nested", UNIVERSAL, TOPC) + matched[j][3:], conclusion)
            or not families and (rule.name, j, k) in _COVERED_TWINS)


def _is_standpoint(shape: str, k: int) -> bool:
    return FACT_SHAPES[shape][k - 1][1] == "standpoint"


@cache
def _compile_join(rule: Rule, plan: _Plan):
    """Compile the join of a `_join_plan`, once per process, into
    make(index, fact_ids, ranges, emit, **maps), which makes for one run
    the closure fn(fact, fid) to call on each fact the walk reaches (fact
    None for a join without one). `index(shape, positions)` gives the run's
    index tables of the facts reached so far; `maps` holds its nominal,
    self-loop and seed order maps (`UP`, `MEET`), the probes of a subject
    or D (`ALT_C`) and `GENERAL`, its lookup of a stored strict
    generalization of a conclusion (`_generalization_lookup`)."""
    i, premises, conclusion = plan.start, plan.premises, plan.conclusion
    twins, opened = plan.twins, set(plan.open)
    implicit = list(plan.implicit)
    matched = _matched(premises, twins)
    stored = [j for j in range(len(premises)) if j not in implicit]
    # built from their variables once every stored premise is bound
    twinned = {j for j, _ in twins}
    generated = implicit + [j for j in stored if j in twinned]
    not_top = {premises[j][k].name for j, k in twins
               if isinstance(premises[j][k], Var)}
    tables: dict[tuple, str] = {}
    # the Python name holding each bound variable: a ceiling lowered by a
    # later premise gets a new one, so that enclosing loops keep theirs
    names: dict[str, str] = {}
    ceiling: set[str] = set()

    def term_expr(p) -> str:
        if isinstance(p, Var):
            return names[p.name]
        if is_nested(p):
            return f"{_NESTED_MAPS[p[0]][1]}[{names[p[1].name]}]"
        return str(_FIXED_IDS[p])

    def tuple_expr(pat: tuple) -> str:
        return "(" + ", ".join([repr(pat[0])]
                               + [term_expr(p) for p in pat[1:]]) + ")"

    lines: list[str] = []
    ind = "    "

    def bail() -> str:
        return "return" if ind == "    " else "continue"

    def loop(target: str, iterable: str) -> None:
        nonlocal ind
        lines.append(f"{ind}for {target} in {iterable}:")
        ind += "    "

    # A conclusion that is a tautology is implied: the test runs as soon
    # as its variables are bound.
    pairs = []
    if conclusion[0] == "gci_nested":
        pairs = [sides(conclusion) for sides in _TAUTOLOGY_FAMILIES.values()]
        pairs = [pair for pair in pairs if unify(*pair, {}) is not None]

    def run_guards() -> None:
        nonlocal pairs
        if pairs and all(v in names for v in _term_vars(pairs)):
            lines.append(f"{ind}if " + " or ".join(
                f"{term_expr(a)} == {term_expr(b)}" for a, b in pairs)
                + f": {bail()}")
            pairs = []

    def rename(var: str, is_ceiling: bool) -> str:
        """A new Python name for `var`, bound next as a ceiling or not."""
        names[var] = f"v_{var}_{len(lines)}" if var in names else f"v_{var}"
        (ceiling.add if is_ceiling else ceiling.discard)(var)
        return names[var]

    def bind(var: str, expr: str, is_ceiling: bool) -> None:
        lines.append(f"{ind}{rename(var, is_ceiling)} = {expr}")

    def match(src: str, pat: tuple, j: int) -> None:
        """Bind or check the variables of premise `j`'s pattern `pat` (None
        at the positions already keyed) against the fact `src`. The first
        position of each unbound plain variable is unpacked."""
        fresh = {}
        for k, p in enumerate(pat[1:], start=1):
            if isinstance(p, Var) and p.name not in names | fresh.keys():
                fresh[p.name] = k
        if fresh:
            targets = ["_"] * len(pat)
            for var, k in fresh.items():
                targets[k] = rename(var, (j, k) in opened
                                    and _is_standpoint(pat[0], k))
            lines.append(f"{ind}{', '.join(targets)} = {src}")
            for var in fresh.keys() & not_top:
                lines.append(f"{ind}if {names[var]} == {_TOP}: {bail()}")
        for k, p in enumerate(pat[1:], start=1):
            term = f"{src}[{k}]"
            if p is None or k in fresh.values():
                continue
            if is_nested(p):
                v = p[1].name
                dmap = _NESTED_MAPS[p[0]][0]
                if v in names:
                    lines.append(f"{ind}if {dmap}.get({term}, -1) != "
                                 f"{names[v]}: {bail()}")
                else:
                    bind(v, f"{dmap}.get({term}, -1)", False)
                    lines.append(f"{ind}if {names[v]} < 0: {bail()}")
                continue
            if not isinstance(p, Var):
                lines.append(f"{ind}if {term} != {term_expr(p)}: {bail()}")
                continue
            name = names[p.name]
            if p.name in ceiling and (j, k) in opened:
                loop(rename(p.name, True), f"MEET[{name}].get({term}, ())")
            elif p.name in ceiling and _is_standpoint(pat[0], k):
                lines.append(f"{ind}if {name} not in UP[{term}]: {bail()}")
                bind(p.name, term, False)
            elif (j, k) in opened and _is_standpoint(pat[0], k):
                lines.append(f"{ind}if {term} not in UP[{name}]: {bail()}")
            else:
                lines.append(f"{ind}if {term} != {name}: {bail()}")

    if i is not None:
        # its kind fixes the constants at a gci_nested fact's `_KIND_SPOTS`
        fixed = _KIND_SPOTS if matched[i][0] == "gci_nested" else ()
        match("fact", tuple(None if (k, p) in fixed else p
                            for k, p in enumerate(matched[i])), i)
        for k, top in _GENERAL_IDS.get(matched[i][0], ()):
            if isinstance(matched[i][k], Var) and (i, k) not in opened:
                lines.append(f"{ind}if fact[{k}] == {top}: return")
        run_guards()

    # Stored premises are looked up in tables of facts reached so far, or
    # by membership when every position is bound; generated ones are
    # built afterwards from their free variables.
    for j in plan.order:
        pat = matched[j]
        keyed, key_exprs = [], []
        for k, p in enumerate(pat[1:], start=1):
            # a ceiling is matched after the lookup, not keyed
            if not all(v in names and v not in ceiling
                       for v in _term_vars(p)):
                continue
            keyed.append(k)
            expr = term_expr(p)
            if (j, k) in opened:
                alt = f"a{j}_{k}"
                loop(alt, f"UP[{expr}]" if _is_standpoint(pat[0], k)
                     else f"ALT_C[{expr}]")
                expr = alt
            key_exprs.append(expr)
        if len(keyed) == len(pat) - 1:
            lines.append(f"{ind}p{j} = ({pat[0]!r}, "
                         + ", ".join(key_exprs) + ")")
            lines.append(f"{ind}if fact_ids.get(p{j}, fid + 1) > fid: "
                         f"{bail()}")
        else:
            key = (key_exprs[0] if len(key_exprs) == 1
                   else "(" + ", ".join(key_exprs) + ")")
            table = tables.setdefault((pat[0], tuple(keyed)),
                                      f"T{len(tables)}")
            loop(f"p{j}", f"{table}.get({key}, ())")
            match(f"p{j}", tuple(None if k in keyed else p
                                 for k, p in enumerate(pat)), j)
        run_guards()

    # Only the constant instance of a conclusion's generalizable position
    # is needed: the others are its specializations. A generated premise
    # holds for every value of a variable that the conclusion does not
    # read, so such a variable takes one; a twin's variable, which skips
    # Top, keeps its range.
    loose_conclusion = _lift(conclusion, [
        k for k, p in enumerate(conclusion) if isinstance(p, Var)])
    needed = {var for var, _ in pattern_vars(loose_conclusion)} | not_top
    for j in generated:
        for var, kind in pattern_vars(premises[j]):
            if var not in names:
                key = kind if var in needed else ("any", kind)
                loop(f"v_{var}", f"ranges[{key!r}]")
                names[var] = f"v_{var}"
                if var in not_top:
                    lines.append(f"{ind}if v_{var} == {_TOP}: continue")
                run_guards()

    for var, kind in rule.ranges:
        if var not in names:
            loop(f"v_{var}", f"ranges[{kind!r}]")
            names[var] = f"v_{var}"
    run_guards()
    # a conclusion stored, or with a stored generalization, is implied
    test = "_c in fact_ids"
    if any(conclusion[k] != c for k, c in _GENERAL.get(conclusion[0], ())):
        test += " or GENERAL(_c) is not None"
    lines.append(f"{ind}_c = {tuple_expr(conclusion)}")
    lines.append(f"{ind}if {test}: {bail()}")

    # the premises are named by their own terms: a stored fact matched may
    # stand for them
    prems = "".join(tuple_expr(p) + ", " for p in premises)
    lines.append(f"{ind}emit(_c, ({prems}), {rule.name!r})")

    head = [f"def _make(index, fact_ids, ranges, emit, {', '.join(_MAPS)}):"]
    head += [f"    {name} = index{key!r}" for key, name in tables.items()]
    head += ["    def _fn(fact, fid):"]
    lines = head + ["    " + line for line in lines] + ["    return _fn"]
    ns: dict = {}
    label = (f"<join {rule.name} from {i}, implicit {implicit}, "
             f"twins {twins}, open {plan.open}>")
    exec(compile("\n".join(lines), label, "exec"), ns)  # noqa: S102
    return ns["_make"]


def _term_vars(term) -> list[str]:
    """The variable names in a pattern or term, nested ones included."""
    if isinstance(term, Var):
        return [term.name]
    if isinstance(term, (tuple, list)):
        return [v for t in term for v in _term_vars(t)]
    return []


def _modes(rule: Rule, i: int | None):
    """The (families, twins) choices `_join_plan` is asked about for a join
    of `rule` from premise `i`: each gci_nested premise other than the
    reached one may be an implicit tautology, and each one may be matched
    by a stored fact with Top at its subject, its D or both, where it does
    not hold Top (a twin, kept unless `_covered`). A join without a fact
    reached has only implicit premises."""
    options = []
    for j, pat in enumerate(rule.premises):
        choices: list[tuple[dict, tuple]] = [({}, ())]
        if pat[0] == "gci_nested":
            if j != i:
                choices += [({j: f}, ()) for f in _TAUTOLOGY_FAMILIES]
            if i is not None:
                spots = [(j, k) for k in _TWIN_SPOTS if pat[k] != TOPC]
                choices += [({}, twin) for n in range(1, len(spots) + 1)
                            for twin in combinations(spots, n)]
        options.append(choices)
    for choice in product(*options):
        families, twins = {}, ()
        for family, twin in choice:
            families.update(family)
            twins += twin
        if i is not None or len(families) == len(rule.premises):
            yield families, twins


def _keys(plan: _Plan, shape: str | None) -> list[tuple[bool, ...]]:
    """The keys of `_dispatch` that `plan`'s reached premise admits: for
    gci_nested, each (subject is Top, D is Top, E is Bot) that a fact
    matching it can have (`_KIND_SPOTS`). A constant, a nominal or a
    twin's Top there fixes the test, a variable leaves it open, except
    that a twin's variable is not Top. Other shapes have one key, ()."""
    if shape != "gci_nested":
        return [()]
    i, twins = plan.start, plan.twins
    pat = _matched(plan.premises, twins)[i]
    not_top = {plan.premises[j][k] for j, k in twins}

    def admits(term, const, holds: bool) -> bool:
        if isinstance(term, Var):
            return not (holds and const == TOPC and term in not_top)
        return (term == const) == holds

    return [key for key in product((False, True), repeat=len(_KIND_SPOTS))
            if all(admits(pat[k], const, holds)
                   for (k, const), holds in zip(_KIND_SPOTS, key))]


@cache
def _dispatch(shape: str | None) -> dict[tuple[bool, ...], list]:
    """The (rule, plan) joins to run on each fact reached of `shape`, in
    rule order, keyed by the rest of the fact's kind (`_keys`), under each
    key the variant's reached premise admits. For None, under (), the joins
    whose premises are all implicit tautologies. Planned on first use, so
    importing the package stays cheap."""
    dispatch: dict[tuple[bool, ...], list] = {}
    for rule in RULES:
        seen = set()
        starts = [i for i, p in enumerate(rule.premises) if p[0] == shape]
        for i in [None] if shape is None and rule.premises else starts:
            for families, twins in _modes(rule, i):
                plan = _join_plan(rule, i, families, twins)
                if plan is None or plan in seen:
                    continue
                seen.add(plan)
                for key in _keys(plan, shape):
                    dispatch.setdefault(key, []).append((rule, plan))
    return dispatch


@cache
def _joins(kind: tuple | None) -> tuple:
    """The compiled joins of `kind`, a fact's shape followed by its key in
    `_dispatch`, or for None those that run once per saturation, before
    the walk."""
    shape, *key = kind or (None,)
    return tuple(_compile_join(rule, plan)
                 for rule, plan in _dispatch(shape).get(tuple(key), ()))


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class _Stop(Exception):
    pass


def _key_of(positions: tuple[int, ...]):
    """The key of an index table on `positions`: the value at the one
    position, or the tuple of values at several (the empty tuple for
    none)."""
    return itemgetter(*positions) if positions else (lambda fact: ())


class Saturation:
    """One run of the engine over a fact store, which can be resumed and
    copied: `walk` goes on to the fixpoint (or, with early exit, the
    refutation), `extend` adds input facts to a run walked that far, and
    `fork` copies it. `store` decodes its facts and provenance.

    The run keeps its interned facts, their ids and provenance, the
    premise-only ids, its seed order and the index tables of the facts
    the walk has reached. A run walked to its fixpoint and then extended
    walks on semi-naively: each fact added joins the facts reached
    before, which joined each other already. The universes stay as they
    are, so a join that ranges over them has nothing new to range over.
    A standpoint that no input fact of the run has named yet joins the
    seed order right below the first standpoint an added sharper fact puts
    it below; every other added sharper fact is walked as an ordinary
    fact, as the ones S.2 derives are. So the up-sets and meets of the
    standpoints already ordered stay as the joins before used them, and
    only the facts reached before that name a standpoint put in the order
    are joined again.

    A fork shares with its run only what neither changes: the universes,
    the interning tables, and the buckets of the index tables, each of
    which a run copies before it first appends to it. So forks of one run
    may be extended and walked side by side in threads."""

    def __init__(self, store: FactStore, early_exit_on_refutation: bool = True,
                 fact_limit: int | None = None) -> None:
        uni = self.universes = store.universes
        bound = polynomial_fact_bound(uni)
        self._limit = bound if fact_limit is None else min(bound, fact_limit)
        self._at_bound = self._limit == bound
        self._early_exit = early_exit_on_refutation

        # This run's interning tables, fixed by the universes: term <-> id,
        # each kind's ids, and the maps between a nominal (self-loop)
        # concept id and its individual (role) id. `*` and Top lead their
        # ranges: they are the values an implicit premise takes where any
        # value will do.
        term_ids = self._term_ids = dict(_FIXED_IDS)
        ranges = self._ranges = {}
        for kind in KINDS:
            ranges[kind] = [term_ids.setdefault(t, len(term_ids))
                            for t in uni.of(kind)]
            ranges[("any", kind)] = ranges[kind][:1]
        self._terms = list(term_ids)
        self._members = {kind: set(ranges[kind]) for kind in KINDS}
        maps: dict[str, object] = {
            name: {} for pair in _NESTED_MAPS.values() for name in pair}
        for c in uni.concepts:
            if is_nested(c):
                down, up = _NESTED_MAPS[c[0]]
                inner = term_ids.get(c[1], -1)
                if inner not in self._members[NESTED_TAGS[c[0]]]:
                    raise PreprocessError(f"concept {format_term(c)} names "
                                          "a term outside the universes")
                maps[down][term_ids[c]] = inner
                maps[up][inner] = term_ids[c]
        # the alternative keys a bound subject or D is probed with: the
        # concept and Top
        maps["ALT_C"] = {t: (t, _TOP) if t != _TOP else (t,)
                         for t in ranges["concept"]}
        self._maps = maps

        self._refutation = self._intern(REFUTATION_FACT)
        # The run's store: its facts in id order, their ids and provenance,
        # and the ids of the facts stored as premises only.
        self.facts: list[tuple] = []
        self.fact_ids: dict[tuple, int] = {}
        self.provenance: list[tuple[str, tuple[int, ...]]] = []
        self._premise_only: set[int] = set()
        inputs = self._inputs(store.facts)
        for fact, (rule, premises) in zip(inputs, store.provenance):
            self._add(fact, rule, premises)
        for rule in RULES:
            if not rule.premises and not is_tautology(rule.conclusion):
                for fact in instantiate_conclusion(rule, {}, uni):
                    self._add(self._intern(fact), rule.name, ())
        self._check_limit()
        self._order = _seed_order(ranges["standpoint"], [
            fact for fact in inputs if fact[0] == "sharper"])
        #: the standpoints no input fact has named, which may join the order
        self._unnamed = set(ranges["standpoint"]) - self._named(inputs)
        self._unnamed.discard(_STAR)

        # The index tables, by (shape, positions), of the facts the walk has
        # reached and joined (`_key_of`); a table made during the walk
        # starts with the facts of its shape reached so far.
        self._tables: dict[tuple, dict] = {}
        #: per table whose buckets the run may share with a fork (`fork`),
        #: the keys of the buckets it has copied, which it owns
        self._owned: dict[tuple, set] = {}
        self._joined: dict[str, list] = {shape: [] for shape in FACT_SHAPES}
        #: the id of the next fact the walk reaches, and the ids of facts
        #: reached before that it joins again first
        self._reached = 0
        self._rejoin: list[int] = []
        #: whether the walk stopped at the refutation fact
        self.stopped = False

    def __len__(self) -> int:
        return len(self.facts)

    @property
    def refuted(self) -> bool:
        return self._refutation in self.fact_ids

    def _intern(self, fact: Fact) -> tuple:
        return (fact[0],) + tuple([self._term_ids.get(t, -1)
                                   for t in fact[1:]])

    def _inputs(self, facts) -> list[tuple]:
        """`facts` interned, each checked to be of a known shape over the
        universes."""
        out = []
        for fact in facts:
            positions = FACT_SHAPES.get(fact[0])
            if positions is None:
                raise PreprocessError(f"input fact {format_fact(fact)} has "
                                      "an unknown shape")
            interned = self._intern(fact)
            if any(t not in self._members[kind]
                   for t, (_, kind) in zip(interned[1:], positions)):
                raise PreprocessError(f"input fact {format_fact(fact)} names "
                                      "a term outside the universes")
            out.append(interned)
        return out

    @staticmethod
    def _named(facts) -> set[int]:
        """The standpoints the interned `facts` name."""
        return {t for fact in facts
                for t, (_, kind) in zip(fact[1:], FACT_SHAPES[fact[0]])
                if kind == "standpoint"}

    def _add(self, fact: tuple, rule_name: str, premises: tuple) -> None:
        if fact not in self.fact_ids:
            self.fact_ids[fact] = len(self.facts)
            self.facts.append(fact)
            self.provenance.append((rule_name, premises))

    def _check_limit(self) -> None:
        if len(self.fact_ids) > self._limit:
            raise FactLimitExceeded(len(self.fact_ids), self._limit,
                                    self._at_bound)

    def fork(self) -> "Saturation":
        """A copy of the run: extending and walking either leaves the other
        as it is."""
        twin = copy.copy(self)
        twin.facts = list(self.facts)
        twin.fact_ids = dict(self.fact_ids)
        twin.provenance = list(self.provenance)
        twin._premise_only = set(self._premise_only)
        twin._unnamed = set(self._unnamed)
        twin._rejoin = list(self._rejoin)
        # the buckets are shared, and each run copies one before it first
        # appends to it
        twin._tables = {key: dict(table) for key, table in self._tables.items()}
        self._owned = {key: set() for key in self._tables}
        twin._owned = {key: set() for key in self._tables}
        twin._joined = {shape: list(facts)
                        for shape, facts in self._joined.items()}
        return twin

    def extend(self, facts) -> None:
        """Add the input facts `facts`, over the run's universes, to be
        walked next. A standpoint no input fact named before joins the seed
        order right below the standpoint that the first added sharper fact
        puts it below (not itself or `*`), when that one is not waiting to
        join too; the facts reached before that name it are joined again."""
        added = self._inputs(facts)
        for fact in added:
            self._add(fact, INPUT_RULE, ())
        self._check_limit()
        parents: dict[int, int] = {}
        for fact in added:
            if (fact[0] == "sharper" and fact[1] in self._unnamed
                    and fact[2] not in (fact[1], _STAR)):
                parents.setdefault(fact[1], fact[2])
        self._unnamed -= self._named(added)
        placed = self._place(parents)
        if placed:
            facts, premise_only = self.facts, self._premise_only
            self._rejoin += [fid for fid in range(self._reached)
                             if fid not in premise_only
                             and not placed.isdisjoint(facts[fid])]

    def _place(self, parents: dict[int, int]) -> set[int]:
        """Put each standpoint of `parents` in the seed order right below
        its parent, parents first; those in a cycle of parents stay out.
        Returns the standpoints put in. One put in lies below the up-set of
        its parent and above nothing, so every other up-set stays as it is,
        and so does the meet of every two other standpoints: its parent lies
        below both and above it."""
        order = self._order
        up, meet, edges = dict(order.up), dict(order.meet), dict(order.edges)
        waiting = dict(parents)
        placed: set[int] = set()
        while True:
            ready = [s for s, u in waiting.items() if u not in waiting]
            if not ready:
                break
            for s in ready:
                u = waiting.pop(s)
                up[s] = (s,) + up[u]
                edges[s] = [u]
                meet[s] = {w: (s,) for w in up[s]}
                for w in up[u]:
                    meet[w] = {**meet[w], s: (s,)}
                placed.add(s)
        if placed:
            self._order = _Order(up, meet, edges)
        return placed

    def walk(self) -> None:
        """Reach every fact not reached yet, in id order, with the facts
        their joins append, until the fixpoint or, with early exit, the
        refutation fact."""
        if self.stopped:
            return
        facts, fact_ids = self.facts, self.fact_ids
        provenance, premise_only = self.provenance, self._premise_only
        limit, at_bound = self._limit, self._at_bound
        early_exit, refutation = self._early_exit, self._refutation
        ranges, order = self._ranges, self._order
        if early_exit and refutation in fact_ids:
            self.stopped = True
            return

        def add(fact: tuple, rule_name: str, premises: tuple) -> None:
            if fact in fact_ids:
                return
            fact_ids[fact] = len(facts)
            facts.append(fact)
            provenance.append((rule_name, premises))

        def check_limit() -> None:
            if len(fact_ids) > limit:
                raise FactLimitExceeded(len(fact_ids), limit, at_bound)

        def emit(concl: tuple, premises: tuple, rule_name: str) -> None:
            for p in premises:
                if p not in fact_ids:
                    derive(p)
            add(concl, rule_name, tuple([fact_ids[p] for p in premises]))
            check_limit()
            if early_exit and concl == refutation:
                raise _Stop

        # a stored strict generalization of a fact, or None
        general_of = _generalization_lookup(order.up, fact_ids)
        maps = dict(self._maps, UP=order.up, MEET=order.meet,
                    GENERAL=general_of)

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
            premise_only.add(len(facts))
            add(fact, rule_name, tuple([fact_ids[p] for p in premises]))
            check_limit()

        tables, joined = self._tables, self._joined
        # per shape, its tables, and those whose buckets may be shared, with
        # the keys of the buckets the run owns
        tables_of: dict[str, list] = {}
        shared_of: dict[str, list] = {}
        for (shape, positions), table in tables.items():
            owned = self._owned.get((shape, positions))
            if owned is None:
                tables_of.setdefault(shape, []).append((_key_of(positions),
                                                        table))
            else:
                shared_of.setdefault(shape, []).append((_key_of(positions),
                                                        table, owned))

        def index(shape: str, positions: tuple[int, ...]) -> dict:
            table = tables.get((shape, positions))
            if table is None:
                table = tables[shape, positions] = {}
                key_of = _key_of(positions)
                tables_of.setdefault(shape, []).append((key_of, table))
                for fact in joined[shape]:
                    table.setdefault(key_of(fact), []).append(fact)
            return table

        # per compiled join, this walk's instance: one serves every kind
        made: dict = {}

        def instances(kind: tuple | None) -> list:
            """This walk's instances of the joins of `kind`."""
            fns = []
            for make in _joins(kind):
                fn = made.get(make)
                if fn is None:
                    fn = made[make] = make(index, fact_ids, ranges, emit,
                                           **maps)
                fns.append(fn)
            return fns

        # per kind, the joins made when the walk first reaches one
        joins: dict[tuple, list] = {}
        start = self._reached
        try:
            if start == 0:  # the joins without a fact reached run once
                for fn in instances(None):
                    fn(None, -1)
            # facts reached before, joined again with every fact reached
            for fid in self._rejoin:
                fact = facts[fid]
                if fact[0] == "gci_nested" and (fact[4] == fact[5]
                                                or fact[5] == _TOP):
                    continue
                if general_of(fact) is not None:
                    continue
                kind = (("gci_nested", fact[2] == _TOP, fact[4] == _TOP,
                         fact[5] == _BOT) if fact[0] == "gci_nested"
                        else (fact[0],))
                fns = joins.get(kind)
                if fns is None:
                    fns = joins[kind] = instances(kind)
                for fn in fns:
                    fn(fact, start - 1)
            self._rejoin = []
            # The fact list is the worklist: the loop also reaches the
            # facts appended while it runs.
            for fid, fact in enumerate(islice(facts, start, None), start):
                if fid in premise_only:
                    continue
                shape = fact[0]
                if shape == "gci_nested" and (fact[4] == fact[5]
                                              or fact[5] == _TOP):
                    continue  # a tautology: matched implicitly
                if general_of(fact) is not None:
                    continue  # a stored generalization's joins cover it
                if shape == "gci_nested":
                    kind = (shape, fact[2] == _TOP, fact[4] == _TOP,
                            fact[5] == _BOT)
                else:
                    kind = (shape,)
                joined[shape].append(fact)
                for key_of, table in tables_of.get(shape, ()):
                    key = key_of(fact)
                    bucket = table.get(key)
                    if bucket is None:
                        table[key] = [fact]
                    else:
                        bucket.append(fact)
                for key_of, table, owned in shared_of.get(shape, ()):
                    key = key_of(fact)
                    if key in owned:
                        table[key].append(fact)
                    else:
                        table[key] = table.get(key, []) + [fact]
                        owned.add(key)
                fns = joins.get(kind)
                if fns is None:
                    fns = joins[kind] = instances(kind)
                for fn in fns:
                    fn(fact, fid)
        except _Stop:
            self.stopped = True
        self._reached = len(facts)

    def store(self) -> FactStore:
        """The run's facts and provenance, decoded into a readable store;
        ids and provenance carry over as they are, and every fact is listed
        by shape."""
        terms = self._terms
        out = FactStore(self.universes.copy())
        out.facts = [(f[0],) + tuple([terms[t] for t in f[1:]])
                     for f in self.facts]
        out.fact_ids = dict(zip(out.facts, range(len(out.facts))))
        out.provenance = list(self.provenance)
        for fact in out.facts:
            out.by_shape.setdefault(fact[0], []).append(fact)
        out.partial = self.stopped
        return out


def saturate(store: FactStore, early_exit_on_refutation: bool = True,
             fact_limit: int | None = None) -> FactStore:
    """Closure of `store` under all rules, less its implicit facts that
    are no premise of a stored one; returns a new store. With
    `early_exit_on_refutation` the run may stop as soon as the refutation
    fact appears (the result is then marked partial). Raises
    PreprocessError when an input fact names a term outside the store's
    universes, and FactLimitExceeded when more facts are stored than the
    polynomial bound or `fact_limit` allows."""
    run = Saturation(store, early_exit_on_refutation, fact_limit)
    run.walk()
    # the run's ids and indexes are released before decoding, so that
    # they do not add to the peak
    run.fact_ids = run._tables = run._joined = None
    return run.store()


def is_refuted(store: FactStore) -> bool:
    """True iff the refutation fact was derived."""
    return REFUTATION_FACT in store


def stored_form(store: FactStore, fact: Fact) -> Fact | None:
    """The stored fact by which the saturated `store` holds `fact`: `fact`
    itself, or else a stored generalization of it: a copy with Top for its
    subject or D or with standpoints above its own at its generalizable
    positions, along the store's sharper facts (`*` above every
    standpoint), and for box_t[C sub box_s[D => E]] with D not Bot also
    with Bot for E, as D is then empty; None when there is none.
    Saturation leaves the twins implicit along a sub-order of these, so
    every fact of the full closure that is not a tautology
    (`is_tautology`) has a stored form."""
    if fact in store.fact_ids:
        return fact
    above: dict = {}
    for _, s, u in store.by_shape.get("sharper", ()):
        above.setdefault(s, []).append(u)
    choices = [[term] for term in fact]
    for k, top in _GENERAL.get(fact[0], ()):
        term = fact[k]
        choices[k] = list(dict.fromkeys(
            [term, top] if top == TOPC else
            [term, *above.get(term, ()), UNIVERSAL]))
    if fact[0] == "gci_nested" and fact[4] != BOTC:
        # with D = Bot, that copy is a tautology, which holds no other fact
        choices[5] = list(dict.fromkeys([fact[5], BOTC]))
    for general in product(*choices):
        if general in store.fact_ids:
            return general
    return None


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------

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
