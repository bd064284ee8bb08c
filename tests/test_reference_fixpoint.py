"""Differential test: the compiled engine against a naive fixpoint.

The reference knows the calculus only through `RULES` and `apply_rule`,
so it checks the shared pattern code from the side that compiles no
joins. It stores every fact, tautologies included, and repeats rounds of
backtracking joins over per-shape fact lists until a round adds nothing;
each round joins only the premise combinations that hold a fact new in
the round before (semi-naive evaluation), starting from that fact.
With the premises in the order joined, for premise k `apply_rule` on the
rule cut to premises 0..k-1, with premise k as its conclusion, gives the
pattern the chosen prefix leaves;
a fact of that shape that agrees with it on the bound positions is kept
when `apply_rule` accepts the longer prefix.
"""

import functools
import itertools

import pytest

from spel import saturation
from spel.parser import parse_kb
from spel.preprocess import FACT_SHAPES, INPUT_RULE, REFUTATION_FACT, prep
from spel.rules import RULES, Rule, Var, apply_rule
from spel.saturation import saturate

from conftest import GENERALIZABLE, informative_closure
from genkb import TINY_PARAMS, generate_kb

#: tiny seeds with small closures, so that the naive fixpoint stays fast:
#: 73, the smallest whose closure needs a C.1 premise matched through its
#: Top-subject twin; 20 in 0-99 whose closures hold at most 109
#: non-tautological facts; and 48 and 184, the smallest in 0-199 after 20
#: that name both standpoints and have witness standpoints, so that
#: premises are matched through `*`-twins at several standpoints; and 104
#: and 108, whose seed sharpening orders put a fresh standpoint below S0
#: (so below S0 and `*`), so that premises are matched through their
#: copies at a named standpoint above their own
SMALL_SEEDS = (73, 2, 3, 14, 19, 20, 26, 28, 32, 42, 43, 49, 59, 62, 67,
               69, 70, 72, 78, 85, 91, 48, 184, 104, 108)


def _ground(term) -> bool:
    return not isinstance(term, Var) and not (
        isinstance(term, tuple) and any(isinstance(t, Var) for t in term))


def _conclusions(steps, chosen, pattern, sources, uni):
    """Conclusions of the rule whose prefix cuts are `steps`, over the
    `chosen` premises and, for each later premise, every fact that
    matches its pattern among those its source in `sources` gives."""
    step = steps[len(chosen)]
    for fact in sources[len(chosen)](pattern):
        try:
            out = apply_rule(step, chosen + [fact], uni)
        except ValueError:
            continue
        if step is steps[-1]:
            yield from out
        else:
            yield from _conclusions(steps, chosen + [fact], out[0],
                                    sources, uni)


def _candidates(facts):
    """The lookup of the facts in `facts` that agree with a pattern on its
    bound positions, through tables made on first use."""
    by_shape, tables = {}, {}
    for fact in facts:
        by_shape.setdefault(fact[0], []).append(fact)

    def candidates(pattern):
        bound = tuple(k for k in range(1, len(pattern))
                      if _ground(pattern[k]))
        table = tables.get((pattern[0], bound))
        if table is None:
            table = tables[pattern[0], bound] = {}
            for fact in by_shape.get(pattern[0], ()):
                key = tuple(fact[k] for k in bound)
                table.setdefault(key, []).append(fact)
        return table.get(tuple(pattern[k] for k in bound), ())

    return candidates


def reference_fixpoint(store) -> set:
    """Every fact the rules derive from `store`, semi-naively: each round
    joins only the premise combinations that hold a fact new in the last
    round. The first such premise, k, is joined first and takes the new
    facts; the premises before k take the older ones, those after it
    all."""
    uni = store.universes
    facts = set(store.facts)
    for rule in RULES:
        if not rule.premises:
            facts.update(apply_rule(rule, [], uni))
    plans = []
    for r in RULES:
        for k in range(len(r.premises)):
            order = [k] + [j for j in range(len(r.premises)) if j != k]
            premises = tuple(r.premises[j] for j in order)
            steps = [Rule(r.name, premises[:m + 1], premises[m + 1])
                     for m in range(len(premises) - 1)]
            steps.append(Rule(r.name, premises, r.conclusion, r.ranges))
            plans.append((steps, premises[0], [j < k for j in order[1:]]))
    old, new = set(), facts
    while new:
        older, last, every = (_candidates(old), _candidates(new),
                              _candidates(facts))
        found = set()
        for steps, first, before in plans:
            sources = [last] + [older if b else every for b in before]
            found.update(_conclusions(steps, [], first, sources, uni))
        old, new = facts, found - facts
        facts = facts | new
    return facts


#: the start of the "E.4 late" KBs: E.4 gives {a} sub box_S[C => D],
#: and C.1 gives C sub E at S late
_E4_LATE = ("standpoint S; individual a; concept C1; concept C; concept D; "
            "concept E; concept F; concept X; box S { C1(a); } "
            "box S { C1 and C sub D; } box S { C sub X; } "
            "box S { X sub E; } ")

#: hand-made KBs for the seed sharpening order. In "E.2" and "A.5" the
#: last input fact, a chain inclusion at SN, joins a premise at SN and one
#: at H <= SN: the chain inclusion's standpoint, a ceiling, is lowered to
#: H. In "cycle" A and B sharpen each other and both hold C sub D: neither
#: may stand for the other, or the walk would skip both. In "meet" M lies
#: below H and L, which are unordered: a chain inclusion at `*` joins an H
#: fact and an L fact, whose ceilings meet at M. In "two meets" M1 and M2
#: both lie below H and L, so such a join lands at each of them, and C sub
#: E at L with E sub D at H meet there too. In "meet below meet" the
#: greatest lower bound of M (below H and L) and K is N, and in "cycle
#: meet" C0 lies below A and B, which sharpen each other. "Example 2
#: shape" has V below H and L, both below SN, where S and P are disjoint:
#: U sub Bot at V comes from facts at V, H, L and SN. In "C.4" the last
#: fact, D sub E at SN, meets C sub dia H D, whose inner standpoint is not
#: generalizable: the ceiling SN accepts H below it. In "C.1" the last
#: fact, C sub D at SN, is lowered by D sub E at H, and in "C.1 reversed"
#: D sub E at SN by C sub D at H, so that each premise of C.1 holds the
#: ceiling once. "chain" does both over two levels, M <= H <= SN.
#: The next eight hold a fact with Top for D, which stands for its copies
#: with any D. In "L.2 self" it is Top sub ex R . Self, and L.2 gives
#: C sub ex R . C for the named C, which ranges; in "L.1" the same fact
#: has Top for its subject too, and L.1 gives R(a, a) and R(b, b). In
#: "E.1 late" it is reached after the gci_ex_right premise of E.1, whose D
#: it stands for. In "E.4 one conjunct" it is Top sub A, and C sub B,
#: reached last, finds it as the conjunct C sub A by probing Top for its
#: bound D; in "E.4 one conjunct, last" Top sub A is reached last and
#: stands for C sub A, and in "E.4 second conjunct, last" for the second
#: conjunct. In "C.3 Top for D" Top sub D stands for every C sub D, so C.3
#: gives C sub dia S E for each C; in "nominal subject" Top sub C at T
#: stands for {a} sub C.
#: In the last four a fact with a nominal subject and a concept for D
#: (a's witness fact of dia S B, or {a} sub box_S[C => D], which E.4
#: gives from C1(a) and C1 and C sub D) is reached before a Top-subject
#: fact that stands for its conjunct or the premise it chains to, derived
#: late through a conjunction or a chain; in "E.4 late conjunction" the
#: Top-subject conjunct C sub ex R . Self comes first, and the conjunction
#: that L.3 gives from ex R . D sub F last.
ORDER_KBS = {
    "E.2": "standpoint H; standpoint SN; H <= SN; concept C; concept D; "
           "concept E; box SN { C sub ex R . D; } box H { D sub ex R . E; } "
           "box SN { R o R sub Q; }",
    "A.5": "standpoint H; standpoint SN; H <= SN; individual a; "
           "individual b; individual c; box SN { R(a, b); } "
           "box H { R(b, c); } box SN { R o R sub Q; }",
    "cycle": "standpoint A; standpoint B; concept C; concept D; concept E; "
             "A <= B; B <= A; box A { C sub D; } box B { C sub D; } "
             "box B { D sub E; }",
    "meet": "standpoint H; standpoint L; standpoint M; concept C; "
            "concept D; M <= H; M <= L; box H { C sub ex R . D; } "
            "box L { D sub ex R . C; } box * { R o R sub Q; }",
    "two meets": "standpoint H; standpoint L; standpoint M1; "
                 "standpoint M2; concept C; concept D; concept E; "
                 "M1 <= H; M1 <= L; M2 <= H; M2 <= L; "
                 "box H { C sub ex R . D; } box L { D sub ex R . E; } "
                 "box * { R o R sub Q; } box L { C sub E; } "
                 "box H { E sub D; }",
    "meet below meet": "standpoint H; standpoint L; standpoint M; "
                       "standpoint N; standpoint K; concept C; concept D; "
                       "concept E; M <= H; M <= L; N <= M; N <= K; "
                       "box H { C sub ex R . D; } box L { D sub ex R . E; } "
                       "box K { R o R sub Q; }",
    "cycle meet": "standpoint A; standpoint B; standpoint C0; concept C; "
                  "concept D; concept E; A <= B; B <= A; C0 <= A; C0 <= B; "
                  "box A { C sub ex R . D; } box B { D sub ex R . E; } "
                  "box * { R o R sub Q; }",
    "Example 2 shape": "standpoint H; standpoint L; standpoint SN; "
                       "standpoint V; concept S; concept P; concept T; "
                       "concept U; H <= SN; L <= SN; V <= H; V <= L; "
                       "box SN { S and P sub Bot; } box H { T sub S; } "
                       "box L { T sub P; } box V { U sub T; }",
    "C.4": "standpoint H; standpoint SN; H <= SN; concept C; concept D; "
           "concept E; box * { C sub dia H D; } box SN { D sub E; }",
    "C.1": "standpoint H; standpoint SN; H <= SN; concept C; concept D; "
           "concept E; box H { D sub E; } box SN { C sub D; }",
    "C.1 reversed": "standpoint H; standpoint SN; H <= SN; concept C; "
                    "concept D; concept E; box H { C sub D; } "
                    "box SN { D sub E; }",
    "chain": "standpoint M; standpoint H; standpoint SN; M <= H; H <= SN; "
             "concept C; concept D; concept E; concept F; "
             "box * { C sub dia M D; } box M { D sub E; } "
             "box SN { C sub D; } box SN { D sub F; }",
    "L.2 self": "standpoint S; concept C; concept D; "
                "box S { Top sub ex R . Self; } box S { ex R . C sub D; }",
    "E.1 late": "standpoint S; concept C; concept D; concept E; "
                "box S { C sub ex R . D; } box S { Top sub E; }",
    "E.4 one conjunct": "standpoint S; concept A; concept B; concept C; "
                        "concept D; box S { Top sub A; } "
                        "box S { A and B sub D; } box S { C sub B; }",
    "E.4 one conjunct, last": "standpoint S; concept A; concept B; "
                              "concept C; concept D; "
                              "box S { A and B sub D; } "
                              "box S { C sub B; } box S { Top sub A; }",
    "E.4 second conjunct, last": "standpoint S; concept A; concept B; "
                                 "concept C; concept D; "
                                 "box S { B and A sub D; } "
                                 "box S { C sub B; } box S { Top sub A; }",
    "L.1": "standpoint S; individual a; individual b; "
           "box S { Top sub ex R . Self; }",
    "C.3 Top for D": "standpoint S; concept D; concept E; "
                     "box S { D sub dia S E; } box S { Top sub D; }",
    "nominal subject": "standpoint T; standpoint S; T <= S; individual a; "
                       "concept B; concept C; box T { Top sub C; } "
                       "box S { B(a); }",
    "C.1 witness": "standpoint S; individual a; concept Q; concept B; "
                   "concept G; concept X1; concept X2; "
                   "box * { Q sub dia S B; } box S { G sub X1; } "
                   "box S { G sub X2; } box S { X1 and X2 sub B; }",
    "E.4 late Top subject": _E4_LATE + "box S { E and D sub F; }",
    "E.4 late Top subject, second conjunct": _E4_LATE
    + "box S { D and E sub F; }",
    "E.4 late conjunction": "standpoint S; individual a; concept C1; "
                            "concept C; concept D; concept F; "
                            "box S { C1(a); } box S { C1 and C sub D; } "
                            "box S { C sub ex R . Self; } "
                            "box S { ex R . D sub F; }",
}


def late_twins(store) -> list:
    """The facts `store` derives after a strict generalization of theirs,
    a copy with the top at some of their generalizable positions (Top for
    a subject or D, `*` for a standpoint), that are no premise of a stored
    fact: the engine stores such a twin only as the premise of a later
    fact."""
    used = {p for _, premises in store.provenance for p in premises}
    late = []
    for fid, fact in enumerate(store.facts):
        if fid in used or store.provenance[fid][0] == INPUT_RULE:
            continue
        spots = GENERALIZABLE.get(fact[0], {})
        copies = itertools.product(*([term, spots[k]] if k in spots
                                     else [term]
                                     for k, term in enumerate(fact)))
        if any(store.fact_ids.get(g, fid) < fid for g in copies):
            late.append(fact)
    return late


#: the KBs the engine is checked against the reference on: tiny seeds by
#: number and `ORDER_KBS` by name
REFERENCE_KBS = SMALL_SEEDS + tuple(ORDER_KBS)


@functools.cache
def _store(name):
    return prep(generate_kb(name, TINY_PARAMS) if isinstance(name, int)
                else parse_kb(ORDER_KBS[name]))


def _closure(facts, universes) -> tuple:
    """Whether `facts` hold the refutation fact, and the informative
    closure they stand for."""
    return REFUTATION_FACT in facts, informative_closure(facts, universes)


@functools.cache
def _reference(name) -> tuple:
    return _closure(reference_fixpoint(_store(name)), _store(name).universes)


def test_engine_matches_reference_fixpoint():
    """The engine's closure stands for the reference's, and it stores no
    twin of an earlier fact except as a premise."""
    for name in REFERENCE_KBS:
        engine = saturate(_store(name), early_exit_on_refutation=False)
        assert _closure(engine.facts, engine.universes) == _reference(name), \
            f"KB {name}"
        assert late_twins(engine) == [], f"KB {name}"


#: the planned variants with a twin, by rule name and plan
TWIN_VARIANTS = sorted({(rule.name, plan) for shape in FACT_SHAPES
                        for joins in saturation._dispatch(shape).values()
                        for rule, plan in joins if plan.twins},
                       key=lambda v: (v[0], v[1].start, v[1].implicit,
                                      v[1].twins))


@pytest.mark.parametrize("variant", TWIN_VARIANTS, ids=lambda v: (
    f"{v[0]} from {v[1].start}, implicit {list(v[1].implicit)}, "
    f"twins {list(v[1].twins)}"))
def test_every_planned_twin_variant_is_needed(variant, monkeypatch):
    """Mutation guard: with any one planned twin variant left out, the
    engine disagrees with the reference on some KB, so the planner keeps
    no twin variant that the others cover, and the reference KBs tell
    when a twin variant that is needed goes missing."""
    dispatch = saturation._dispatch
    monkeypatch.setattr(saturation, "_dispatch", lambda shape: {
        key: [(rule, plan) for rule, plan in joins
              if (rule.name, plan) != variant]
        for key, joins in dispatch(shape).items()})
    monkeypatch.setattr(saturation, "_joins",
                        functools.cache(saturation._joins.__wrapped__))
    assert any(_closure(engine.facts, engine.universes) != _reference(name)
               for name in REFERENCE_KBS
               for engine in [saturate(_store(name),
                                       early_exit_on_refutation=False)])
