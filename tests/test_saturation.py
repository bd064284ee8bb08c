"""Tests for the saturation engine, the rule table, and trace replay."""

import itertools
import random
import re
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spel import saturation
from spel.model import (
    BOT,
    TOP,
    UNIVERSAL,
    GCI,
    ConceptAssertion,
    Name,
    Sharpening,
    boxed,
    make_kb,
)
from spel.parser import parse_kb
from spel.preprocess import (
    BOTC,
    FACT_SHAPES,
    INPUT_RULE,
    REFUTATION_FACT,
    TOPC,
    FactStore,
    PreprocessError,
    Universes,
    prep,
)
from spel.rules import (RULES, RULES_BY_NAME, Var, apply_rule, pattern_vars,
                        unify)
from spel.saturation import (
    FactLimitExceeded,
    format_fact,
    is_refuted,
    polynomial_fact_bound,
    refutation_trace,
    saturate,
    stored_form,
)

from conftest import informative_closure
from genkb import TINY_PARAMS, generate_kb, scale_kb
from test_reference_fixpoint import ORDER_KBS, late_twins


def fresh_store(facts=(), **uni):
    store = FactStore(Universes(**uni) if uni else Universes())
    for f in facts:
        store.add(f)
    return store


def test_sharper_transitivity():
    store = fresh_store([("sharper", "H", "SN"), ("sharper", "SN", "M")])
    store.universes.standpoints |= {"H", "SN", "M"}
    out = saturate(store)
    assert ("sharper", "H", "M") in out


def test_apply_rule_examples():
    uni = Universes()
    c1 = apply_rule(
        "C.1",
        [
            ("gci_nested", "t", ("cn", "B"), "s", ("cn", "C"), ("cn", "D")),
            ("gci_nested", "t", ("cn", "B"), "s", ("cn", "D"), ("cn", "E")),
        ],
        uni,
    )
    assert c1 == [("gci_nested", "t", ("cn", "B"), "s", ("cn", "C"), ("cn", "E"))]

    l1 = apply_rule(
        "L.1",
        [("gci_nested", "u", ("nom", "a"), "s", TOPC, ("self", "R"))],
        uni,
    )
    assert l1 == [("role_assertion", "s", "R", "a", "a")]

    e2 = apply_rule(
        "E.2",
        [
            ("gci_ex_right", "s", ("cn", "C"), "R1", ("cn", "D")),
            ("gci_ex_right", "s", ("cn", "D"), "R2", ("cn", "E")),
            ("ria3", "s", "R1", "R2", "R3"),
        ],
        uni,
    )
    assert e2 == [("gci_ex_right", "s", ("cn", "C"), "R3", ("cn", "E"))]


def test_apply_rule_range_expansion():
    uni = Universes()
    uni.standpoints |= {"H", "L"}
    out = apply_rule("T.2", [], uni)
    assert set(out) == {("sharper", s, s) for s in ("H", "L", UNIVERSAL)}


def test_apply_rule_mismatch_raises():
    uni = Universes()
    with pytest.raises(ValueError):
        apply_rule("S.1", [("sharper", "A", "B")], uni)  # wrong arity
    with pytest.raises(ValueError):
        apply_rule("S.1", [("sharper", "A", "B"), ("sharper", "C", "D")], uni)


def test_refutation_by_assertion_clash():
    kb = make_kb([
        boxed("s", ConceptAssertion(Name("A"), "a")),
        boxed("s", GCI(Name("A"), BOT)),
    ])
    out = saturate(prep(kb))
    assert is_refuted(out)
    assert REFUTATION_FACT in out


def test_consistent_kb_not_refuted():
    kb = make_kb([boxed("s", GCI(Name("A"), Name("B")))])
    out = saturate(prep(kb))
    assert not is_refuted(out)


def test_example1_saturation(example1_store):
    assert not is_refuted(example1_store)
    assert ("gci_nested", UNIVERSAL, ("nom", "p1"), "H", TOPC, ("cn", "HighRisk")) in example1_store


def test_input_order_independence():
    """The closure a saturation stands for does not depend on the order of
    its input facts; which implicit facts it stores does."""
    for seed in range(10):
        store = prep(generate_kb(seed, TINY_PARAMS))
        shuffled = list(store.facts)
        random.Random(seed).shuffle(shuffled)
        closures = []
        for facts in (store.facts, store.facts[::-1], shuffled):
            reordered = FactStore(store.universes.copy())
            for fact in facts:
                reordered.add(fact)
            out = saturate(reordered, early_exit_on_refutation=False)
            closures.append(informative_closure(out.facts, out.universes))
        assert closures[0] == closures[1] == closures[2], \
            f"seed {seed} diverges"


def test_stored_form_reads_the_informative_closure():
    """A fact has a stored form exactly when it, or its copy with Bot for
    E, is in the informative closure (`conftest.informative_closure`), on
    the full closures of tiny seeds 0-9: probed with every fact of that
    set and with each stored gci_nested one with another concept for D."""
    for seed in range(10):
        out = saturate(prep(generate_kb(seed, TINY_PARAMS)),
                       early_exit_on_refutation=False)
        closure = informative_closure(out.facts, out.universes)
        concepts = sorted(out.universes.concepts, key=repr)
        probes = set(closure) | {
            f[:4] + (d,) + f[5:] for f in out.facts if f[0] == "gci_nested"
            for d in concepts}
        for fact in probes:
            held = fact in closure or fact[0] == "gci_nested" and (
                fact[:5] + (BOTC,) in closure)
            if fact[0] == "gci_nested" and (fact[4] == fact[5]
                                            or fact[5] == TOPC):
                continue  # a tautology: no stored form needed
            assert (stored_form(out, fact) is not None) == held, (seed, fact)


def test_input_fact_outside_the_universes_is_rejected():
    """The universes fix the fact space, and the polynomial bound with it:
    an input fact naming any other term, or a term of another kind, is an
    error that names the fact."""
    with pytest.raises(PreprocessError, match=r"sharper\(H, SN\)"):
        saturate(fresh_store([("sharper", "H", "SN")]))
    # a sharper fact with one standpoint in the universes and one outside
    # them, either way round
    with pytest.raises(PreprocessError, match=r"sharper\(H, \*\)"):
        saturate(fresh_store([("sharper", "H", UNIVERSAL)]))
    with pytest.raises(PreprocessError, match=r"sharper\(H, SN\)"):
        saturate(fresh_store([("sharper", "H", "SN")],
                             standpoints={"H", UNIVERSAL}))
    misplaced = ("gci_nested", "a", TOPC, UNIVERSAL, TOPC, ("cn", "A"))
    store = fresh_store([misplaced], individuals={"a"},
                        concepts={TOPC, BOTC, ("cn", "A"), ("nom", "a")})
    with pytest.raises(PreprocessError, match=re.escape(format_fact(misplaced))):
        saturate(store)
    store.universes.standpoints.add("a")
    assert not is_refuted(saturate(store))
    # so is a nominal in the universes whose individual is not in them
    store.universes.concepts.add(("nom", "b"))
    with pytest.raises(PreprocessError, match=r"\{b\}"):
        saturate(store)


def test_input_fact_of_an_unknown_shape_is_rejected():
    """A store's fact list is read as it is: a fact of an unknown shape put
    there without `add` is an error that names the fact."""
    store = fresh_store([("sharper", UNIVERSAL, UNIVERSAL)])
    store.facts.append(("meet", UNIVERSAL, UNIVERSAL))
    store.provenance.append((INPUT_RULE, ()))
    with pytest.raises(PreprocessError, match=r"meet\(\*, \*\)"):
        saturate(store)


def all_tautologies(universes):
    """Every implicit gci_nested tautology over the universes."""
    sps, concepts = universes.standpoints, universes.concepts
    return [("gci_nested", t, c, s, d, e)
            for t in sps for c in concepts for s in sps for d in concepts
            for e in (d, TOPC)]


def test_implicit_tautologies_match_explicit():
    for seed in range(10):
        store = prep(generate_kb(seed, TINY_PARAMS))
        tautologies = set(all_tautologies(store.universes))
        explicit = store.copy()
        for fact in sorted(tautologies, key=repr):
            explicit.add(fact)
        assert len(explicit) > len(store)
        runs = [saturate(s, early_exit_on_refutation=False)
                for s in (store, explicit)]
        assert is_refuted(runs[0]) == is_refuted(runs[1]), f"seed {seed}"
        informative = [informative_closure(run.facts, run.universes)
                       for run in runs]
        assert informative[0] == informative[1], f"seed {seed} diverges"


def test_polynomial_bound_holds(example1_store):
    assert len(example1_store) <= polynomial_fact_bound(example1_store.universes)
    for seed in range(5):
        out = saturate(prep(generate_kb(seed, TINY_PARAMS)), early_exit_on_refutation=False)
        assert len(out) <= polynomial_fact_bound(out.universes)


def test_polynomial_bound_counts_every_fact():
    uni = Universes(standpoints={UNIVERSAL, "S"}, roles={"R", "Q"},
                    individuals={"a", "b"},
                    concepts={TOPC, BOTC, ("cn", "A"), ("nom", "a")})
    S, R, I, C = uni.standpoints, uni.roles, uni.individuals, uni.concepts
    signatures = {
        "sharper": (S, S),
        "sharper_intersection": (S, S, S),
        "ria2": (S, R, R),
        "ria3": (S, R, R, R),
        "gci_nested": (S, C, S, C, C),
        "gci_dia_right": (S, C, S, C),
        "gci_ex_right": (S, C, R, C),
        "gci_ex_left": (S, R, C, C),
        "gci_con_left": (S, C, C, C),
        "role_assertion": (S, R, I, I),
    }
    facts = {(shape,) + args for shape, signature in signatures.items()
             for args in itertools.product(*signature)}
    assert polynomial_fact_bound(uni) == len(facts)


def test_fact_limit_exceeded(example1_kb, monkeypatch):
    with pytest.raises(FactLimitExceeded) as caller:
        saturate(prep(example1_kb), fact_limit=100)
    assert not caller.value.at_bound
    assert str(caller.value).endswith("the fact limit 100")
    # a caller limit above the bound leaves the bound in force
    monkeypatch.setattr(saturation, "polynomial_fact_bound", lambda u: 100)
    with pytest.raises(FactLimitExceeded) as breach:
        saturate(prep(example1_kb), fact_limit=10**9)
    assert breach.value.at_bound
    assert str(breach.value).endswith("the polynomial fact bound 100")


def test_threaded_runs_match_sequential(example1_kb):
    """Each run interns its terms, and keeps its seed sharpening order, in
    tables of its own, so saturations going on side by side give the
    stores of a sequential run. The KBs' orders differ: example1 has
    H, L <= SN, tiny KB 8 the chain _g17_0000 <= S1 <= S0, and the others
    at most one named standpoint below another."""
    stores = [prep(generate_kb(seed, TINY_PARAMS)) for seed in range(1, 9)]
    stores += [prep(example1_kb)]
    expected = [saturate(s, early_exit_on_refutation=False) for s in stores]
    results: dict = {}
    start = threading.Barrier(2)

    def work(order):
        start.wait()
        for k in order:
            results[k, order[0]] = saturate(stores[k],
                                            early_exit_on_refutation=False)

    n = len(stores)
    threads = [threading.Thread(target=work, args=(order,))
               for order in (range(n), range(n - 1, -1, -1))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often, inside the joins
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 2 * n
    for (k, _), out in results.items():
        assert out.facts == expected[k].facts
        assert out.provenance == expected[k].provenance


def test_every_derivation_replays():
    kb = make_kb([
        boxed("s", ConceptAssertion(Name("A"), "a")),
        boxed("s", GCI(Name("A"), Name("B"))),
        Sharpening(False, ("s",), UNIVERSAL),
    ])
    out = saturate(prep(kb), early_exit_on_refutation=False)
    for fid, (rule, premise_ids) in enumerate(out.provenance):
        if rule == INPUT_RULE:
            continue
        premises = [out.facts[p] for p in premise_ids]
        conclusions = apply_rule(rule, premises, out.universes)
        assert out.facts[fid] in conclusions, f"fact {fid} fails replay under {rule}"


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.tuples(st.integers(0, n), st.integers(0, n)), max_size=3 * n).map(
        lambda pairs: (n, pairs))))
def test_seed_order_is_reachability_with_cycles_unordered(graph):
    """On a random sharpening graph over `*` and n standpoints, cycles
    included, the up-set of s holds s and every standpoint u it reaches
    that does not reach s back (`*` above all others, and its own edges,
    which would put it on a cycle, not followed), and the meet of w and u
    holds the greatest of their common lower bounds, none when there is
    none."""
    n, pairs = graph
    star = saturation._STAR
    ids = [star] + [10 + k for k in range(n)]
    order = saturation._seed_order(ids, [("sharper", ids[a], ids[b])
                                         for a, b in pairs])
    reach = {s: {s, star} for s in ids}
    for _ in ids:
        for a, b in pairs:
            for s in ids:
                if ids[a] in reach[s] and ids[a] != star:
                    reach[s] |= reach[ids[b]] | {ids[b]}
    below = {(s, u) for s in ids for u in ids if s != u and s != star and (
        u == star or u in reach[s] and s not in reach[u])}
    for s in ids:
        assert order.up[s][0] == s
        assert set(order.up[s][1:]) == {u for u in ids if (s, u) in below}
    at_or_below = below | {(s, s) for s in ids}
    for w in ids:
        for u in ids:
            lower = {s for s in ids
                     if (s, w) in at_or_below and (s, u) in at_or_below}
            greatest = {s for s in lower
                        if not any((s, t) in below for t in lower)}
            got = order.meet[w].get(u, ())
            assert len(got) == len(set(got)) and set(got) == greatest, (w, u)


def reference_generalization(fact, up, stored):
    """A strict generalization of the interned `fact` in `stored`, or None,
    by probing every copy: Top or itself for its subject and D, and a
    standpoint of its up-set at each standpoint position. The (subject, D)
    pairs are probed as (Top, D), (C, D), (Top, Top), (C, Top)."""
    shape = fact[0]
    top = saturation._TOP
    if shape == "gci_nested":
        _, t, c, s, d, e = fact
        for c2, d2 in ((top, d), (c, d), (top, top), (c, top)):
            for t2 in up[t]:
                for s2 in up[s]:
                    if (shape, t2, c2, s2, d2, e) in stored and (
                            (t2, c2, s2, d2) != (t, c, s, d)):
                        return shape, t2, c2, s2, d2, e
    elif shape not in ("sharper", "sharper_intersection"):
        for u in up[fact[1]][1:]:
            if (shape, u) + fact[2:] in stored:
                return (shape, u) + fact[2:]
    return None


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_generalization_lookup_matches_probing(data):
    """On random interned stores of gci_nested, gci_con_left and ria2 facts
    over up to 5 standpoints, 4 concepts and 2 roles, with the seed order
    of a random sharpening graph, the run's lookup returns for every fact
    of that space, stored or not, what probing every copy returns: with
    Top or itself at the subject and at D, in the same order, and never
    the fact itself."""
    star, top, bot = saturation._STAR, saturation._TOP, saturation._BOT
    standpoints = [star] + [10 + k for k in range(data.draw(st.integers(
        0, 4)))]
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(standpoints),
                                         st.sampled_from(standpoints)),
                               max_size=3 * len(standpoints)))
    up = saturation._seed_order(standpoints, [
        ("sharper", a, b) for a, b in pairs]).up
    concepts, roles = [top, bot, 20, 21], [30, 31]
    space = [("gci_nested",) + f for f in itertools.product(
        standpoints, concepts, standpoints, concepts, concepts)]
    space += [("gci_con_left",) + f for f in itertools.product(
        standpoints, concepts, concepts, concepts)]
    space += [("ria2",) + f for f in itertools.product(standpoints, roles,
                                                      roles)]
    stored = dict.fromkeys(data.draw(st.lists(st.sampled_from(space),
                                              max_size=150)))
    general_of = saturation._generalization_lookup(up, stored)
    for fact in space:
        assert general_of(fact) == reference_generalization(
            fact, up, stored), fact


def seed_order(store):
    """Per standpoint, those at or above it in the reflexive-transitive
    closure of the input sharper facts of a saturated store, and `*`."""
    edges = {}
    for fid, fact in enumerate(store.facts):
        if fact[0] == "sharper" and store.provenance[fid][0] == INPUT_RULE:
            edges.setdefault(fact[1], set()).add(fact[2])
    up = {}
    for s in store.universes.standpoints:
        seen, stack = {s, UNIVERSAL}, [s]
        while stack:
            for u in edges.get(stack.pop(), ()):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        up[s] = seen
    return up


def test_every_derivation_replays_with_twin_premises(merged_kb):
    """Every provenance entry replays, including those of the implicit
    facts that saturation stores only as premises: a Top-twin derived by
    C.2 from a tautology and its stored Top-subject twin, a D-twin derived
    by C.1 from the tautology with Top for E and its copy with Top for D,
    and a sharpening twin derived by S.3 or S.4 from its stored copy at a
    standpoint u above its own in the seed order and sharper(s, u): the
    T.1 seed for u = `*`, an input fact or an S.1 chain of them for a
    named u. Each store holds a Top-twin and a D-twin."""
    stores = [saturate(prep(merged_kb), early_exit_on_refutation=False)]
    stores += [saturate(prep(generate_kb(seed, TINY_PARAMS)),
                        early_exit_on_refutation=False)
               for seed in (0, 6, 9, 10, 18)]
    twin_steps = []
    for out in stores:
        up = seed_order(out)
        steps = {"C.2": 0, "C.1": 0, "S.3": 0, "S.4": 0, "named": 0}
        for fid, (rule, premise_ids) in enumerate(out.provenance):
            if rule == INPUT_RULE:
                continue
            fact = out.facts[fid]
            premises = [out.facts[p] for p in premise_ids]
            assert fact in apply_rule(rule, premises, out.universes), \
                f"fact {fid} fails replay under {rule}"
            if fact[0] == "gci_nested" and (fact[5] == TOPC
                                            or fact[4] == fact[5]):
                continue  # a tautology's derivation
            steps["C.2"] += (rule == "C.2" and fact[2] != TOPC
                             and premises[1] == fact[:2] + (TOPC,) + fact[3:])
            steps["C.1"] += (rule == "C.1" and fact[4] != TOPC
                             and premises == [fact[:5] + (TOPC,),
                                              fact[:4] + (TOPC,) + fact[5:]])
            # the compiled joins never lift a fact along the seed order by
            # S.3 or S.4: the conclusion is implied
            for k, name in ((1, "S.3"), (3, "S.4")):
                if rule.split(":")[0] != name:
                    continue
                u = premises[1][2]
                if (u in up[fact[k]]
                        and u != fact[k] and premises == [
                            fact[:k] + (u,) + fact[k + 1:],
                            ("sharper", fact[k], u)]):
                    steps[name] += 1
                    steps["named"] += u != UNIVERSAL
        twin_steps.append(steps)
    assert all(steps["C.2"] for steps in twin_steps), twin_steps
    assert all(steps["C.1"] for steps in twin_steps), twin_steps
    assert sum(steps["S.3"] for steps in twin_steps), twin_steps
    assert sum(steps["S.4"] for steps in twin_steps), twin_steps
    assert sum(steps["named"] for steps in twin_steps), twin_steps


def test_every_derivation_replays_with_twins_at_meets(example1_kb,
                                                     queries_kb):
    """Every provenance entry replays in the full closures of two KBs with
    a standpoint below two unordered ones (a meet): Example 2's KB with
    the refuting statement of `H & L <= 0`, whose fresh standpoint lies
    below H and L, and the reference KB "two meets". Each holds a twin at
    a meet derived by S.3 or S.4 from its stored copy at a named
    standpoint above the meet, and every such twin is stored only as the
    premise of a later fact: no join concludes one."""
    query = queries_kb.statements[-1]
    kbs = [example1_kb.with_statements(
        [Sharpening(not query.negated, query.lhs, query.rhs)]),
        parse_kb(ORDER_KBS["two meets"])]
    for kb in kbs:
        out = saturate(prep(kb), early_exit_on_refutation=False)
        up = seed_order(out)
        meets = {s for s in up if any(
            a not in up[b] and b not in up[a]
            for a in up[s] - {s} for b in up[s] - {s})}
        assert meets
        lifted = []
        for fid, (rule, premise_ids) in enumerate(out.provenance):
            if rule == INPUT_RULE:
                continue
            fact = out.facts[fid]
            premises = [out.facts[p] for p in premise_ids]
            assert fact in apply_rule(rule, premises, out.universes), \
                f"fact {fid} fails replay under {rule}"
            k = 3 if rule == "S.4" else 1
            if (rule.split(":")[0] in ("S.3", "S.4") and fact[k] in meets
                    and premises[1][2] not in (fact[k], UNIVERSAL)
                    and premises[0] == fact[:k] + (premises[1][2],)
                    + fact[k + 1:]):
                lifted.append(fid)
        used = {p for _, premise_ids in out.provenance for p in premise_ids}
        assert lifted and used.issuperset(lifted), kb


@pytest.mark.parametrize("seed", range(5))
def test_scale_kb_closure_is_bounded_and_replays(seed):
    """The full closures of 40-statement KBs (`SCALE_PARAMS`: 32-66
    standpoints with the witness ones, larger than any fixture) stay
    within the polynomial fact bound, every provenance entry replays
    through `apply_rule`, and no twin of an earlier fact is stored except
    as a premise."""
    out = saturate(prep(scale_kb(seed)), early_exit_on_refutation=False)
    assert len(out) <= polynomial_fact_bound(out.universes)
    for fid, (rule, premise_ids) in enumerate(out.provenance):
        if rule == INPUT_RULE:
            continue
        premises = [out.facts[p] for p in premise_ids]
        assert out.facts[fid] in apply_rule(rule, premises, out.universes), \
            f"fact {fid} fails replay under {rule}"
    assert late_twins(out) == []


def test_popped_fact_with_stored_twin_is_not_joined(monkeypatch, example1_kb):
    """The walk over the fact list joins no premise-only fact. A fact with
    a stored strict generalization when the walk reached it is skipped: a
    gci_nested fact whose copy with a Top subject or D, or with a
    standpoint above its own in the run's seed sharpening order (at the
    outer standpoint, the inner one or both, with or without a Top subject
    or D), is stored, or a fact of another shape S.3 lifts whose copy at a
    standpoint above is. So is every tautology (D = E or E = Top), which saturation
    stores only as the premise of a stored fact. Each join is wrapped; the
    generalization check runs on the first join of each fact reached, as
    it was reached, over the up-sets the run gives its joins, and the
    tautology check on every join."""
    joins = saturation._joins
    top = saturation._TOP
    wrapped, first_calls, late, tautologies, lifts = {}, set(), [], [], []

    def generalizations(fact, up):
        spots = {"gci_nested": ((1, None), (2, top), (3, None), (4, top)),
                 "sharper": (), "sharper_intersection": ()}.get(
                     fact[0], ((1, None),))
        choices = [[term] for term in fact]
        for k, const in spots:
            choices[k] = list(up[fact[k]]) if const is None else [
                fact[k], const]
        return [g for g in itertools.product(*choices) if g != fact]

    def watch(make):
        def watched_make(index, fact_ids, ranges, emit, **maps):
            fn = make(index, fact_ids, ranges, emit, **maps)
            up = maps["UP"]

            def watched(fact, fid):
                if fact is not None and fid not in first_calls:
                    first_calls.add(fid)
                    lifts.append(len(generalizations(fact, up)))
                    if any(g in fact_ids
                           for g in generalizations(fact, up)):
                        late.append(fact)
                if (fact is not None and fact[0] == "gci_nested"
                        and (fact[4] == fact[5] or fact[5] == top)):
                    tautologies.append(fact)
                fn(fact, fid)
            return watched
        return wrapped.setdefault(make, watched_make)

    monkeypatch.setattr(saturation, "_joins", lambda kind: tuple(
        watch(make) for make in joins(kind)))
    out = saturate(prep(example1_kb), early_exit_on_refutation=False)
    assert not is_refuted(out) and first_calls
    assert late == []
    assert tautologies == []
    # some fact reached has a generalization at a named standpoint: more
    # than the copies with Top and `*` (at most 15)
    assert max(lifts) > 15
    # the run stores premise-only tautologies, `*`-twins and twins below a
    # named standpoint, so the walk did reach some
    up = seed_order(out)
    assert any(f[0] == "gci_nested" and (f[4] == f[5] or f[5] == TOPC)
               for f in out.facts)
    assert any(f[0] == "gci_nested" and f[5] != TOPC and f[4] != f[5]
               and f[1] != UNIVERSAL
               and f[:1] + (UNIVERSAL,) + f[2:] in out.fact_ids
               for f in out.facts)
    assert any(f[0] == "gci_nested" and f[5] != TOPC and f[4] != f[5]
               and any(f[:1] + (u,) + f[2:] in out.fact_ids
                       for u in up[f[1]] - {f[1], UNIVERSAL})
               for f in out.facts)


def test_join_variants_stay_few():
    """The planner makes at most 118 join variants: those it plans for the
    facts reached of every shape, and the joins whose premises are all
    implicit tautologies. A standpoint above a premise's is matched by the
    compiled lookups at run time, not by variants of its own, and a twin
    variant whose conclusions others give is not planned (ten are)."""
    planned = {(rule, plan) for shape in FACT_SHAPES
               for joins in saturation._dispatch(shape).values()
               for rule, plan in joins}
    assert len(planned) + len(saturation._joins(None)) <= 118


def test_dispatch_lists_the_variants_each_key_admits():
    """For every shape and key, `_dispatch` lists exactly the planned
    variants, in rule order, whose reached premise admits the key: some
    fact it matches, with no twin's variable bound to Top, has the
    key's Top subject, Top at D and Bot at E (gci_nested), or any fact
    (the others, key ()). Together the keys list each variant planned
    from a premise of the shape. Each fact tried has a concept of every
    sort at those three positions and `*` or a named standpoint at the
    others."""
    values = [TOPC, BOTC, ("cn", "A"), ("nom", "a"), ("self", "r")]
    nested = [("gci_nested", t, c, s, d, e) for t in (UNIVERSAL, "S")
              for c in values for s in (UNIVERSAL, "S") for d in values
              for e in values]
    keys = list(itertools.product((False, True), repeat=3))
    for shape in FACT_SHAPES:
        dispatch = saturation._dispatch(shape)
        variants = {v for joins in dispatch.values() for v in joins}
        for key in keys if shape == "gci_nested" else [()]:
            admitted = set()
            for rule, plan in variants:
                if shape != "gci_nested":
                    admitted.add((rule, plan))
                    continue
                i = plan.start
                pat = list(plan.premises[i])
                for j, k in plan.twins:
                    if j == i:
                        pat[k] = TOPC
                pat = tuple(pat)
                not_top = {plan.premises[j][k].name for j, k in plan.twins
                           if isinstance(plan.premises[j][k], Var)}
                for fact in nested:
                    subst = unify(pat, fact, {})
                    if subst is not None and (
                            fact[2] == TOPC, fact[4] == TOPC,
                            fact[5] == BOTC) == key and all(
                                subst.get(v) != TOPC for v in not_top):
                        admitted.add((rule, plan))
                        break
            listed = dispatch.get(key, [])
            assert len(set(listed)) == len(listed)
            assert set(listed) == admitted, (shape, key)
            order = [RULES.index(rule) for rule, _ in listed]
            assert order == sorted(order), (shape, key)
        planned = set()
        for rule in RULES:
            for i, pat in enumerate(rule.premises):
                for families, twins in (saturation._modes(rule, i)
                                        if pat[0] == shape else ()):
                    plan = saturation._join_plan(rule, i, families, twins)
                    if plan is not None:
                        planned.add((rule, plan))
        assert variants == planned, shape


def test_joins_look_up_small_tables_first():
    """Every planned variant looks up its stored premises after the reached
    one with those not gci_nested first, in rule order otherwise: the
    gci_con_left, ria and role_assertion tables are small, the gci_nested
    ones large. E.4 from its gci_nested premise is one variant so
    reordered."""
    reordered = set()
    for shape in (None, *FACT_SHAPES):
        for joins in saturation._dispatch(shape).values():
            for rule, plan in joins:
                stored = set(range(len(plan.premises))) - set(
                    plan.implicit) - {plan.start}
                assert set(plan.order) == stored
                assert list(plan.order) == sorted(plan.order, key=lambda j: (
                    plan.premises[j][0] == "gci_nested", j)), rule.name
                if list(plan.order) != sorted(plan.order):
                    reordered.add(rule.name)
    assert "E.4" in reordered, reordered


def test_generated_premises_take_one_value_the_conclusion_does_not_read(
        monkeypatch):
    """E.4 entered from gci_con_left(s, Top, c1, d), with both gci_nested
    premises implicit tautologies, concludes box_t[b sub box_s[c1 => d]]
    for every t and b. Only the instance with `*` and Top is needed, the
    others being its specializations, so the loops over the tautologies'
    free variables run once and each run of the join makes at most one
    generalization lookup, however many standpoints and concepts the KB
    has. (They ran over every t and b, which appear in the second
    premise: 32 lookups in 8 runs here.)"""
    targets = {saturation._compile_join(rule, plan)
               for joins in saturation._dispatch("gci_con_left").values()
               for rule, plan in joins
               if rule.name == "E.4" and set(plan.implicit) == {0, 1}}
    assert targets
    joins = saturation._joins
    wrapped, runs, lookups = {}, [], []

    def watch(make):
        def watched_make(index, fact_ids, ranges, emit, **maps):
            general = maps["GENERAL"]

            def counted(fact):
                lookups.append(fact)
                return general(fact)
            fn = make(index, fact_ids, ranges, emit,
                      **{**maps, "GENERAL": counted})

            def watched(fact, fid):
                runs.append(fact)
                fn(fact, fid)
            return watched
        return wrapped.setdefault(make, watched_make)

    monkeypatch.setattr(saturation, "_joins", lambda kind: tuple(
        watch(make) if make in targets else make for make in joins(kind)))
    kb = parse_kb("standpoint S0; standpoint S1; standpoint S2; concept A;"
                  "concept B; concept C; concept D; role R; S1 <= S0;"
                  "box S0 { ex R . (Top and A) sub B; C sub D; }"
                  "box S2 { D sub A; } box * { B sub C; }")
    saturate(prep(kb), early_exit_on_refutation=False)
    assert runs and lookups
    assert len(lookups) <= len(runs)


def test_refutation_trace_replayable():
    kb = make_kb([boxed(UNIVERSAL, GCI(TOP, BOT))])
    out = saturate(prep(kb))
    trace = refutation_trace(out)
    assert trace is not None
    assert format_fact(REFUTATION_FACT) in trace[-1]


def test_no_trace_when_satisfiable(example1_store):
    assert refutation_trace(example1_store) is None


def test_rule_table_well_formed():
    """Every pattern fits its fact shape, and each variable of a rule
    ranges over one universe."""
    assert len(RULES) == len(RULES_BY_NAME)
    for rule in RULES:
        kinds = dict(rule.ranges)
        for pattern in rule.premises + (rule.conclusion,):
            assert len(pattern) == 1 + len(FACT_SHAPES[pattern[0]]), rule.name
            for var, kind in pattern_vars(pattern):
                assert kinds.setdefault(var, kind) == kind, (rule.name, var)
