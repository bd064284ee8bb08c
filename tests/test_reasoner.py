"""Tests for satisfiability checking and the entailment reductions."""

import pytest

from spel.model import (
    BOT,
    BOX,
    DIA,
    TOP,
    UNIVERSAL,
    GCI,
    ConceptAssertion,
    Literal,
    ModalFormula,
    Name,
    Sharpening,
    boxed,
    make_kb,
)
from spel.parser import parse_kb
from spel.preprocess import (INPUT_RULE, REFUTATION_FACT, TOPC,
                             statement_to_fact)
from spel.reasoner import (
    CLOSURE,
    ENTAILED,
    NOT_ENTAILED,
    REFUTATION,
    SAT,
    UNSAT,
    NegatedFormula,
    check_sat,
    entails,
    query_closure,
)
from spel.rules import apply_rule

from genkb import TINY_PARAMS, generate_kb


def lit(ax, negated=False):
    return Literal(negated, ax)


def test_check_sat_simple():
    assert check_sat(make_kb([boxed("s", GCI(Name("A"), Name("B")))])).verdict == SAT
    assert check_sat(make_kb([boxed(UNIVERSAL, GCI(TOP, BOT))])).verdict == UNSAT
    assert check_sat(make_kb([])).verdict == SAT


def test_check_sat_trace():
    res = check_sat(make_kb([boxed(UNIVERSAL, GCI(TOP, BOT))]), trace=True)
    assert res.verdict == UNSAT
    assert res.refutation_trace


def test_entails_positive_sharpening():
    kb = make_kb([Sharpening(False, ("H",), "M"), Sharpening(False, ("M",), "L")])
    assert entails(kb, Sharpening(False, ("H",), "L")).verdict == ENTAILED
    assert entails(kb, Sharpening(False, ("L",), "H")).verdict == NOT_ENTAILED


def test_entails_box_literal():
    kb = make_kb([
        boxed("s", GCI(Name("A"), Name("B"))),
        boxed("s", GCI(Name("B"), Name("C"))),
    ])
    q = boxed("s", GCI(Name("A"), Name("C")))
    assert entails(kb, q).verdict == ENTAILED
    assert entails(kb, boxed("s", GCI(Name("C"), Name("A")))).verdict == NOT_ENTAILED


def test_entails_box_monomial_split():
    kb = make_kb([
        boxed("s", GCI(Name("A"), Name("B"))),
        boxed("s", ConceptAssertion(Name("A"), "a")),
    ])
    q = ModalFormula(BOX, "s", (
        lit(GCI(Name("A"), Name("B"))),
        lit(ConceptAssertion(Name("B"), "a")),
    ))
    res = entails(kb, q)
    assert res.verdict == ENTAILED
    assert len(res.subchecks) == 2  # one refutation per conjunct


def test_not_entailed_assertion():
    kb = make_kb([boxed("s", ConceptAssertion(Name("A"), "a"))])
    assert entails(kb, boxed("s", ConceptAssertion(Name("B"), "a"))).verdict == NOT_ENTAILED


def test_entails_diamond_single_literal():
    kb = make_kb([boxed("s", ConceptAssertion(Name("A"), "a"))])
    q = ModalFormula(DIA, "s", (lit(ConceptAssertion(Name("A"), "a")),))
    assert entails(kb, q).verdict == ENTAILED


def test_entails_diamond_monomial_with_witness():
    kb = make_kb([
        ModalFormula(DIA, "s", (
            lit(ConceptAssertion(Name("A"), "a")),
            lit(ConceptAssertion(Name("B"), "a")),
        )),
    ])
    q = ModalFormula(DIA, "s", (
        lit(ConceptAssertion(Name("A"), "a")),
        lit(ConceptAssertion(Name("B"), "a")),
    ))
    res = entails(kb, q)
    assert res.verdict == ENTAILED
    assert res.witness_standpoint is not None


def test_entails_negated_formula():
    kb = make_kb([boxed(UNIVERSAL, ConceptAssertion(Name("A"), "a"))])
    q = NegatedFormula(
        ModalFormula(BOX, UNIVERSAL, (lit(ConceptAssertion(Name("A"), "a"), negated=True),))
    )
    assert entails(kb, q).verdict == ENTAILED


def test_unsat_kb_entails_everything():
    kb = make_kb([
        boxed(UNIVERSAL, GCI(TOP, BOT)),
        boxed("s", ConceptAssertion(Name("A"), "a")),
    ])
    assert check_sat(kb).verdict == UNSAT
    for q in (
        boxed("s", ConceptAssertion(Name("B"), "a")),
        Sharpening(False, ("s",), UNIVERSAL),
        ModalFormula(DIA, "s", (lit(GCI(Name("B"), BOT)),)),
    ):
        assert entails(kb, q).verdict == ENTAILED


def test_adding_entailed_statement_preserves_sat():
    kb = make_kb([
        boxed("s", GCI(Name("A"), Name("B"))),
        boxed("s", ConceptAssertion(Name("A"), "a")),
    ])
    q = boxed("s", ConceptAssertion(Name("B"), "a"))
    assert entails(kb, q).verdict == ENTAILED
    assert check_sat(kb.with_statements([q])).verdict == SAT


def test_subchecks_recorded():
    kb = make_kb([boxed("s", GCI(Name("A"), Name("B")))])
    res = entails(kb, boxed("s", GCI(Name("A"), Name("B"))))
    assert res.subchecks
    for desc, sub in res.subchecks:
        assert isinstance(desc, str)
        assert sub.verdict in (SAT, UNSAT)


#: a statement whose axiom has a modal filler, with the diamond of its
#: negation: each pair is unsatisfiable, since no precisification of S can
#: both hold and break the axiom
MODAL_FILLER_CLASHES = [
    "standpoint S0; concept C0; concept C1; "
    "box S0 { dia S0 (C1 and C0) sub C0; } "
    "dia S0 { not (dia S0 (C1 and C0) sub C0); }",
    "box S1 { box S1 ex R0 . C1 sub ex R0 . C0; } "
    "dia S1 { not (box S1 ex R0 . C1 sub ex R0 . C0); }",
]


@pytest.mark.parametrize("text", MODAL_FILLER_CLASHES,
                         ids=["dia-filler", "box-filler"])
def test_statement_clashes_with_its_negated_diamond(text):
    assert check_sat(parse_kb(text)).verdict == UNSAT


@pytest.mark.parametrize("seed", [27, 88])
def test_tiny_kbs_with_a_modal_filler_clash_are_unsat(seed):
    """Tiny KBs 27 and 88 have no model (the bounded oracle finds none);
    each holds a statement with a modal filler whose negation clashes with
    it only when the filler's fresh name holds in every precisification."""
    assert check_sat(generate_kb(seed, TINY_PARAMS)).verdict == UNSAT


def _self_cases():
    for seed in range(60):
        for n in range(len(generate_kb(seed, TINY_PARAMS).statements)):
            yield pytest.param(seed, n, id=f"{seed}-{n}")


@pytest.mark.parametrize("seed, n", _self_cases())
def test_tiny_kb_entails_its_own_statements(seed, n):
    """A KB entails each of its statements: a satisfiable one by the
    reduction's soundness and completeness, an unsatisfiable one
    vacuously."""
    kb = generate_kb(seed, TINY_PARAMS)
    assert entails(kb, kb.statements[n]).verdict == ENTAILED


def test_closure_answers_example2_with_replayable_proofs(example1_kb,
                                                         queries_kb):
    """Five Example 2 queries are read off one closure of example1 plus the
    queries' definitions; the facts each rests on, stored targets or
    their stored generalizations, replay through `apply_rule` down to the
    input facts. `H & L <= 0` is left to refutation, a fork of the
    closure's run. The closure keeps its store until that last query is
    answered, then releases it and keeps its fact count."""
    queries = queries_kb.statements
    closure = query_closure(example1_kb, queries)
    answered, store = {}, None
    for query in queries[:5]:
        support = closure.support(query)
        closure.answered()
        store = closure.store
        answered[query] = support[1]
    assert closure.support(queries[5]) is None and closure.store is store
    res = entails(example1_kb, queries[5], closure=closure)
    assert (res.verdict, res.decided_by, len(res.subchecks)) == (
        ENTAILED, REFUTATION, 1)
    assert closure.store is None and closure.fact_count == len(store)
    through_copy = 0
    for query, facts in answered.items():
        assert len(facts) == 1
        target = statement_to_fact(closure.forms[query])
        copy = target[:3] + ("SN",) + target[4:]
        # a stored generalization, or the target stored only as the
        # premise of a later fact, by S.4 from that generalization
        through_copy += facts == [copy] or copy in store and (
            facts == [target] and store.provenance[store.fact_ids[target]]
            == ("S.4", (store.fact_ids[copy],
                        store.fact_ids["sharper", target[3], "SN"])))
        todo = [store.fact_ids[f] for f in facts]
        seen = set()
        while todo:
            fid = todo.pop()
            if fid in seen:
                continue
            seen.add(fid)
            rule, premise_ids = store.provenance[fid]
            if rule != INPUT_RULE:
                premises = [store.facts[p] for p in premise_ids]
                assert store.facts[fid] in apply_rule(rule, premises,
                                                      store.universes)
                todo.extend(premise_ids)
    # Patient(p1) holds under H only through its copy under SN
    assert through_copy >= 1
    assert closure.support(queries[5]) is None


def test_unsat_kb_answers_its_queries_from_the_refuted_closure():
    kb = make_kb([
        boxed(UNIVERSAL, GCI(TOP, BOT)),
        boxed("s", ConceptAssertion(Name("A"), "a")),
    ])
    queries = [boxed("s", ConceptAssertion(Name("B"), "a")),
               boxed("s", GCI(Name("A"), Name("B")))]
    closure = query_closure(kb, queries)
    for query in queries:
        res = entails(kb, query, closure=closure)
        assert (res.verdict, res.decided_by, res.subchecks) == (
            ENTAILED, CLOSURE, [])
    # the store is released, and the closure still answers as refuted
    assert closure.store is None and closure.refuted
    assert closure.support(queries[0]) == (None, [REFUTATION_FACT])


def test_closure_reports_the_witness_of_a_diamond_monomial():
    """dia_s over two assertions holds through the standpoint u below s
    whose box holds both; the closure names u as the witness. Without
    u <= s, u witnesses nothing, and the query is not entailed."""
    boxed_u = ModalFormula(BOX, "u", (lit(ConceptAssertion(Name("A"), "a")),
                                      lit(ConceptAssertion(Name("B"), "a"))))
    monomial = ModalFormula(DIA, "s", boxed_u.literals)
    queries = [monomial, boxed("u", ConceptAssertion(Name("A"), "a"))]
    kb = make_kb([Sharpening(False, ("u",), "s"), boxed_u])
    res = entails(kb, monomial, closure=query_closure(kb, queries))
    assert (res.verdict, res.decided_by, res.witness_standpoint) == (
        ENTAILED, CLOSURE, "u")
    assert entails(kb, monomial).verdict == ENTAILED
    kb = make_kb([boxed_u], declared=kb.vocabulary)
    res = entails(kb, monomial, closure=query_closure(kb, queries))
    assert (res.verdict, res.decided_by) == (NOT_ENTAILED, REFUTATION)


def test_closure_reads_complex_concepts_on_either_side():
    """Complex concepts on the left and the right of a GCI, and in an
    assertion, are read through their definitions: each query is decided
    by the closure."""
    kb = parse_kb("box s { A sub B; ex r . B sub C; C sub ex q . D; A(a); "
                  "r(a, b); }")
    queries = parse_kb("box s { ex r . A sub C; } "
                       "box s { A and C sub ex q . (D and Top); } "
                       "box s { (ex r . Top)(a); }").statements
    closure = query_closure(kb, queries)
    for query in queries:
        res = entails(kb, query, closure=closure)
        assert (res.verdict, res.decided_by) == (ENTAILED, CLOSURE), query


def test_closure_holds_gcis_through_a_copy_with_top_for_d():
    """`box s { Top sub B; }` is stored with Top for D, and stands for the
    GCIs with B on the right at s and below it, which saturation leaves
    implicit: GCI queries held only through it are decided by the
    closure, which names that fact as their support."""
    kb = parse_kb("standpoint u; u <= s; box s { Top sub B; } "
                  "box s { A sub C; } box u { C sub D; }")
    queries = parse_kb("box s { A sub B; } box u { C sub B; }").statements
    closure = query_closure(kb, queries)
    general = ("gci_nested", UNIVERSAL, TOPC, "s", TOPC, ("cn", "B"))
    for query in queries:
        assert closure.support(query) == (None, [general]), query
    closure = query_closure(kb, queries)
    for query in queries:
        res = entails(kb, query, closure=closure)
        assert (res.verdict, res.decided_by) == (ENTAILED, CLOSURE), query


def test_closure_needs_two_queries():
    """One query shares nothing. Two share one base, even when only one is
    the closure's: the other is refuted from a fork of it."""
    kb = make_kb([boxed("s", ConceptAssertion(Name("A"), "a"))])
    own = boxed("s", ConceptAssertion(Name("A"), "a"))
    negated = ModalFormula(BOX, "s", (lit(ConceptAssertion(Name("B"), "a"),
                                          negated=True),))
    assert query_closure(kb, [own]) is None
    closure = query_closure(kb, [own, negated])
    assert list(closure.forms) == [own]
    results = [entails(kb, query, closure=closure) for query in (own, negated)]
    assert [(r.verdict, r.decided_by) for r in results] == [
        (ENTAILED, CLOSURE), (NOT_ENTAILED, REFUTATION)]
    assert closure.store is None and closure.fact_count > 0


#: `box * { Top sub Zq; }`, over a concept no generated KB uses
FRESH_QUERY = boxed(UNIVERSAL, GCI(TOP, Name("Zq")))


def test_shared_closure_agrees_with_each_query_alone():
    """Differential: over tiny seeds 0-59, each KB against its own
    statements, those of seed + 1000 and a fresh-name query, answering
    with one shared closure, from what it holds or from forks of its run,
    gives each query the verdict it gets alone, from forks of a base of
    the KB alone."""
    decided = total = 0
    for seed in range(60):
        kb = generate_kb(seed, TINY_PARAMS)
        queries = tuple(dict.fromkeys(
            kb.statements + generate_kb(seed + 1000, TINY_PARAMS).statements
            + (FRESH_QUERY,)))
        closure = query_closure(kb, queries)
        for query in queries:
            shared = entails(kb, query, closure=closure)
            alone = entails(kb, query)
            assert alone.verdict == shared.verdict, (seed, query)
            total += 1
            if shared.decided_by == CLOSURE:
                decided += 1
                assert shared.verdict == ENTAILED, (seed, query)
    assert total >= 300
    assert 3 * decided >= total, (decided, total)
