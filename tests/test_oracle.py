"""Tests for the bounded model finder and exact model evaluation."""

import random
from itertools import product

import pytest

from spel.model import (
    BOT,
    BOX,
    DIA,
    TOP,
    UNIVERSAL,
    GCI,
    Conj,
    ConceptAssertion,
    Exists,
    Literal,
    Modal,
    ModalFormula,
    Name,
    Nominal,
    RIA,
    RoleAssertion,
    SelfLoop,
    Sharpening,
    boxed,
    is_normal_form,
    make_kb,
)
from spel.oracle import (
    INCONCLUSIVE,
    NONE_WITHIN_BOUNDS,
    StandpointStructure,
    eval_concept,
    eval_statement,
    find_model,
    find_model_facts,
)
from spel.normalize import normalize
from spel.preprocess import FACT_SHAPES, prep, statement_to_fact

from genkb import TINY_PARAMS, generate_kb


def structure_ab():
    """Two elements, two precisifications; A and R vary between them."""
    return StandpointStructure(
        domain=(0, 1),
        precisifications=(0, 1),
        sigma={UNIVERSAL: frozenset({0, 1}), "s": frozenset({0, 1}),
               "t": frozenset({0})},
        concept_ext={
            (0, "A"): frozenset({0}), (1, "A"): frozenset({0, 1}),
            (0, "B"): frozenset({1}), (1, "B"): frozenset(),
        },
        role_ext={
            (0, "R"): frozenset({(0, 1)}),
            (1, "R"): frozenset({(0, 0), (0, 1)}),
        },
        individuals={"a": 0, "b": 1},
    )


def test_eval_concept_basics():
    m = structure_ab()
    assert eval_concept(m, 0, TOP) == frozenset({0, 1})
    assert eval_concept(m, 0, BOT) == frozenset()
    assert eval_concept(m, 0, Name("A")) == frozenset({0})
    assert eval_concept(m, 0, Conj(Name("A"), Name("B"))) == (
        eval_concept(m, 0, Name("A")) & eval_concept(m, 0, Name("B"))
    )
    assert eval_concept(m, 0, Exists("R", Name("B"))) == frozenset({0})
    assert eval_concept(m, 0, SelfLoop("R")) == frozenset()
    assert eval_concept(m, 1, SelfLoop("R")) == frozenset({0})


def test_eval_modal_concepts():
    m = structure_ab()
    # box_s A = intersection of A over sigma(s); dia_s A = union
    assert eval_concept(m, 0, Modal(BOX, "s", Name("A"))) == frozenset({0})
    assert eval_concept(m, 0, Modal(DIA, "s", Name("A"))) == frozenset({0, 1})
    # sigma(t) = {0} only, so both modalities collapse to A at 0
    assert eval_concept(m, 1, Modal(BOX, "t", Name("A"))) == frozenset({0})
    assert eval_concept(m, 1, Modal(DIA, "t", Name("A"))) == frozenset({0})


def test_eval_statements():
    m = structure_ab()
    assert eval_statement(m, boxed(UNIVERSAL, GCI(TOP, TOP)))
    assert eval_statement(m, boxed("t", ConceptAssertion(Name("A"), "a")))
    assert not eval_statement(m, boxed("s", ConceptAssertion(Name("A"), "b")))
    assert eval_statement(m, Sharpening(False, ("t",), "s"))
    assert not eval_statement(m, Sharpening(False, ("s",), "t"))
    assert eval_statement(m, ModalFormula(DIA, "s", (
        Literal(False, ConceptAssertion(Name("A"), "b")),
    )))


def test_eval_rejects_unknown_names():
    m = structure_ab()
    with pytest.raises(ValueError):
        eval_statement(m, boxed("s", ConceptAssertion(Name("NoSuch"), "a")))


def test_find_minimal_model():
    kb = make_kb([boxed("s", ConceptAssertion(Name("A"), "a"))])
    m = find_model(kb, 1, 1)
    assert isinstance(m, StandpointStructure)
    assert m.domain == (0,) and m.precisifications == (0,)
    assert eval_statement(m, kb.statements[0])


def test_unsatisfiable_has_no_bounded_model():
    kb = make_kb([boxed(UNIVERSAL, GCI(TOP, BOT))])
    assert find_model(kb, 2, 2) is NONE_WITHIN_BOUNDS


def test_diamond_disagreement_needs_two_precisifications():
    lit_a = Literal(False, ConceptAssertion(Name("A"), "a"))
    lit_not_a = Literal(True, ConceptAssertion(Name("A"), "a"))
    kb = make_kb([
        ModalFormula(DIA, "s", (lit_a,)),
        ModalFormula(DIA, "s", (lit_not_a,)),
    ])
    assert find_model(kb, 1, 1) is NONE_WITHIN_BOUNDS
    m = find_model(kb, 1, 2)
    assert isinstance(m, StandpointStructure)
    assert len(m.precisifications) == 2


def test_found_models_satisfy_everything():
    for seed in range(8):
        kb = generate_kb(seed, TINY_PARAMS)
        m = find_model(kb, 3, 3, step_budget=10**6)
        if isinstance(m, StandpointStructure):
            assert all(eval_statement(m, st) for st in kb.statements)


def test_find_model_facts_agrees():
    kb = make_kb([boxed("s", ConceptAssertion(Name("A"), "a"))])
    m = find_model_facts(prep(kb), 2, 2)
    assert isinstance(m, StandpointStructure)


def test_bounds_validation():
    kb = make_kb([])
    with pytest.raises(ValueError):
        find_model(kb, 0, 1)
    with pytest.raises(ValueError):
        find_model(kb, 1, 0)


def test_budget_exhaustion_is_inconclusive():
    kb = generate_kb(12, TINY_PARAMS)
    assert find_model(kb, 3, 3, step_budget=1) is INCONCLUSIVE


def test_exact_evaluation_handles_tautologies_quickly():
    # role and concept tautologies used to stall the three-valued bounds
    import time

    kb = make_kb([
        ModalFormula(DIA, "S1", (Literal(False, RIA(("R0",), "R0")),)),
        ModalFormula(DIA, "S2", (Literal(False, GCI(Conj(Name("C0"), Name("C0")), Name("C0"))),)),
    ])
    t0 = time.monotonic()
    m = find_model(kb, 3, 3, step_budget=10**6)
    assert isinstance(m, StandpointStructure)
    assert time.monotonic() - t0 < 5.0


def random_structure(rng, vocab):
    """A structure over two elements and two precisifications that
    interprets every name of `vocab` at random."""
    domain = precs = (0, 1)
    pairs = list(product(domain, domain))

    def some(items, nonempty=False):
        while True:
            out = frozenset(x for x in items if rng.random() < 0.5)
            if out or not nonempty:
                return out

    sigma = {s: some(precs, nonempty=True) for s in vocab.standpoint_names}
    sigma[UNIVERSAL] = frozenset(precs)
    return StandpointStructure(
        domain, precs, sigma,
        {(pi, c): some(domain) for pi in precs for c in vocab.concept_names},
        {(pi, r): some(pairs) for pi in precs for r in vocab.role_names},
        {a: rng.choice(domain) for a in vocab.individual_names})


def test_fact_reading_agrees_with_the_encoding(example1_kb):
    """The oracle reads an engine fact on its own, without `preprocess`'s
    encoder; the fact of each normal-form statement must have the truth of
    the statement. Checked in found models of normalized tiny KBs, and in
    random structures for those, for normalized example1 and for a KB with
    a statement of each shape, so that both truth values occur for every
    fact shape."""
    rng = random.Random(7)
    # one statement of each shape over two roles, which the tiny KBs lack
    mixed = make_kb([
        Sharpening(False, ("s",), "t"),
        Sharpening(False, ("s", "t"), "u"),
        boxed("s", RIA(("R",), "Q")),
        boxed("s", RIA(("R", "Q"), "R")),
        boxed("s", RoleAssertion("R", "a", "b")),
        boxed("s", ConceptAssertion(Name("A"), "a")),
        boxed("s", GCI(Name("A"), Exists("R", Name("B")))),
        boxed("s", GCI(Exists("Q", Name("A")), SelfLoop("R"))),
        boxed("s", GCI(Conj(Name("A"), SelfLoop("R")), BOT)),
        boxed("t", GCI(Nominal("a"), Modal(DIA, "s", Name("B")))),
        boxed("t", GCI(TOP, Modal(BOX, "s", Name("B")))),
        boxed("u", GCI(Name("A"), Name("B"))),
    ])
    assert is_normal_form(mixed)
    kbs = [mixed] * 16 + [normalize(example1_kb)] * 4
    cases = []
    for seed in range(30):
        kb = normalize(generate_kb(seed, TINY_PARAMS))
        kbs += [kb] * 4
        m = find_model(kb, 3, 3, step_budget=10**4)
        if isinstance(m, StandpointStructure):
            cases.append((m, kb))
    cases += [(random_structure(rng, kb.vocabulary), kb) for kb in kbs]
    seen = set()
    for m, kb in cases:
        for st in kb.statements:
            fact = statement_to_fact(st)
            truth = eval_statement(m, st)
            assert eval_statement(m, fact) == truth, (st, fact)
            seen.add((fact[0], truth))
    assert seen == {(shape, truth) for shape in FACT_SHAPES
                    for truth in (False, True)}
