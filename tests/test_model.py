"""Tests for the knowledge-base data model and the size / normal-form metrics."""

import pytest

from spel.model import (
    BOT,
    BOX,
    DIA,
    EMPTY,
    TOP,
    UNIVERSAL,
    GCI,
    RIA,
    Conj,
    ConceptAssertion,
    Exists,
    KnowledgeBase,
    Literal,
    Modal,
    ModalFormula,
    Name,
    RoleAssertion,
    SelfLoop,
    Sharpening,
    Vocabulary,
    boxed,
    is_normal_form,
    make_kb,
    size,
    statement_size,
)


def test_size_examples():
    # box SN { Tissue and Process sub Bottom } measures 6:
    # literal 1 + lhs (1 + 1 + 1) + rhs 1 + monomial overhead 1.
    st = boxed("SN", GCI(Conj(Name("Tissue"), Name("Process")), BOT))
    assert statement_size(st) == 6
    assert size(make_kb([st])) == 6


def test_size_empty_kb():
    assert size(make_kb([])) == 0


def test_size_sharpening():
    assert statement_size(Sharpening(False, ("H",), "SN")) == 2
    assert statement_size(Sharpening(True, ("H", "L"), "SN")) == 4


def test_size_additive_and_positive():
    a = boxed("s", GCI(Name("A"), Name("B")))
    b = Sharpening(False, ("s",), UNIVERSAL)
    kb = make_kb([a, b])
    assert size(kb) == statement_size(a) + statement_size(b)
    for st in (a, b, boxed("s", RoleAssertion("R", "x", "y"))):
        assert statement_size(st) > 0


def test_negated_literal_adds_one():
    pos = ModalFormula(BOX, "s", (Literal(False, GCI(Name("A"), Name("B"))),))
    neg = ModalFormula(BOX, "s", (Literal(True, GCI(Name("A"), Name("B"))),))
    assert statement_size(neg) == statement_size(pos) + 1


def test_is_normal_form_positive():
    kb = make_kb([boxed("s", GCI(Name("A"), Exists("R", Name("B"))))])
    assert is_normal_form(kb)


def test_is_normal_form_negative():
    kb = make_kb([boxed("s", GCI(Exists("R", Exists("Q", Name("A"))), Name("B")))])
    assert not is_normal_form(kb)


def test_is_normal_form_empty():
    assert is_normal_form(make_kb([]))


def test_is_normal_form_rejects_diamond_and_monomials():
    lit = Literal(False, GCI(Name("A"), Name("B")))
    assert not is_normal_form(make_kb([ModalFormula(DIA, "s", (lit,))]))
    assert not is_normal_form(make_kb([ModalFormula(BOX, "s", (lit, Literal(False, GCI(Name("B"), Name("C")))))]))
    assert not is_normal_form(make_kb([ModalFormula(BOX, "s", (Literal(True, GCI(Name("A"), Name("B"))),))]))


def test_vocabulary_of_example1(example1_kb):
    voc = example1_kb.vocabulary
    assert voc.standpoint_names == frozenset({"H", "L", "SN", UNIVERSAL})
    assert {"Tumour", "Process", "HighRisk"} <= set(voc.concept_names)
    assert {"p1", "a", "b"} <= set(voc.individual_names)


def test_vocabulary_of_empty():
    voc = make_kb([]).vocabulary
    assert voc.standpoint_names == frozenset({UNIVERSAL})
    assert voc.concept_names == frozenset()


def test_vocabulary_of_assertion():
    voc = make_kb([boxed("s", ConceptAssertion(Name("A"), "a"))]).vocabulary
    assert voc.concept_names == frozenset({"A"})
    assert voc.individual_names == frozenset({"a"})
    assert voc.standpoint_names == frozenset({"s", UNIVERSAL})


def test_kb_equality_is_set_based():
    a = boxed("s", GCI(Name("A"), Name("B")))
    b = Sharpening(False, ("s",), UNIVERSAL)
    assert make_kb([a, b]) == make_kb([b, a])
    assert make_kb([a, b, a]) == make_kb([a, b])
    assert make_kb([a]) != make_kb([a, b])


def test_kb_drops_repeated_statements_in_first_occurrence_order():
    a = boxed("s", GCI(Name("A"), Name("B")))
    b = Sharpening(False, ("s",), UNIVERSAL)
    c = boxed("s", RoleAssertion("R", "x", "y"))
    kb = make_kb([b, a, b, c, a, Sharpening(False, ("s",), UNIVERSAL)])
    assert kb.statements == (b, a, c)


def test_sharpening_deduplicates_lhs():
    sh = Sharpening(False, ("H", "L", "H"), "SN")
    assert sh.lhs == ("H", "L")


def test_vocabulary_validation():
    with pytest.raises(ValueError):
        Vocabulary(concept_names=frozenset({"X"}), role_names=frozenset({"X"}))
    with pytest.raises(ValueError):
        Vocabulary(standpoint_names=frozenset({EMPTY, UNIVERSAL}))


def test_kb_rejects_undeclared_names():
    decl = Vocabulary(concept_names=frozenset({"A"}), standpoint_names=frozenset({"s", UNIVERSAL}))
    with pytest.raises(ValueError):
        KnowledgeBase(decl, (boxed("s", GCI(Name("A"), Name("B"))),))


def test_concept_constructors_roundtrip():
    c = Conj(Exists("R", Modal(DIA, "s", SelfLoop("Q"))), TOP)
    assert c.left.filler.inner.role == "Q"
    assert RIA(("R", "Q"), "S").chain == ("R", "Q")
