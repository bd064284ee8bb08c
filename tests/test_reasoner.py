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
from spel.reasoner import (
    ENTAILED,
    NOT_ENTAILED,
    SAT,
    UNSAT,
    NegatedFormula,
    check_sat,
    entails,
)

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


#: (seed, statement index) pairs whose self-entailment raises: the
#: diamond-monomial search normalizes the already normalized KB again,
#: and the second normalization's fresh names collide with the first's
#: (fault (a); see ROADMAP.md)
FRESH_NAME_CLASHES = {(16, 0), (16, 2), (24, 1), (53, 0)}
#: tiny seeds 0-59, but for the three whose self-entailment takes 0.5 s or
#: more (4, 12 and 40), to keep this suite short
SELF_SEEDS = [seed for seed in range(60) if seed not in (4, 12, 40)]


def _self_cases():
    for seed in SELF_SEEDS:
        for n in range(len(generate_kb(seed, TINY_PARAMS).statements)):
            marks = [pytest.mark.xfail(strict=True, raises=ValueError)
                     ] if (seed, n) in FRESH_NAME_CLASHES else []
            yield pytest.param(seed, n, id=f"{seed}-{n}", marks=marks)


@pytest.mark.parametrize("seed, n", _self_cases())
def test_tiny_kb_entails_its_own_statements(seed, n):
    """A KB entails each of its statements: a satisfiable one by the
    reduction's soundness and completeness, an unsatisfiable one
    vacuously."""
    kb = generate_kb(seed, TINY_PARAMS)
    assert entails(kb, kb.statements[n]).verdict == ENTAILED
