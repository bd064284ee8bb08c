"""Tests for the statement-to-fact encoding and witness axioms."""

import pytest

from spel.model import (
    BOT,
    TOP,
    UNIVERSAL,
    GCI,
    RIA,
    ConceptAssertion,
    Exists,
    Modal,
    Name,
    RoleAssertion,
    Sharpening,
    boxed,
    make_kb,
)
from spel.preprocess import (
    BOTC,
    INPUT_RULE,
    REFUTATION_FACT,
    TOPC,
    FactStore,
    PreprocessError,
    Universes,
    add_witness_axioms,
    prep,
    statement_to_fact,
    to_extended_facts,
    witness_names,
)


def test_atomic_gci_seed():
    st = boxed("H", GCI(Name("Tumour"), Name("Process")))
    assert statement_to_fact(st) == (
        "gci_nested", UNIVERSAL, TOPC, "H", ("cn", "Tumour"), ("cn", "Process"),
    )


def test_concept_assertion_seed():
    st = boxed("s", ConceptAssertion(Name("A"), "a"))
    assert statement_to_fact(st) == (
        "gci_nested", UNIVERSAL, ("nom", "a"), "s", TOPC, ("cn", "A"),
    )


def test_role_assertion_seed():
    st = boxed("H", RoleAssertion("HasPart", "a", "b"))
    assert statement_to_fact(st) == ("role_assertion", "H", "HasPart", "a", "b")


def test_gci_shape_seeds():
    s = "s"
    cases = [
        (GCI(Name("A"), Exists("R", Name("B"))),
         ("gci_ex_right", s, ("cn", "A"), "R", ("cn", "B"))),
        (GCI(Exists("R", Name("A")), Name("B")),
         ("gci_ex_left", s, "R", ("cn", "A"), ("cn", "B"))),
        (GCI(Name("A"), Modal("dia", "u", Name("B"))),
         ("gci_dia_right", s, ("cn", "A"), "u", ("cn", "B"))),
        (GCI(Name("A"), Modal("box", "u", Name("B"))),
         ("gci_nested", s, ("cn", "A"), "u", TOPC, ("cn", "B"))),
        (RIA(("R",), "Q"), ("ria2", s, "R", "Q")),
        (RIA(("R", "Q"), "P"), ("ria3", s, "R", "Q", "P")),
    ]
    for ax, fact in cases:
        assert statement_to_fact(boxed(s, ax)) == fact


def test_sharpening_seeds():
    assert statement_to_fact(Sharpening(False, ("H",), "SN")) == ("sharper", "H", "SN")
    assert statement_to_fact(Sharpening(False, ("H", "L"), "0")) == (
        "sharper_intersection", "H", "L", "0",
    )


def test_refutation_fact_seed():
    store = to_extended_facts(make_kb([boxed(UNIVERSAL, GCI(TOP, BOT))]))
    assert REFUTATION_FACT in store


def test_universes_registered(example1_kb):
    store = prep(example1_kb)
    uni = store.universes
    assert {"H", "L", "SN", UNIVERSAL} <= uni.standpoints
    assert {"HasProcess", "HasPart"} <= uni.roles
    assert {"p1", "a", "b"} <= uni.individuals
    assert {TOPC, BOTC, ("cn", "Tumour"), ("nom", "p1"), ("self", "HasPart")} <= uni.concepts


def test_prep_example1_sharper_facts(example1_kb):
    store = prep(example1_kb)
    assert ("sharper", "H", "SN") in store
    assert ("sharper", "L", "SN") in store


def test_one_seed_fact_per_statement():
    kb = make_kb([
        boxed("s", GCI(Name("A"), Name("B"))),
        Sharpening(False, ("s",), UNIVERSAL),
    ])
    store = to_extended_facts(kb)
    assert len(store) == len(kb.statements)
    assert all(rule == INPUT_RULE and prem == () for rule, prem in store.provenance)


def test_witness_axioms_count():
    kb = make_kb([
        boxed("s", GCI(Name("A"), Modal("dia", "u", Name("B")))),
        boxed("s", ConceptAssertion(Name("A"), "a")),
        boxed("s", ConceptAssertion(Name("A"), "b")),
    ])
    base = to_extended_facts(kb)
    out = add_witness_axioms(base)
    # one diamond target, two individuals, three facts per pair
    assert len(out) == len(base) + 2 * 3
    fresh_sp = out.universes.standpoints - base.universes.standpoints
    assert len(fresh_sp) == 2
    for sp in fresh_sp:
        assert ("sharper", sp, "u") in out


def test_adding_a_target_keeps_the_other_witness_names():
    """Witness names are keyed by the diamond target and the individual:
    a store with one more target, sorting first, gives each witness of the
    others the name and the facts it had."""
    facts = [boxed("s", GCI(Name("A"), Modal("dia", "u", Name("B")))),
             boxed("s", ConceptAssertion(Name("A"), "a")),
             boxed("s", ConceptAssertion(Name("A"), "b"))]
    one = add_witness_axioms(to_extended_facts(make_kb(facts)))
    more = add_witness_axioms(to_extended_facts(make_kb(
        facts + [boxed("s", GCI(Name("A"), Modal("dia", "a0", Name("B"))))])))
    # the new target's fact, and three witness facts per individual
    assert set(one.facts) <= set(more.facts)
    assert len(more) == len(one) + 1 + 2 * 3
    assert witness_names("u", ("cn", "B"), "a") == ("_gw(u,B,a)_sp",
                                                    "_gw(u,B,a)_p")
    assert ("sharper", "_gw(u,B,a)_sp", "u") in more


def test_no_diamond_no_witnesses():
    kb = make_kb([boxed("s", GCI(Name("A"), Name("B")))])
    base = to_extended_facts(kb)
    out = add_witness_axioms(base)
    assert len(out) == len(base)
    assert out.universes.standpoints == base.universes.standpoints


def test_empty_kb():
    store = prep(make_kb([]))
    assert len(store) == 0
    assert store.universes.standpoints == {UNIVERSAL}
    assert store.universes.concepts == {TOPC, BOTC}


def test_non_normal_input_rejected():
    kb = make_kb([boxed("s", GCI(Exists("R", Exists("Q", Name("A"))), Name("B")))])
    with pytest.raises(PreprocessError):
        to_extended_facts(kb)


def test_store_rejects_unknown_shape():
    store = FactStore(Universes())
    with pytest.raises(PreprocessError):
        store.add(("bogus", "x"))


def test_store_lookup_and_copy():
    store = FactStore(Universes())
    assert store.add(("sharper", "H", "SN")) == 0
    store.add(("sharper", "L", "SN"))
    store.add(("sharper", "SN", UNIVERSAL))
    assert store.add(("sharper", "H", "SN")) is None
    store.add(("sharper_intersection", "H", "L", "SN"))
    assert store.by_shape["sharper"] == [
        ("sharper", "H", "SN"), ("sharper", "L", "SN"),
        ("sharper", "SN", UNIVERSAL),
    ]
    assert store.fact_ids[("sharper", "L", "SN")] == 1
    assert ("sharper", "SN", UNIVERSAL) in store
    assert ("sharper", "SN", "H") not in store
    dup = store.copy()
    dup.add(("sharper", "H", UNIVERSAL))
    assert len(store) == 4 and len(dup) == 5
    assert len(store.by_shape["sharper"]) == 3
