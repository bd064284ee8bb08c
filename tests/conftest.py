"""Shared fixtures: parsed example knowledge bases and expensive saturations."""

import itertools
import os

import pytest

from spel.model import UNIVERSAL
from spel.parser import parse_kb
from spel.preprocess import TOPC, prep
from spel.rules import RULES
from spel.saturation import saturate

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_text(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return fh.read()


def fixture_kb(name):
    kb = parse_kb(fixture_text(name))
    assert not isinstance(kb, list), f"fixture {name} failed to parse: {kb}"
    return kb


#: per fact shape, the positions saturation leaves generalized, with the
#: top there: the outer standpoint of every shape S.3 lifts, and the
#: subject, inner standpoint and D of a gci_nested fact
GENERALIZABLE = {rule.premises[0][0]: {1: UNIVERSAL}
                 for rule in RULES if rule.name.startswith("S.3:")}
GENERALIZABLE["gci_nested"].update({2: TOPC, 3: UNIVERSAL, 4: TOPC})


def informative_closure(facts, universes):
    """The non-tautological facts a saturated fact set stands for: `facts`
    with every copy of each of them at its generalizable positions, where
    it holds a term with others below it: a Top subject or D replaced by
    each concept of the universe (Top-twins and D-twins, one position or
    both), and an outer or inner standpoint u by each standpoint s with
    sharper(s, u) among `facts` (sharpening twins, one position or both;
    every standpoint for `*`); and without the tautologies (D = E or
    E = Top). Saturation leaves all these implicit, so which of them a
    store holds depends on the order of its input facts; this set does
    not. The sharper facts of a saturated set are never implicit, so they
    give the whole order."""
    below = {}
    for fact in facts:
        if fact[0] == "sharper":
            below.setdefault(fact[2], set()).add(fact[1])
    concepts = sorted(universes.concepts, key=repr)
    out = set()
    for fact in facts:
        spots = GENERALIZABLE.get(fact[0], {})
        choices = []
        for k, term in enumerate(fact):
            if spots.get(k) == UNIVERSAL:
                choices.append(sorted(below.get(term, set()) | {term},
                                      key=repr))
            elif spots.get(k) == term == TOPC:
                choices.append(concepts)
            else:
                choices.append([term])
        out.update(itertools.product(*choices))
    return {f for f in out
            if not (f[0] == "gci_nested" and (f[4] == f[5] or f[5] == TOPC))}


@pytest.fixture(scope="session")
def example1_kb():
    return fixture_kb("example1.spel")


@pytest.fixture(scope="session")
def merged_kb():
    return fixture_kb("example1_merged.spel")


@pytest.fixture(scope="session")
def queries_kb():
    return fixture_kb("example2_queries.spel")


@pytest.fixture(scope="session")
def example1_store(example1_kb):
    """Fully saturated fact store for the main example (no early exit)."""
    return saturate(prep(example1_kb), early_exit_on_refutation=False)
