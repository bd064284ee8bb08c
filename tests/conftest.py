"""Shared fixtures: parsed example knowledge bases and expensive saturations."""

import os

import pytest

from spel.parser import parse_kb
from spel.preprocess import TOPC, prep
from spel.saturation import saturate

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_text(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return fh.read()


def fixture_kb(name):
    kb = parse_kb(fixture_text(name))
    assert not isinstance(kb, list), f"fixture {name} failed to parse: {kb}"
    return kb


def informative_closure(facts, universes):
    """The non-tautological facts a saturated fact set stands for: `facts`
    with every Top-twin box_t[C sub box_s[D => E]] of each of its
    box_t[Top sub box_s[D => E]] facts, C over the concept universe, and
    without the tautologies (D = E or E = Top). Saturation leaves both kinds
    implicit, so which of them a store holds depends on the order of its
    input facts; this set does not."""
    out = set(facts)
    out.update(("gci_nested", t, c, s, d, e)
               for _, t, top, s, d, e in
               (f for f in facts if f[0] == "gci_nested")
               if top == TOPC for c in universes.concepts)
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
