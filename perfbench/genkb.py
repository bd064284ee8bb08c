"""Seeded generator of tiny standpoint EL+ knowledge bases.

The vocabulary (two standpoints, two concepts, one role, two
individuals) is small enough for `spel.oracle.find_model` to be exact
within bounds (3, 3). A KB depends only on its seed: every choice comes
from `random.Random(seed)`, and a sharpening's left-hand side is built in
sorted order rather than from a set, so `PYTHONHASHSEED` cannot reorder
it. For the seeds used here the KBs equal those of the test suite's
`TINY_PARAMS` generator run under `PYTHONHASHSEED=0`.

    python3 perfbench/genkb.py 13        # print tiny KB 13 in .spel syntax
"""

from __future__ import annotations

import random
import sys

from spel.model import (
    BOX,
    DIA,
    EMPTY,
    GCI,
    RIA,
    Bottom,
    ConceptAssertion,
    Conj,
    Exists,
    KnowledgeBase,
    Literal,
    Modal,
    ModalFormula,
    Name,
    RoleAssertion,
    SelfLoop,
    Sharpening,
    Top,
    make_kb,
)
from spel.parser import render_kb

MAX_STATEMENTS = 4
MAX_DEPTH = 2
STANDPOINTS = ("S0", "S1", "*")
CONCEPTS = ("C0", "C1")
ROLES = ("R0",)
INDIVIDUALS = ("i0", "i1")


def _concept(rng: random.Random, depth: int):
    if depth <= 0:
        roll = rng.random()
        if roll < 0.75:
            return Name(rng.choice(CONCEPTS))
        if roll < 0.85:
            return Top()
        if roll < 0.92:
            return Bottom()
        return SelfLoop(rng.choice(ROLES))
    roll = rng.random()
    if roll < 0.40:
        return _concept(rng, 0)
    if roll < 0.60:
        return Conj(_concept(rng, depth - 1), _concept(rng, depth - 1))
    if roll < 0.80:
        return Exists(rng.choice(ROLES), _concept(rng, depth - 1))
    op = DIA if rng.random() < 0.5 else BOX
    return Modal(op, rng.choice(STANDPOINTS), _concept(rng, depth - 1))


def _axiom(rng: random.Random):
    roll = rng.random()
    if roll < 0.55:
        return GCI(_concept(rng, MAX_DEPTH), _concept(rng, MAX_DEPTH))
    if roll < 0.70:
        chain = tuple(rng.choice(ROLES)
                      for _ in range(rng.randint(1, min(3, MAX_DEPTH + 1))))
        return RIA(chain, rng.choice(ROLES))
    if roll < 0.88:
        return ConceptAssertion(_concept(rng, MAX_DEPTH - 1),
                                rng.choice(INDIVIDUALS))
    return RoleAssertion(rng.choice(ROLES), rng.choice(INDIVIDUALS),
                         rng.choice(INDIVIDUALS))


def _statement(rng: random.Random):
    if rng.random() < 0.15:
        drawn = {rng.choice(STANDPOINTS) for _ in range(rng.randint(1, 2))}
        lhs = tuple(sorted(drawn - {"*"})) or ("S0",)
        rhs = rng.choice([rng.choice(STANDPOINTS), EMPTY])
        return Sharpening(rng.random() < 0.3, lhs, rhs)
    literals = tuple(Literal(rng.random() < 0.25, _axiom(rng))
                     for _ in range(rng.randint(1, 2)))
    op = DIA if rng.random() < 0.4 else BOX
    return ModalFormula(op, rng.choice(STANDPOINTS), literals)


def tiny_kb(seed: int) -> KnowledgeBase:
    """The tiny KB of `seed`."""
    rng = random.Random(seed)
    return make_kb(_statement(rng) for _ in range(rng.randint(1, MAX_STATEMENTS)))


if __name__ == "__main__":
    print(render_kb(tiny_kb(int(sys.argv[1]))))
