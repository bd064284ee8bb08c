"""Seeded pseudo-random knowledge base generator for the property suites.

Two parameter presets are used by the acceptance tests: `NORMALIZE_PARAMS`
exercises the full statement grammar (negation, diamonds, monomials,
role chains, nested modal concepts), while `TINY_PARAMS` keeps the
vocabulary small enough for the brute-force model finder to be exact
within bounds (3, 3). A third, `SCALE_PARAMS`, makes KBs larger than the
fixtures for the saturation tests (`scale_kb`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from spel.model import (
    BOX,
    DIA,
    EMPTY,
    GCI,
    RIA,
    Bottom,
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
    Top,
    make_kb,
)


@dataclass(frozen=True)
class GenParams:
    max_statements: int
    max_depth: int
    n_standpoints: int
    n_concepts: int
    n_roles: int
    n_individuals: int
    allow_negation: bool = True
    allow_diamond: bool = True
    allow_monomials: bool = True


NORMALIZE_PARAMS = GenParams(max_statements=6, max_depth=3, n_standpoints=3,
                             n_concepts=4, n_roles=2, n_individuals=2)
TINY_PARAMS = GenParams(max_statements=4, max_depth=2, n_standpoints=2,
                        n_concepts=2, n_roles=1, n_individuals=2)
#: `scale_kb` draws exactly `max_statements` statements of it
SCALE_PARAMS = GenParams(max_statements=40, max_depth=2, n_standpoints=6,
                         n_concepts=20, n_roles=3, n_individuals=3,
                         allow_negation=False)


def _concept(rng: random.Random, p: GenParams, depth: int):
    if depth <= 0:
        roll = rng.random()
        if roll < 0.75:
            return Name(rng.choice([f"C{i}" for i in range(p.n_concepts)]))
        if roll < 0.85:
            return Top()
        if roll < 0.92:
            return Bottom()
        return SelfLoop(rng.choice([f"R{i}" for i in range(p.n_roles)]))
    roll = rng.random()
    if roll < 0.40:
        return _concept(rng, p, 0)
    if roll < 0.60:
        return Conj(_concept(rng, p, depth - 1), _concept(rng, p, depth - 1))
    if roll < 0.80:
        return Exists(rng.choice([f"R{i}" for i in range(p.n_roles)]),
                      _concept(rng, p, depth - 1))
    op = DIA if p.allow_diamond and rng.random() < 0.5 else BOX
    return Modal(op, _standpoint(rng, p), _concept(rng, p, depth - 1))


def _standpoint(rng: random.Random, p: GenParams) -> str:
    names = [f"S{i}" for i in range(p.n_standpoints)] + ["*"]
    return rng.choice(names)


def _axiom(rng: random.Random, p: GenParams):
    roll = rng.random()
    roles = [f"R{i}" for i in range(p.n_roles)]
    inds = [f"i{i}" for i in range(p.n_individuals)]
    if roll < 0.55:
        return GCI(_concept(rng, p, p.max_depth), _concept(rng, p, p.max_depth))
    if roll < 0.70:
        chain = tuple(rng.choice(roles)
                      for _ in range(rng.randint(1, min(3, p.max_depth + 1))))
        return RIA(chain, rng.choice(roles))
    if roll < 0.88:
        return ConceptAssertion(_concept(rng, p, p.max_depth - 1),
                                rng.choice(inds))
    return RoleAssertion(rng.choice(roles), rng.choice(inds),
                         rng.choice(inds))


def _statement(rng: random.Random, p: GenParams):
    if rng.random() < 0.15:
        drawn = {_standpoint(rng, p) for _ in range(rng.randint(1, 2))}
        lhs = tuple(sorted(drawn - {"*"})) or ("S0",)
        rhs = rng.choice([_standpoint(rng, p), EMPTY])
        negated = p.allow_negation and rng.random() < 0.3
        return Sharpening(negated, lhs, rhs)
    count = rng.randint(1, 2) if p.allow_monomials else 1
    literals = tuple(
        Literal(p.allow_negation and rng.random() < 0.25, _axiom(rng, p))
        for _ in range(count))
    op = DIA if p.allow_diamond and rng.random() < 0.4 else BOX
    return ModalFormula(op, _standpoint(rng, p), literals)


def generate_kb(seed: int, params: GenParams = NORMALIZE_PARAMS
                ) -> KnowledgeBase:
    rng = random.Random(seed)
    count = rng.randint(1, params.max_statements)
    return make_kb(_statement(rng, params) for _ in range(count))


def scale_kb(seed: int) -> KnowledgeBase:
    """A KB of `SCALE_PARAMS`, with exactly `max_statements` statements."""
    rng = random.Random(seed)
    return make_kb(_statement(rng, SCALE_PARAMS)
                   for _ in range(SCALE_PARAMS.max_statements))
