"""Refutation subchecks as forks of one saturated base: against the
reference fixpoint, against subchecks run from scratch, and side by side
in threads."""

import copy
import sys
import threading

import pytest

from spel.model import EMPTY, UNIVERSAL, Sharpening, make_kb
from spel.normalize import FORK_PREFIX, normalize
from spel.parser import parse_kb
from spel.preprocess import INPUT_RULE, REFUTATION_FACT, FactStore
from spel.reasoner import (ENTAILED, SAT, UNSAT, NegatedFormula, _Base,
                           _planned, check_sat, entails, query_closure)
from spel.rules import apply_rule

from conftest import informative_closure
from genkb import TINY_PARAMS, generate_kb
from test_reference_fixpoint import ORDER_KBS, reference_fixpoint


def _disjoint(kb) -> Sharpening:
    """The query that the first two named standpoints of `kb` are
    disjoint: its refutation puts a fresh standpoint below the first in
    the seed order, and walks its sharpening below the second."""
    named = sorted(kb.vocabulary.standpoint_names - {UNIVERSAL})
    return Sharpening(False, tuple(named[:2]), EMPTY)


#: (KB, query): the disjointness of two standpoints on the seed-order KBs
#: with two, whose references stay small, and on three tiny seeds; and a
#: negated formula whose refutation adds a diamond target with a witness
#: standpoint, which joins the order below S or below U's parent S
FORK_CASES = {
    **{name: (ORDER_KBS[name], None) for name in (
        "E.2", "A.5", "cycle", "meet", "cycle meet", "Example 2 shape",
        "C.4", "C.1", "C.1 reversed", "chain")},
    **{f"tiny {seed}": (seed, None) for seed in (20, 72, 78)},
    "new target": ("standpoint S; individual a; concept C; concept D; "
                   "box S { C(a); }", "box S { C sub dia S D; }"),
    "new target below": ("standpoint S; standpoint U; U <= S; "
                         "individual a; concept C; concept D; "
                         "box U { C(a); }", "box S { C sub dia S D; }"),
}


def _replays(store, start: int = 0) -> None:
    """Every derivation of `store` from fact `start` on replays through
    `apply_rule`."""
    for fid in range(start, len(store)):
        rule, premise_ids = store.provenance[fid]
        if rule != INPUT_RULE:
            premises = [store.facts[p] for p in premise_ids]
            assert store.facts[fid] in apply_rule(rule, premises,
                                                  store.universes), fid


@pytest.mark.parametrize("case", FORK_CASES)
def test_fork_closure_matches_reference_fixpoint(case):
    """The closure of a fork of a base walked to its fixpoint, with a
    refuting statement's facts added, is the reference fixpoint of the
    base's input facts and the added ones, over the same universes; and
    every derivation in the fork replays."""
    text, formula = FORK_CASES[case]
    kb = generate_kb(text, TINY_PARAMS) if isinstance(text, int) \
        else parse_kb(text)
    query = _disjoint(kb) if formula is None else NegatedFormula(
        parse_kb(formula).statements[0])
    base = _Base(normalize(kb), [query], None)
    assert not base.run.refuted
    for statement in _planned(query, base.standpoints):
        store = base.fork(statement).store()
        _replays(store)
        inputs = FactStore(store.universes)
        for fact, (rule, _) in zip(store.facts, store.provenance):
            if rule == INPUT_RULE:
                inputs.add(fact)
        reference = reference_fixpoint(inputs)
        assert (REFUTATION_FACT in store) == (REFUTATION_FACT in reference)
        if REFUTATION_FACT not in store:
            assert (informative_closure(store.facts, store.universes)
                    == informative_closure(reference, store.universes))


def _from_scratch(normal, statement) -> str:
    """The verdict of the normalized KB `normal` plus `statement`, saturated
    from nothing; the statement is normalized alone under `FORK_PREFIX`, so
    that its fresh names meet none of `normal`'s."""
    extra = normalize(make_kb([statement]), FORK_PREFIX).statements
    return check_sat(make_kb(normal.statements + extra,
                             declared=normal.vocabulary)).verdict


def _recorded(monkeypatch) -> list:
    """The (base, statement, verdict) of every fork checked from now on."""
    checks = []
    check = _Base.check

    def recorded(base, statement):
        result = check(base, statement)
        checks.append((base, statement, result.verdict))
        return result
    monkeypatch.setattr(_Base, "check", recorded)
    return checks


def test_forks_agree_with_subchecks_from_scratch(monkeypatch,
                                                 example1_kb, queries_kb):
    """Every refutation subcheck of tiny seeds 0-99 entailing their own
    statements, each query from a base of the KB alone, and of Example 2
    from the closure's base, gives the verdict of the same subcheck
    saturated from scratch, and every derivation its fork adds replays.
    Where the statement names no fresh standpoint of the normalized KB,
    the verdict is also that of the KB plus the statement."""
    checks = _recorded(monkeypatch)
    compared = []
    for seed in range(100):
        kb = generate_kb(seed, TINY_PARAMS)
        normal = normalize(kb)
        for statement in kb.statements:
            assert entails(kb, statement).verdict == ENTAILED
            compared += [(normal, kb, *check) for check in checks]
            checks.clear()
    queries = queries_kb.statements
    closure = query_closure(example1_kb, queries)
    for query in queries:
        assert entails(example1_kb, query, closure=closure).verdict == \
            ENTAILED
    normal = normalize(example1_kb.with_statements(
        [definition for _, definition in closure._names.values()]))
    compared += [(normal, example1_kb, *check) for check in checks]
    assert len(compared) > 300
    plain = 0
    for normal, kb, base, statement, verdict in compared:
        assert _from_scratch(normal, statement) == verdict, statement
        _replays(base.fork(statement).store(), len(base.run))
        if not any(s.startswith("_g") for s in
                   make_kb([statement]).vocabulary.standpoint_names):
            plain += 1
            assert check_sat(kb.with_statements([statement])).verdict == \
                verdict, statement
    assert plain > 100


def test_forks_share_no_mutable_state(example1_kb, queries_kb):
    """Forks of one base, walked side by side in more threads than cores
    with a short switch interval, give the verdicts they give one after
    the other, and leave the base's facts, provenance, index tables and
    seed order as they were."""
    # `H & L <= 0` is entailed, and `SN <= H` is not
    queries = [queries_kb.statements[5], Sharpening(False, ("SN",), "H")]
    base = _Base(normalize(example1_kb), queries, None)
    statements = [_planned(query, base.standpoints)[0] for query in queries]
    expected = [base.check(statement).verdict for statement in statements]
    assert expected == [UNSAT, SAT]
    run = base.run
    before = (list(run.facts), dict(run.fact_ids), list(run.provenance),
              copy.deepcopy(run._tables), run._order)
    verdicts = {n: [] for n in range(4)}

    def check(n):
        for _ in range(5):
            verdicts[n].append(base.check(statements[n % 2]).verdict)
    threads = [threading.Thread(target=check, args=(n,)) for n in verdicts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert verdicts == {n: [expected[n % 2]] * 5 for n in verdicts}
    assert (run.facts, run.fact_ids, run.provenance, run._tables,
            run._order) == before
