"""Differential test: the compiled engine against a naive fixpoint.

The reference knows the calculus only through `RULES` and `apply_rule`,
so it checks the shared pattern code from the side that compiles no
joins. It stores every fact, tautologies included, and repeats rounds of
backtracking joins over per-shape fact lists until a round adds nothing.
For premise k, `apply_rule` on the rule cut to premises 0..k-1, with
premise k as its conclusion, gives the pattern the chosen prefix leaves;
a fact of that shape that agrees with it on the bound positions is kept
when `apply_rule` accepts the longer prefix.
"""

from spel.preprocess import REFUTATION_FACT, prep
from spel.rules import RULES, Rule, Var, apply_rule
from spel.saturation import is_refuted, saturate

from conftest import informative_closure
from genkb import TINY_PARAMS, generate_kb

#: tiny seeds with small closures, so that the naive fixpoint stays fast:
#: 73, the smallest whose closure needs a C.1 premise matched through its
#: Top-subject twin; 20 in 0-99 whose closures hold at most 109
#: non-tautological facts; and 48 and 184, the smallest in 0-199 after 20
#: that name both standpoints and have witness standpoints, so that
#: premises are matched through `*`-twins at several standpoints
SMALL_SEEDS = (73, 2, 3, 14, 19, 20, 26, 28, 32, 42, 43, 49, 59, 62, 67,
               69, 70, 72, 78, 85, 91, 48, 184)


def _ground(term) -> bool:
    return not isinstance(term, Var) and not (
        isinstance(term, tuple) and any(isinstance(t, Var) for t in term))


def _conclusions(steps, chosen, pattern, candidates, uni):
    """Conclusions of the rule whose prefix cuts are `steps`, over the
    `chosen` premises and every fact matching `pattern` and the rest."""
    step = steps[len(chosen)]
    for fact in candidates(pattern):
        try:
            out = apply_rule(step, chosen + [fact], uni)
        except ValueError:
            continue
        if step is steps[-1]:
            yield from out
        else:
            yield from _conclusions(steps, chosen + [fact], out[0],
                                    candidates, uni)


def reference_fixpoint(store) -> set:
    uni = store.universes
    facts = set(store.facts)
    for rule in RULES:
        if not rule.premises:
            facts.update(apply_rule(rule, [], uni))
    plans = [([Rule(r.name, r.premises[:k + 1], r.premises[k + 1])
               for k in range(len(r.premises) - 1)] + [r], r.premises[0])
             for r in RULES if r.premises]
    while True:
        by_shape, tables = {}, {}
        for fact in facts:
            by_shape.setdefault(fact[0], []).append(fact)

        def candidates(pattern):
            bound = tuple(k for k in range(1, len(pattern))
                          if _ground(pattern[k]))
            table = tables.get((pattern[0], bound))
            if table is None:
                table = tables[pattern[0], bound] = {}
                for fact in by_shape.get(pattern[0], ()):
                    key = tuple(fact[k] for k in bound)
                    table.setdefault(key, []).append(fact)
            return table.get(tuple(pattern[k] for k in bound), ())

        new = {c for steps, first in plans
               for c in _conclusions(steps, [], first, candidates, uni)}
        if new <= facts:
            return facts
        facts |= new


def test_engine_matches_reference_fixpoint():
    for seed in SMALL_SEEDS:
        store = prep(generate_kb(seed, TINY_PARAMS))
        engine = saturate(store, early_exit_on_refutation=False)
        reference = reference_fixpoint(store)
        assert is_refuted(engine) == (REFUTATION_FACT in reference), \
            f"seed {seed}"
        assert (informative_closure(engine.facts, engine.universes)
                == informative_closure(reference, store.universes)), \
            f"seed {seed}"
