"""Spans around calls into spel's layers, and the per-layer metrics they give.

`Tracer.install` replaces each layer's public function wherever a module
imports it by name, so calls between layers pass through a wrapper that
records a span: name, start, end and the span open around it. Counts are
read from the returned objects inside a `bench` span of their own, which
no layer's self time includes. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import re
import time
from collections import Counter
from contextlib import contextmanager

import spel.cli
import spel.preprocess
import spel.reasoner
from spel.model import RESERVED_PREFIX
from spel.preprocess import TOPC
from spel.reasoner import UNSAT
from spel.saturation import polynomial_fact_bound

BENCH = "bench"
_WITNESS = re.compile(re.escape(RESERVED_PREFIX) + r"w\d+_sp")


class Tracer:
    def __init__(self) -> None:
        #: [name, start, end, index of the parent span or None]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.bound_fill = 0.0
        self._open: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None,
                  self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def _wrap(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                with self.span(BENCH):
                    count(result)
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, original))

    def install(self) -> None:
        for module in (spel.cli, spel.reasoner, spel.preprocess):
            self._wrap(module, "normalize", "normalize", self._normalized)
        for module in (spel.cli, spel.reasoner):
            self._wrap(module, "prep", "prep", self._prepped)
            self._wrap(module, "saturate", "saturate", self._saturated)
            self._wrap(module, "check_sat", "check_sat", self._checked)
        self._wrap(spel.cli, "parse_kb", "parse", self._parsed)
        self._wrap(spel.cli, "entails", "entails", self._entailed)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _parsed(self, result) -> None:
        if not isinstance(result, list):  # a list holds parse errors
            self.counts["parser.statements"] += len(result.statements)

    def _normalized(self, kb) -> None:
        self.counts["normalize.calls"] += 1
        self.counts["normalize.statements_out"] += len(kb.statements)

    def _prepped(self, store) -> None:
        self.counts["preprocess.seed_facts"] += len(store)
        self.counts["preprocess.witness_standpoints"] += sum(
            1 for s in store.universes.standpoints if _WITNESS.fullmatch(s))

    def _saturated(self, store) -> None:
        nested = store.by_shape.get("gci_nested", ())
        twins = sum(1 for f in nested if f[2] != TOPC and
                    ("gci_nested", f[1], TOPC, f[3], f[4], f[5]) in store)
        self.counts["saturation.calls"] += 1
        self.counts["saturation.facts_stored"] += len(store)
        self.counts["saturation.early_exits"] += store.partial
        self.counts["saturation.gci_nested_facts"] += len(nested)
        self.counts["saturation.top_twin_facts"] += twins
        self.bound_fill = max(self.bound_fill, len(store) /
                              polynomial_fact_bound(store.universes))

    def _checked(self, result) -> None:
        if self._inside("entails"):
            self.counts["reasoner.subchecks"] += 1
            kind = "unsat" if result.verdict == UNSAT else "sat"
            self.counts[f"reasoner.{kind}_subchecks"] += 1

    def _entailed(self, result) -> None:
        self.counts["reasoner.queries"] += 1

    def totals(self) -> tuple[dict, dict]:
        """Per span name: summed duration and summed self time, in ms.
        Self time is a span's duration minus that of its child spans."""
        total: Counter = Counter()
        own: Counter = Counter()
        for name, start, end, parent in self.spans:
            ms = (end - start) * 1000.0
            total[name] += ms
            own[name] += ms
            if parent is not None:
                own[self.spans[parent][0]] -= ms
        return total, own


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer metrics per round of the workload; `rules.*` per run."""
    total, own = tracer.totals()
    c = tracer.counts
    ms = {
        "cli.self_ms": own["cli"],
        "parser.ms": total["parse"],
        "normalize.ms": total["normalize"],
        "preprocess.ms": own["prep"],
        "saturation.ms": total["saturate"],
        "reasoner.entails_ms": total["entails"],
        "reasoner.check_sat_self_ms": own["check_sat"],
    }
    counts = ("parser.statements", "normalize.calls",
              "normalize.statements_out", "preprocess.seed_facts",
              "preprocess.witness_standpoints", "saturation.calls",
              "saturation.facts_stored", "saturation.early_exits",
              "saturation.gci_nested_facts", "saturation.top_twin_facts",
              "reasoner.queries", "reasoner.subchecks",
              "reasoner.sat_subchecks", "reasoner.unsat_subchecks")
    out = {name: (value / rounds, "ms") for name, value in ms.items()}
    out.update({name: (c[name] / rounds, "count") for name in counts})
    out["saturation.facts_per_s"] = (
        c["saturation.facts_stored"] / (total["saturate"] / 1000.0)
        if total["saturate"] else 0.0, "1/s")
    out["saturation.bound_fill"] = (tracer.bound_fill, "ratio")
    out["rules.replay_ms"] = (total["replay"], "ms")
    out["rules.replay_steps"] = (c["rules.replay_steps"], "count")
    return out
