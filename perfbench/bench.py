"""Runs one benchmark workload in this process; `run.py` starts it.

Every operation goes through `spel.cli.main`, the function behind the
`spel` command, with `--format json` and stdout captured. Rounds of the
workload's commands repeat while another round fits in `--seconds`; at
least one round runs. Within a round, the cheap commands run several
times, and `--seed` shuffles the round's order once. After the timed rounds every verdict is checked
against expectations that come from outside the reasoner (see
README.md). An operation is one verdict; it fails when it contradicts a
check, and every verdict of a command that raises or exits non-zero fails.
The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

from spel import cli
from spel.model import BOX, GCI, Literal, ModalFormula, Name, Top, make_kb
from spel.parser import parse_kb, render_kb, render_statement
from spel.preprocess import INPUT_RULE, REFUTATION_FACT, prep
from spel.reasoner import ENTAILED, NOT_ENTAILED, SAT, UNSAT
from spel.rules import apply_rule
from spel.saturation import saturate

from genkb import tiny_kb
from spans import Tracer, layer_metrics

FIXTURES = os.path.join("tests", "fixtures")
OUT = os.path.join("perfbench", "out")
ORACLE = os.path.join("perfbench", "tiny_oracle.json")
CORPUS_SEEDS = range(100)
#: Contiguous, holds queries hit by both known faults (see README.md).
SELF_SEEDS = range(13, 28)
#: How often a cheap command runs in one round. command_ms_p50 is the
#: median over commands of each command's median time; several samples
#: of a command, spread through the round, keep host jitter from
#: reordering the commands near the median.
CORPUS_REPEATS = 8
SELF_REPEATS = 4
#: Tiny KBs whose `spel check` takes 0.1 s or more (on a 2-vCPU VM); they
#: run once per round, the other 69 `CORPUS_REPEATS` times.
CORPUS_ONCE = {0, 4, 9, 12, 13, 16, 17, 24, 27, 35, 40, 41, 44, 45, 47, 53,
               63, 71, 75, 76, 77, 81, 82, 83, 84, 88, 92, 93, 97, 98, 99}
#: Tiny KBs whose self-entailment takes 1 s or more; they run once per
#: round, the other 11 `SELF_REPEATS` times.
SELF_ONCE = {13, 17, 21, 27}
#: `box * { Top sub Zq; }`, over a concept no tiny KB uses.
FRESH_QUERY = ModalFormula(BOX, "*", (Literal(False, GCI(Top(), Name("Zq"))),))


@dataclass(eq=False)
class Command:
    argv: list[str]
    #: one check per verdict the command gives; each maps a verdict and
    #: the command's JSON payload to True when it passes
    checks: list
    #: what each check is about: a KB file or a query
    labels: list[str]
    #: its checks also need the merged refutation to replay
    replayed: bool = False
    #: an untimed `spel check` run after the timed rounds, whose verdict
    #: a check of this command reads
    companion: "Command | None" = None
    #: how often the command runs in one round
    repeats: int = 1
    seconds: list[float] = field(default_factory=list)
    #: per execution: the verdicts (None if the command raised or exited
    #: non-zero) and the JSON payload
    outputs: list[tuple] = field(default_factory=list)
    #: per execution: whether each check passed
    passed: list[list[bool]] = field(default_factory=list)


def _fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def _write(path: str, text: str) -> str:
    with open(path, "w") as handle:
        handle.write(text)
    return path


def _query_labels(path: str) -> list[str]:
    return [render_statement(st) for st in _load(path).statements]


def _is(expected: str):
    return lambda verdict, payload: verdict == expected


def _oracle_outcomes(seeds) -> dict[int, str]:
    with open(ORACLE) as handle:
        outcomes = json.load(handle)["outcomes"]
    missing = [s for s in seeds if str(s) not in outcomes]
    if missing:
        raise SystemExit(f"{ORACLE} has no outcome for seeds {missing}")
    return {s: outcomes[str(s)] for s in seeds}


def _load(path: str):
    with open(path) as handle:
        return parse_kb(handle.read())


def entail_example2(rng: random.Random, inputs: str) -> list[Command]:
    """The paper's six Example 2 queries against example1, in one command;
    the paper states each is entailed."""
    paper = _load(_fixture("example2_queries.spel"))
    statements = list(paper.statements)
    rng.shuffle(statements)
    queries = _write(os.path.join(inputs, "example2_queries.spel"),
                     render_kb(make_kb(statements, declared=paper.vocabulary)))
    return [Command(["entail", _fixture("example1.spel"), "--query", queries],
                    [_is(ENTAILED)] * len(paper.statements),
                    _query_labels(queries))]


def _check_merged(verdict: str, payload: dict) -> bool:
    return verdict == UNSAT and bool(payload["details"].get("refutation_trace"))


def check_corpus(rng: random.Random, inputs: str) -> list[Command]:
    """example1 (SAT), the merged variant (UNSAT, traced) and 100 tiny KBs
    checked against the bounded oracle."""
    outcomes = _oracle_outcomes(CORPUS_SEEDS)
    commands = [
        Command(["check", _fixture("example1.spel")], [_is(SAT)],
                ["example1.spel"]),
        Command(["check", "--trace", _fixture("example1_merged.spel")],
                [_check_merged], ["example1_merged.spel"], replayed=True),
    ]
    for seed in CORPUS_SEEDS:
        path = _write(os.path.join(inputs, f"tiny{seed}.spel"),
                      render_kb(tiny_kb(seed)))

        def agrees(verdict, payload, outcome=outcomes[seed]):
            if outcome == "model" and verdict != SAT:
                return False
            return verdict != UNSAT or outcome == "none"
        commands.append(Command(["check", path], [agrees], [f"tiny{seed}"],
                                repeats=1 if seed in CORPUS_ONCE
                                else CORPUS_REPEATS))
    return commands


def entail_self(rng: random.Random, inputs: str) -> list[Command]:
    """Each tiny KB against its own statements and a fresh-name query."""
    outcomes = _oracle_outcomes(SELF_SEEDS)
    commands = []
    for seed in SELF_SEEDS:
        kb = tiny_kb(seed)
        path = _write(os.path.join(inputs, f"tiny{seed}.spel"), render_kb(kb))
        # In KB order: a query that raises ends its command, so another
        # order would change how much work the command does.
        queries = _write(os.path.join(inputs, f"self{seed}.spel"),
                         render_kb(kb.with_statements([FRESH_QUERY])))
        check = Command(["check", path], [], [])

        def fresh(verdict, payload, check=check, outcome=outcomes[seed]):
            if outcome == "model" and verdict != NOT_ENTAILED:
                return False
            return (verdict == ENTAILED) == (check.outputs[0][0] == [UNSAT])
        checks = [fresh if statement == FRESH_QUERY else _is(ENTAILED)
                  for statement in _load(queries).statements]
        labels = [f"tiny{seed}: {q}" for q in _query_labels(queries)]
        commands.append(Command(["entail", path, "--query", queries], checks,
                                labels, companion=check,
                                repeats=1 if seed in SELF_ONCE
                                else SELF_REPEATS))
    return commands


WORKLOADS = {
    "entail-example2": entail_example2,
    "check-corpus": check_corpus,
    "entail-self": entail_self,
}


def invoke(argv: list[str], tracer: Tracer | None) -> tuple[float, list | None,
                                                            dict | None]:
    """Run one `spel` command; returns its seconds, its verdicts and its
    JSON payload, the latter two None if it raised or exited non-zero."""
    buffer = io.StringIO()
    code = None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("cli"):
                    code = cli.main(argv)
    except Exception as exc:  # a fault of the program: the operation fails
        seconds = time.perf_counter() - started
        print(f"spel {' '.join(argv)}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return seconds, None, None
    seconds = time.perf_counter() - started
    if code != 0:
        return seconds, None, None
    payload = json.loads(buffer.getvalue())
    if payload["command"] == "check":
        verdicts = [payload["verdict"]]
    else:
        verdicts = [q["verdict"] for q in payload["details"]["queries"]]
    return seconds, verdicts, payload


def replay_merged(tracer: Tracer | None) -> bool:
    """Replay the dependency closure of the merged variant's refutation
    through `apply_rule`, the calculus's reference implementation."""
    store = saturate(prep(_load(_fixture("example1_merged.spel"))))
    if REFUTATION_FACT not in store:
        return False
    span = tracer.span("replay") if tracer else contextlib.nullcontext()
    steps = 0
    with span:
        todo = [store.fact_ids[REFUTATION_FACT]]
        seen = set()
        while todo:
            fid = todo.pop()
            if fid in seen:
                continue
            seen.add(fid)
            rule, premise_ids = store.provenance[fid]
            if rule == INPUT_RULE:
                continue
            premises = [store.facts[p] for p in premise_ids]
            steps += 1
            if store.facts[fid] not in apply_rule(rule, premises,
                                                  store.universes):
                return False
            todo.extend(premise_ids)
    if tracer:
        tracer.counts["rules.replay_steps"] = steps
    return True


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    inputs = os.path.join(OUT, f"inputs-{args.workload}-{args.seed}")
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    rng = random.Random(args.seed)
    commands = WORKLOADS[args.workload](rng, inputs)
    order = [c for c in commands for _ in range(c.repeats)]
    rng.shuffle(order)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    rounds = []
    started = time.perf_counter()
    while True:
        round_s = 0.0
        for command in order:
            # Each `spel` process starts with a clean heap: collect the
            # garbage of earlier commands outside the timed interval.
            gc.collect()
            seconds, verdicts, payload = invoke(command.argv + ["--format",
                                                                "json"], tracer)
            round_s += seconds
            command.seconds.append(seconds)
            command.outputs.append((verdicts, payload))
        rounds.append(round_s)
        elapsed = time.perf_counter() - started
        if elapsed + round_s > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    replay_ok = replay_merged(tracer)
    for command in commands:
        if command.companion is not None:
            command.companion.outputs.append(
                invoke(command.companion.argv + ["--format", "json"], None)[1:])
    attempted = failed = 0
    for command in commands:
        for verdicts, payload in command.outputs:
            if (verdicts is None or len(verdicts) != len(command.checks)
                    or command.replayed and not replay_ok):
                passed = [False] * len(command.checks)
            else:
                passed = [check(v, payload)
                          for check, v in zip(command.checks, verdicts)]
            command.passed.append(passed)
            attempted += len(passed)
            failed += passed.count(False)

    if tracer:
        metrics = layer_metrics(tracer, len(rounds))
    else:
        seconds = [statistics.median(c.seconds) for c in commands]
        metrics = {
            "wall_s": (statistics.median(rounds), "s"),
            "command_ms_p50": (statistics.median(seconds) * 1000.0, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "attempted": attempted, "failed": failed,
        "order": [commands.index(c) for c in order],
        "commands": [{"argv": c.argv, "seconds": c.seconds,
                      "checks": [[label, ok] for label, ok
                                 in zip(c.labels, c.passed[0])]}
                     for c in commands],
    }
    if tracer:
        record["spans"] = tracer.spans
    _write(os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json"), json.dumps(record))
    shutil.rmtree(inputs)
    print(json.dumps({
        "correct": replay_ok, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
