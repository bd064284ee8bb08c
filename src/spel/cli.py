"""Command-line front end for the standpoint EL+ reasoner.

Subcommands: check, entail, normalize, saturate, export-datalog, oracle.
Exit codes: 0 command completed (verdict in output), 1 usage error,
2 parse error, 3 a saturation stored more facts than allowed: either
more than the environment variable SPEL_FACT_LIMIT allows (a cap for
check/entail/saturate), or more than the polynomial fact bound, which is
an internal invariant violation. The message on stderr says which.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import oracle as oracle_mod
from .datalog import write_program
from .model import KnowledgeBase, size
from .normalize import normalize
from .parser import parse_kb, render_kb, render_statement
from .preprocess import prep
from .reasoner import UNSAT, check_sat, entails
from .saturation import (FactLimitExceeded, export_trace, format_fact,
                         saturate)


class _Usage(Exception):
    pass


class _ParseFailure(Exception):
    def __init__(self, path: str, errors: list):
        super().__init__(path)
        self.path = path
        self.errors = errors


def _load_kb(path: str) -> KnowledgeBase:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise _Usage(f"cannot read {path}: {exc.strerror}")
    result = parse_kb(text)
    if isinstance(result, list):
        raise _ParseFailure(path, result)
    return result


def _fact_limit(args) -> int | None:
    env = os.environ.get("SPEL_FACT_LIMIT")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _Usage(f"SPEL_FACT_LIMIT must be an integer, got {env!r}")
    return None


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _payload(command: str, path: str, verdict: str | None,
             fact_count: int | None, started: float, details) -> dict:
    return {
        "command": command,
        "input": path,
        "verdict": verdict,
        "fact_count": fact_count,
        "elapsed_ms": round((time.monotonic() - started) * 1000.0, 3),
        "details": details,
    }


def _cmd_check(args) -> int:
    started = time.monotonic()
    kb = _load_kb(args.file)
    result = check_sat(kb, trace=args.trace,
                       early_exit=not args.no_early_exit,
                       fact_limit=_fact_limit(args))
    lines = [result.verdict]
    details = {}
    if args.trace and result.verdict == UNSAT:
        details["refutation_trace"] = result.refutation_trace
        lines += ["", "refutation trace:"] + (result.refutation_trace or [])
    _emit(args, _payload("check", args.file, result.verdict,
                         result.fact_count, started, details), lines)
    return 0


def _cmd_entail(args) -> int:
    started = time.monotonic()
    kb = _load_kb(args.file)
    queries = _load_kb(args.query)
    limit = _fact_limit(args)
    results = []
    lines = []
    for statement in queries.statements:
        res = entails(kb, statement, fact_limit=limit)
        entry = {
            "query": render_statement(statement),
            "verdict": res.verdict,
            "subcheck_count": len(res.subchecks),
        }
        if res.witness_standpoint is not None:
            entry["witness_standpoint"] = res.witness_standpoint
        results.append(entry)
        lines.append(f"{entry['query']}  {res.verdict}")
    overall = ("ENTAILED" if results
               and all(r["verdict"] == "ENTAILED" for r in results)
               else "NOT_ENTAILED" if results else None)
    _emit(args, _payload("entail", args.file, overall, None, started,
                         {"queries": results}), lines)
    return 0


def _cmd_normalize(args) -> int:
    started = time.monotonic()
    kb = _load_kb(args.file)
    normal = normalize(kb)
    rendered = render_kb(normal)
    lines = [rendered]
    details = {"output": rendered}
    if args.stats:
        details["input_size"] = size(kb)
        details["output_size"] = size(normal)
        lines += ["", f"input size: {size(kb)}",
                  f"output size: {size(normal)}"]
    _emit(args, _payload("normalize", args.file, None, None, started,
                         details), lines)
    return 0


def _cmd_saturate(args) -> int:
    started = time.monotonic()
    kb = _load_kb(args.file)
    store = saturate(prep(kb), early_exit_on_refutation=False,
                     fact_limit=_fact_limit(args))
    if args.trace:
        body = export_trace(store)
    else:
        body = "\n".join(format_fact(f) for f in store.facts)
    _emit(args, _payload("saturate", args.file, None, len(store.facts),
                         started, {"facts": body.splitlines()}), [body])
    return 0


def _cmd_export_datalog(args) -> int:
    started = time.monotonic()
    kb = _load_kb(args.file)
    name = os.path.splitext(os.path.basename(args.file))[0]
    paths = write_program(prep(kb), args.out, name)
    _emit(args, _payload("export-datalog", args.file, None, None, started,
                         {"files": paths}), [f"wrote {p}" for p in paths])
    return 0


def _cmd_oracle(args) -> int:
    started = time.monotonic()
    kb = _load_kb(args.file)
    found = oracle_mod.find_model(kb, args.max_domain, args.max_prec)
    if found is oracle_mod.NONE_WITHIN_BOUNDS:
        verdict, lines, details = "NONE_WITHIN_BOUNDS", ["NoneWithinBounds"], {}
    elif found is oracle_mod.INCONCLUSIVE:
        verdict, lines, details = "INCONCLUSIVE", ["Inconclusive"], {}
    else:
        dump = found.dump()
        verdict, lines = "MODEL_FOUND", [dump]
        details = {"model": dump.splitlines()}
    _emit(args, _payload("oracle", args.file, verdict, None, started,
                         details), lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spel",
        description="Satisfiability and entailment for standpoint EL+ "
                    "knowledge bases.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="knowledge base in .spel syntax")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check", help="decide satisfiability")
    common(p)
    p.add_argument("--trace", action="store_true",
                   help="print the refutation derivation on UNSAT")
    p.add_argument("--no-early-exit", action="store_true",
                   help="saturate fully even after refutation")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("entail", help="decide entailment of query statements")
    common(p)
    p.add_argument("--query", required=True,
                   help="file with one or more query statements")
    p.set_defaults(func=_cmd_entail)

    p = sub.add_parser("normalize", help="print the normal form")
    common(p)
    p.add_argument("--stats", action="store_true",
                   help="also print input/output sizes")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("saturate", help="print the saturated fact set")
    common(p)
    p.add_argument("--trace", action="store_true",
                   help="print each fact with its derivation")
    p.set_defaults(func=_cmd_saturate)

    p = sub.add_parser("export-datalog", help="write a Datalog program")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_export_datalog)

    p = sub.add_parser("oracle", help="bounded brute-force model search")
    common(p)
    p.add_argument("--max-domain", type=int, default=3)
    p.add_argument("--max-prec", type=int, default=3)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _ParseFailure as exc:
        for err in exc.errors:
            print(f"{exc.path}:{err}", file=sys.stderr)
        return 2
    except FactLimitExceeded as exc:
        if exc.at_bound:
            print(f"internal invariant violated: {exc}", file=sys.stderr)
        else:
            print(f"error: SPEL_FACT_LIMIT exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
