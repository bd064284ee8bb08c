"""Command-line front end for the standpoint EL+ reasoner.

Subcommands: check, entail, normalize, saturate, export-datalog, oracle.
`check` stops saturating at the first refutation (`--trace` prints its
derivation); `saturate` prints the full closure. Every subcommand takes
`--format json` for one JSON payload in place of its text lines.
Exit codes: 0 command completed (verdict in output), 1 usage error
(among them a SPEL_FACT_LIMIT, --max-domain or --max-prec that is not a
positive integer, and an entail query file that gives a name of the KB
another kind), 2 parse error, 3 a saturation stored more facts than
allowed: either more than the environment variable SPEL_FACT_LIMIT allows
(a cap for check/entail/saturate), or more than the polynomial fact
bound, which is an internal invariant violation. The message on stderr
says which.

The argument parser is built once per process, on the first `main` call,
and parses every later argv afresh. `oracle` and `export-datalog` import
the model finder and the Datalog writer when they run, so importing this
module loads neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .model import KnowledgeBase, occurring_vocabulary, size
from .normalize import normalize
from .parser import parse_kb, render_kb, render_statement
from .preprocess import prep
from .reasoner import UNSAT, check_sat, entails, query_closure
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


def _positive(name: str, value: str | int) -> int:
    """`value` as a positive integer, or a usage error naming `name`."""
    try:
        number = int(value)
    except ValueError:
        number = 0
    if number < 1:
        raise _Usage(f"{name} must be a positive integer, got {value!r}")
    return number


def _fact_limit() -> int | None:
    env = os.environ.get("SPEL_FACT_LIMIT")
    return None if env is None else _positive("SPEL_FACT_LIMIT", env)


# Each command returns its verdict, fact count, JSON details and text lines.

def _cmd_check(args):
    result = check_sat(_load_kb(args.file), trace=args.trace,
                       fact_limit=_fact_limit())
    lines = [result.verdict]
    details = {}
    if args.trace and result.verdict == UNSAT:
        details["refutation_trace"] = result.refutation_trace
        lines += ["", "refutation trace:"] + (result.refutation_trace or [])
    return result.verdict, result.fact_count, details, lines


def _cmd_entail(args):
    kb = _load_kb(args.file)
    queries = _load_kb(args.query)
    try:  # the names the queries use keep their kinds in the KB
        kb.vocabulary.merge(occurring_vocabulary(queries.statements))
    except ValueError as exc:
        raise _Usage(f"{args.query} and {args.file} clash: {exc}")
    limit = _fact_limit()
    closure = query_closure(kb, queries.statements, fact_limit=limit)
    results = []
    lines = []
    for statement in queries.statements:
        res = entails(kb, statement, fact_limit=limit, closure=closure)
        entry = {
            "query": render_statement(statement),
            "verdict": res.verdict,
            "decided_by": res.decided_by,
            "subcheck_count": len(res.subchecks),
        }
        if res.witness_standpoint is not None:
            entry["witness_standpoint"] = res.witness_standpoint
        results.append(entry)
        lines.append(f"{entry['query']}  {res.verdict}")
    overall = ("ENTAILED" if results
               and all(r["verdict"] == "ENTAILED" for r in results)
               else "NOT_ENTAILED" if results else None)
    return overall, None, {
        "queries": results,
        "closure_fact_count": (None if closure is None
                               else closure.fact_count),
    }, lines


def _cmd_normalize(args):
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
    return None, None, details, lines


def _cmd_saturate(args):
    store = saturate(prep(_load_kb(args.file)),
                     early_exit_on_refutation=False,
                     fact_limit=_fact_limit())
    if args.trace:
        body = export_trace(store)
    else:
        body = "\n".join(format_fact(f) for f in store.facts)
    return None, len(store.facts), {"facts": body.splitlines()}, [body]


def _cmd_export_datalog(args):
    from .datalog import write_program
    name = os.path.splitext(os.path.basename(args.file))[0]
    paths = write_program(prep(_load_kb(args.file)), args.out, name)
    return None, None, {"files": paths}, [f"wrote {p}" for p in paths]


def _cmd_oracle(args):
    from . import oracle as oracle_mod
    bounds = (_positive("--max-domain", args.max_domain),
              _positive("--max-prec", args.max_prec))
    found = oracle_mod.find_model(_load_kb(args.file), *bounds)
    if found is oracle_mod.NONE_WITHIN_BOUNDS:
        return "NONE_WITHIN_BOUNDS", None, {}, ["NoneWithinBounds"]
    if found is oracle_mod.INCONCLUSIVE:
        return "INCONCLUSIVE", None, {}, ["Inconclusive"]
    dump = found.dump()
    return "MODEL_FOUND", None, {"model": dump.splitlines()}, [dump]


def _run(args) -> int:
    """Time the command and print its text lines, or its JSON payload."""
    started = time.monotonic()
    verdict, fact_count, details, lines = args.func(args)
    if args.format == "json":
        print(json.dumps({
            "command": args.command,
            "input": args.file,
            "verdict": verdict,
            "fact_count": fact_count,
            "elapsed_ms": round((time.monotonic() - started) * 1000.0, 3),
            "details": details,
        }, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every `main` call: built once, on first use. Parsing
    keeps nothing on it, so calls, and threads, may share it."""
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
        return _run(args)
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
