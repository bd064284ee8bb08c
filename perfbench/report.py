"""Per-query times of a traced run, with the checks each query failed.

    python3 perfbench/report.py perfbench/out/entail-self-seed1-trace1.json

Prints the time the traced rounds took and the share of it the
benchmark's own counting took (its `bench` spans). Then, for each
`spel entail` query, at the first time the run executed it, its time in
`spel.reasoner.entails`, the number of satisfiability subchecks it
started, and FAIL where its check failed. A command stops at a query
that raises; the queries after it show no time.
"""

from __future__ import annotations

import json
import sys


def main(path: str) -> None:
    with open(path) as handle:
        record = json.load(handle)
    spans = record["spans"]
    children: dict = {}
    for index, (name, _start, _end, parent) in enumerate(spans):
        children.setdefault(parent, []).append(index)
    roots = [i for i in children[None] if spans[i][0] == "cli"]
    traced = sum(record["rounds"])
    counting = sum(end - start for name, start, end, _ in spans
                   if name == "bench")
    print(f"traced rounds {traced:.2f} s, of which counting {counting:.3f} s "
          f"({counting / (traced - counting):.1%} on top of the rest)")
    reported = set()
    for index, root in zip(record["order"], roots):
        command = record["commands"][index]
        if command["argv"][0] != "entail" or index in reported:
            continue
        reported.add(index)
        queries = [i for i in children.get(root, ()) if spans[i][0] == "entails"]
        for k, (label, ok) in enumerate(command["checks"]):
            if k < len(queries):
                q = queries[k]
                subchecks = sum(spans[i][0] == "check_sat"
                                for i in children.get(q, ()))
                ms = f"{(spans[q][2] - spans[q][1]) * 1000:10.1f} ms"
                cost = f"{ms} {subchecks:3d} subchecks"
            else:
                cost = f"{'not run':>13} {'':13}"
            print(f"{'ok  ' if ok else 'FAIL'} {cost}  {label}")


if __name__ == "__main__":
    main(sys.argv[1])
