"""Write the oracle expectations for a range of tiny KB seeds.

For each seed, `spel.oracle.find_model` searches the tiny KB for a model
with at most 3 domain elements and 3 precisifications. The benchmark
checks verdicts against the outcome: a KB with a model must be SAT, an
UNSAT KB must have none, and a query whose refutation has a model must
not be entailed. Run from the repository root (about 1 s per KB):

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/expect.py 0 100 \
        perfbench/tiny_oracle.json
"""

from __future__ import annotations

import json
import sys

from genkb import tiny_kb
from spel.oracle import INCONCLUSIVE, NONE_WITHIN_BOUNDS, find_model

BOUNDS = (3, 3)


def outcome(seed: int) -> str:
    found = find_model(tiny_kb(seed), *BOUNDS)
    if found is NONE_WITHIN_BOUNDS:
        return "none"
    if found is INCONCLUSIVE:
        return "inconclusive"
    return "model"


def main(first: int, count: int, path: str) -> None:
    outcomes = {str(seed): outcome(seed) for seed in range(first, first + count)}
    with open(path, "w") as handle:
        json.dump({"bounds": list(BOUNDS), "outcomes": outcomes}, handle,
                  indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3])
