"""The generated corpora must not depend on the interpreter's hash seed,
and the benchmark's tiny generator must repeat the test suite's."""

import importlib.util
import os
import subprocess
import sys

from genkb import TINY_PARAMS, generate_kb
from spel.parser import render_kb

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

RENDER = """
from genkb import NORMALIZE_PARAMS, TINY_PARAMS, generate_kb
from spel.parser import render_kb
for params, seeds in ((TINY_PARAMS, 100), (NORMALIZE_PARAMS, 200)):
    for seed in range(seeds):
        print(render_kb(generate_kb(seed, params)))
"""


def _render(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([HERE, SRC]))
    return subprocess.run([sys.executable, "-c", RENDER], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_generated_kbs_ignore_hash_seed():
    first = _render("1")
    assert first and first == _render("3")


def test_perfbench_tiny_kbs_are_the_suites(monkeypatch):
    """`perfbench/genkb.py`'s `tiny_kb(s)` renders the same KB as
    `generate_kb(s, TINY_PARAMS)` for seeds 0-299, so the benchmark's
    corpus is the one the tests check. The file is loaded under a name of
    its own, as both generators are called `genkb`, and writes no
    bytecode next to itself."""
    path = os.path.join(os.path.dirname(HERE), "perfbench", "genkb.py")
    spec = importlib.util.spec_from_file_location("perfbench_genkb", path)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(bench)
    for seed in range(300):
        assert (render_kb(bench.tiny_kb(seed))
                == render_kb(generate_kb(seed, TINY_PARAMS))), seed
