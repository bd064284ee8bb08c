"""The generated corpora must not depend on the interpreter's hash seed."""

import os
import subprocess
import sys

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
