"""End-to-end tests for the `spel` command line interface."""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import threading

import pytest

import spel
import spel.reasoner
from spel import cli, saturation
from spel.cli import main
from spel.model import occurring_vocabulary
from spel.normalize import normalize
from spel.parser import parse_kb, render_statement

from conftest import FIXTURES

EXAMPLE1 = os.path.join(FIXTURES, "example1.spel")
MERGED = os.path.join(FIXTURES, "example1_merged.spel")
QUERIES = os.path.join(FIXTURES, "example2_queries.spel")


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_sat(capsys, tmp_path):
    path = write(tmp_path, "kb.spel", "A sub B;")
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert out.strip() == "SAT"


def test_check_unsat_with_trace(capsys, tmp_path):
    path = write(tmp_path, "kb.spel", "Top sub Bot;")
    code, out, _ = run(capsys, "check", "--trace", path)
    assert code == 0
    assert out.splitlines()[0] == "UNSAT"
    assert "refutation trace:" in out


def test_json_agrees_with_text(capsys, tmp_path):
    path = write(tmp_path, "kb.spel", "A sub B;")
    _, text_out, _ = run(capsys, "check", path)
    code, json_out, _ = run(capsys, "check", "--format", "json", path)
    assert code == 0
    payload = json.loads(json_out)
    assert payload["command"] == "check"
    assert payload["verdict"] == text_out.strip()
    assert payload["fact_count"] > 0
    assert payload["elapsed_ms"] >= 0


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "/no/such/file.spel")
    assert code == 1
    assert "error:" in err


def test_bad_syntax_is_parse_error(capsys, tmp_path):
    path = write(tmp_path, "kb.spel", "A sub ;")
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert "syntax" in err


def test_fact_limit_env(capsys, monkeypatch):
    monkeypatch.setenv("SPEL_FACT_LIMIT", "100")
    code, _, err = run(capsys, "check", EXAMPLE1)
    assert code == 3
    assert "SPEL_FACT_LIMIT" in err
    assert "internal invariant" not in err
    # a breach of the polynomial bound is an engine bug, whatever the cap
    monkeypatch.setattr(saturation, "polynomial_fact_bound", lambda u: 100)
    monkeypatch.setenv("SPEL_FACT_LIMIT", "1000000000")
    code, _, err = run(capsys, "check", EXAMPLE1)
    assert code == 3
    assert "internal invariant violated" in err
    assert "SPEL_FACT_LIMIT" not in err
    monkeypatch.undo()
    for value in ("banana", "-3", "0"):
        monkeypatch.setenv("SPEL_FACT_LIMIT", value)
        code, _, err = run(capsys, "check", EXAMPLE1)
        assert code == 1
        assert "SPEL_FACT_LIMIT" in err and len(err.splitlines()) == 1


def test_entail_queries(capsys):
    code, out, _ = run(capsys, "entail", EXAMPLE1, "--query", QUERIES)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines
    assert all(ln.endswith("ENTAILED") for ln in lines)


def test_entail_json_says_who_decided(capsys, tmp_path):
    """Example 2: five queries are read off the shared closure without a
    subcheck, and `H & L <= 0` takes one refutation subcheck."""
    code, out, _ = run(capsys, "entail", "--format", "json", EXAMPLE1,
                       "--query", QUERIES)
    assert code == 0
    details = json.loads(out)["details"]
    assert [(q["decided_by"], q["subcheck_count"], q["verdict"])
            for q in details["queries"]] == [
        ("closure", 0, "ENTAILED")] * 5 + [("refutation", 1, "ENTAILED")]
    assert details["closure_fact_count"] > 0
    # one query shares nothing: no closure is built
    single = write(tmp_path, "q.spel", "box H { Patient(p1); }")
    code, out, _ = run(capsys, "entail", "--format", "json", EXAMPLE1,
                       "--query", single)
    details = json.loads(out)["details"]
    assert details["closure_fact_count"] is None
    assert details["queries"][0]["decided_by"] == "refutation"


def test_entail_json_counts_the_released_closure(capsys):
    """The shared closure releases its store after its last query; the
    JSON output still counts the facts that store held, and is otherwise
    what it was with the store kept."""
    code, out, _ = run(capsys, "entail", "--format", "json", EXAMPLE1,
                       "--query", QUERIES)
    assert code == 0
    result = json.loads(out)
    del result["elapsed_ms"]
    kb, queries = (parse_kb(pathlib.Path(p).read_text())
                   for p in (EXAMPLE1, QUERIES))
    kb.vocabulary.merge(occurring_vocabulary(queries.statements))
    closure = spel.reasoner.query_closure(kb, queries.statements)
    closure.support(queries.statements[0])
    held = len(closure.store)
    assert result == {
        "command": "entail",
        "input": EXAMPLE1,
        "verdict": "ENTAILED",
        "fact_count": None,
        "details": {
            "queries": [
                {"query": render_statement(query), "verdict": "ENTAILED",
                 "decided_by": "closure" if n < 5 else "refutation",
                 "subcheck_count": 0 if n < 5 else 1}
                for n, query in enumerate(queries.statements)],
            "closure_fact_count": held,
        },
    }


def test_entail_kind_clash_is_usage_error(capsys, tmp_path, monkeypatch):
    """A query that uses a name of the KB as another kind is a usage error,
    reported before any saturation."""
    def no_saturation(*args, **kwargs):
        raise AssertionError("saturated before the usage error")
    monkeypatch.setattr(spel.reasoner, "saturate", no_saturation)
    kb = write(tmp_path, "kb.spel", "concept A; box * { B sub C; }")
    query = write(tmp_path, "q.spel", "box A { B sub B; }")
    code, out, err = run(capsys, "entail", kb, "--query", query)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "['A']" in err and "two kinds" in err


def test_normalize_roundtrip(capsys, tmp_path):
    path = write(tmp_path, "kb.spel", "dia L { Tumour(b); }")
    code, out, _ = run(capsys, "normalize", path)
    assert code == 0
    reparsed = parse_kb(out, allow_fresh=True)
    assert not isinstance(reparsed, list)
    assert normalize(reparsed) == reparsed


def test_normalize_stats(capsys, tmp_path):
    path = write(tmp_path, "kb.spel", "dia L { Tumour(b); }")
    code, out, _ = run(capsys, "normalize", "--format", "json", "--stats", path)
    payload = json.loads(out)
    assert payload["details"]["input_size"] > 0
    assert payload["details"]["output_size"] > 0


def test_saturate_lists_facts(capsys, tmp_path):
    path = write(tmp_path, "kb.spel", "standpoint H; H <= SN;")
    code, out, _ = run(capsys, "saturate", path)
    assert code == 0
    assert "sharper(H, SN)" in out


def test_export_datalog(capsys, tmp_path):
    outdir = tmp_path / "dl"
    code, out, _ = run(capsys, "export-datalog", EXAMPLE1, "--out", str(outdir))
    assert code == 0
    assert (outdir / "example1.rules.dl").exists()
    assert (outdir / "example1.facts.dl").exists()


def test_oracle_verdicts(capsys, tmp_path):
    sat = write(tmp_path, "sat.spel", "A(a);")
    code, out, _ = run(capsys, "oracle", sat)
    assert code == 0
    assert "domain:" in out
    unsat = write(tmp_path, "unsat.spel", "Top sub Bot;")
    code, out, _ = run(capsys, "oracle", "--max-domain", "2", "--max-prec", "2", unsat)
    assert code == 0
    assert out.strip() == "NoneWithinBounds"


def test_oracle_bounds_below_one_are_usage_errors(capsys, tmp_path):
    """A bound of the model search that is not positive is a usage error
    with one line on stderr."""
    sat = write(tmp_path, "sat.spel", "A(a);")
    for flag, value in (("--max-domain", "0"), ("--max-prec", "0"),
                        ("--max-domain", "-2")):
        code, _, err = run(capsys, "oracle", flag, value, sat)
        assert code == 1, (flag, value)
        assert err.splitlines() == [
            f"error: {flag} must be a positive integer, got {value}"]


def test_usage_error_on_unknown_command(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def _python(code: str) -> str:
    """Run `code` in a fresh interpreter that imports this checkout of
    `spel`; its stdout."""
    src = str(pathlib.Path(spel.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True).stdout


def test_import_compiles_no_joins():
    """Importing the command-line module plans and compiles none of the
    saturation joins: they are made on the first saturation that needs
    them, so the time to start `spel` does not grow with their number."""
    probe = ("import spel.cli\n"
             "from spel import saturation\n"
             "print(saturation._dispatch.cache_info().currsize,\n"
             "      saturation._compile_join.cache_info().currsize)\n")
    assert _python(probe).split() == ["0", "0"]


def test_role_free_saturation_compiles_part_of_the_joins():
    """A saturation compiles the joins of the kinds of fact it reaches,
    when it first reaches one: a KB without roles, role assertions or
    diamonds never needs the joins from role or diamond facts."""
    probe = ("from spel import saturation\n"
             "from spel.parser import parse_kb\n"
             "from spel.preprocess import FACT_SHAPES, prep\n"
             "kb = parse_kb('standpoint S; concept A; concept B;'\n"
             "              'S <= *; box S { A sub B; }')\n"
             "saturation.saturate(prep(kb))\n"
             "used = saturation._compile_join.cache_info().currsize\n"
             "made = {m for shape in FACT_SHAPES\n"
             "        for key in saturation._dispatch(shape)\n"
             "        for m in saturation._joins((shape, *key))}\n"
             "print(used, len(made | set(saturation._joins(None))))\n")
    used, total = map(int, _python(probe).split())
    assert 0 < used < total


def test_import_loads_neither_oracle_nor_datalog():
    """`oracle` and `export-datalog` import the model finder and the
    Datalog writer when they run, so importing the command-line module,
    as every `spel check` and `spel entail` does, loads neither."""
    probe = ("import sys\n"
             "import spel.cli\n"
             "print(sorted({'spel.oracle', 'spel.datalog'}\n"
             "             & set(sys.modules)))\n")
    assert _python(probe).strip() == "[]"


# The parser is built once per process and shared by every `main` call.

def test_trace_does_not_carry_over(capsys):
    code, out, _ = run(capsys, "check", "--trace", MERGED)
    assert code == 0
    assert out.splitlines()[0] == "UNSAT" and "refutation trace:" in out
    code, out, _ = run(capsys, "check", MERGED)
    assert code == 0
    assert out == "UNSAT\n"


def test_entail_options_do_not_carry_over(capsys):
    code, out, _ = run(capsys, "entail", "--format", "json", EXAMPLE1,
                       "--query", QUERIES)
    assert code == 0 and json.loads(out)["command"] == "entail"
    code, out, _ = run(capsys, "check", EXAMPLE1)
    assert code == 0
    assert out == "SAT\n"


def test_usage_error_help_and_check_each_give_their_own_exit(capsys):
    code, out, err = run(capsys, "check", "--bogus", EXAMPLE1)
    assert code == 1
    assert out == "" and "unrecognized arguments: --bogus" in err
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: spel") and err == ""
    code, out, err = run(capsys, "check", EXAMPLE1)
    assert code == 0
    assert (out, err) == ("SAT\n", "")


def test_parser_is_built_once(capsys, monkeypatch):
    """The first `main` call builds the parser; later calls reuse it."""
    cli.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    counts = []
    for argv in (["check", EXAMPLE1], ["check", "--trace", MERGED],
                 ["normalize", EXAMPLE1]):
        assert run(capsys, *argv)[0] == 0
        counts.append(len(built))
    assert counts[0] > 0
    assert counts == [counts[0]] * 3


def test_threads_share_the_parser():
    """Four threads parse their own argv 200 times each through the one
    parser of every `main` call; each parse gives the namespace a
    sequential parse gives, down to the command function."""
    argvs = [["check", "--trace", EXAMPLE1],
             ["entail", "--format", "json", EXAMPLE1, "--query", QUERIES],
             ["oracle", "--max-domain", "2", MERGED],
             ["export-datalog", EXAMPLE1, "--out", "dl"]]
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    expected = [vars(parser.parse_args(argv)) for argv in argvs]
    assert len({e["func"] for e in expected}) == len(argvs)
    mismatches: list = []
    start = threading.Barrier(len(argvs))

    def work(n):
        start.wait()
        for _ in range(200):
            got = vars(cli.build_parser().parse_args(argvs[n]))
            if got != expected[n]:
                mismatches.append((n, got))

    threads = [threading.Thread(target=work, args=(n,))
               for n in range(len(argvs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the parse
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
