"""Datalog code generation for the saturation calculus.

`export` turns a seed fact store into a two-part Datalog program: a rules
file generated from the shared rule table, with one predicate per shape of
`preprocess.FACT_SHAPES`, and a facts file holding one ground atom per
seed fact plus vocabulary-helper atoms. Running the program in any Datalog
engine materializes the same closure the native engine computes; the
knowledge base is inconsistent exactly when the fixpoint contains
gci_nested("STAR","TOP","STAR","TOP","BOT").

Encoding conventions:
  * all constants are quoted strings; the universal standpoint, top and
    bottom concepts are the fixed constants "STAR", "TOP" and "BOT";
  * nominal concepts are encoded "NOM:<individual>" and self-loop concepts
    "SELF:<role>", with translation atoms nom_of/self_of linking each
    encoded constant to its raw name so rules can destructure them;
  * vocabulary helpers is_sn/is_rn/is_cn/is_nom enumerate the registered
    universes (is_cn covers the extended concept universe: concept names,
    nominals, self-loops, "TOP" and "BOT").
"""

from __future__ import annotations

from .model import UNIVERSAL
from .preprocess import FACT_SHAPES, FactStore
from .rules import RULES, Rule, Var, is_nested

#: Predicate signatures, in declaration order: the fact shapes, then the
#: vocabulary helpers.
PREDICATES: tuple[tuple[str, tuple[str, ...]], ...] = tuple(
    (shape, tuple(name for name, _ in positions))
    for shape, positions in FACT_SHAPES.items()) + (
    ("is_sn", ("s",)),
    ("is_rn", ("r",)),
    ("is_cn", ("c",)),
    ("is_nom", ("c",)),
    ("nom_of", ("c", "a")),
    ("self_of", ("c", "r")),
)

#: per universe kind, the body atom that ranges a variable over it
_RANGE_ATOM = {"standpoint": "is_sn({})", "role": "is_rn({})",
               "concept": "is_cn({})", "individual": "is_nom(nom_{})"}


def _const(value) -> str:
    """Quote a term (standpoint, role, individual, or extended concept)."""
    if isinstance(value, tuple):
        kind = value[0]
        if kind == "top":
            text = "TOP"
        elif kind == "bot":
            text = "BOT"
        elif kind == "cn":
            text = value[1]
        elif kind == "nom":
            text = "NOM:" + value[1]
        else:
            text = "SELF:" + value[1]
    elif value == UNIVERSAL:
        text = "STAR"
    else:
        text = value
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _term(term) -> str:
    if isinstance(term, Var):
        return term.name
    if is_nested(term) and isinstance(term[1], Var):
        return f"{term[0]}_{term[1].name}"
    return _const(term)


def _atom(pattern) -> str:
    return f"{pattern[0]}({','.join(_term(t) for t in pattern[1:])})"


def rule_to_datalog(rule: Rule) -> str:
    """One Datalog rule; extra body atoms destructure nominal/self
    constants and enumerate range variables over the vocabulary."""
    terms = [t for p in rule.premises + (rule.conclusion,) for t in p[1:]]
    raw = {t.name for t in terms if isinstance(t, Var)}
    nested = {(t[0], t[1].name) for t in terms
              if is_nested(t) and isinstance(t[1], Var)}
    body = [_atom(p) for p in rule.premises]
    body += [f"{tag}_of({tag}_{name},{name})"
             for tag, name in sorted(nested) if name in raw]
    body += [_RANGE_ATOM[kind].format(var) for var, kind in rule.ranges]
    return f"{_atom(rule.conclusion)} :- {', '.join(body)}."


def _vocabulary_atoms(store: FactStore) -> list[str]:
    uni = store.universes
    roles, noms = uni.of("role"), uni.of("individual")
    lines = [f"is_sn({_const(s)})." for s in uni.of("standpoint")]
    lines += [f"is_rn({_const(r)})." for r in roles]
    lines += [f"is_nom({_const(('nom', a))})." for a in noms]
    lines += [f"is_cn({_const(c)})." for c in uni.of("concept")]
    lines += [f"nom_of({_const(('nom', a))},{_const(a)})." for a in noms]
    lines += [f"self_of({_const(('self', r))},{_const(r)})." for r in roles]
    return lines


def export(store: FactStore) -> dict[str, str]:
    """Render `store` (an unsaturated seed) as a Datalog program.

    Returns {"rules_text": ..., "facts_text": ...}. Output is a pure
    function of the store contents, so identical stores yield
    byte-identical text.
    """
    decls = [f".decl {name}({', '.join(f'{a}:symbol' for a in args)})"
             for name, args in PREDICATES]
    rule_lines = []
    for rule in RULES:
        rule_lines.append(f"// ({rule.name})")
        rule_lines.append(rule_to_datalog(rule))
    rules_text = "\n".join(
        ["// Deduction rules for the standpoint EL+ saturation calculus.",
         "// Inconsistency criterion: the fixpoint contains",
         '// gci_nested("STAR","TOP","STAR","TOP","BOT").']
        + decls + rule_lines + [".output gci_nested"]) + "\n"

    seed_lines = sorted(
        f"{f[0]}({','.join(_const(t) for t in f[1:])})." for f in store.facts)
    facts_text = "\n".join(["// Vocabulary helpers."]
                           + _vocabulary_atoms(store)
                           + ["// Seed facts."] + seed_lines) + "\n"
    return {"rules_text": rules_text, "facts_text": facts_text}


def write_program(store: FactStore, out_dir, name: str) -> list[str]:
    """Write `<name>.rules.dl` and `<name>.facts.dl` under `out_dir`."""
    import os

    parts = export(store)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for kind in ("rules", "facts"):
        path = os.path.join(out_dir, f"{name}.{kind}.dl")
        with open(path, "w") as handle:
            handle.write(parts[f"{kind}_text"])
        paths.append(path)
    return paths
