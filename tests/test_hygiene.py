"""Every name a module of the package imports is used in that module, so
is every private name it defines at module level, and every attribute it
assigns on `self` is read somewhere in the package.

No linter is configured, so these stdlib AST scans are the guard against
dead imports, dead private helpers and dead instance state."""

import ast
import pathlib

import spel

PACKAGE = pathlib.Path(spel.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "b (line 2)", "os (line 1)"]


def unused_private_names(source: str) -> list[str]:
    """Module-level names starting with `_` (functions, classes and
    assigned names) that the module never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(defined.items())
            if name.startswith("_") and not name.startswith("__")
            and name not in read]


def test_no_unused_private_names():
    found = {path.name: unused_private_names(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def test_scan_finds_an_unused_private_name():
    source = ("_A, _B = 1, 2\n_C: int = 3\n__all__ = []\n"
              "def _f(): return _A\nclass _K: pass\ndef g(): _C = 4\n"
              "PUBLIC = 5\n")
    assert unused_private_names(source) == [
        "_B (line 1)", "_C (line 2)", "_K (line 5)", "_f (line 4)"]


def unread_attributes(sources: dict[str, str]) -> list[str]:
    """Attributes that the modules in `sources` (file name -> source)
    assign as `self.<name>` and that none of them reads as `<x>.<name>`;
    an augmented assignment reads its target."""
    assigned, read = {}, set()
    for filename, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.AugAssign) and isinstance(
                    node.target, ast.Attribute):
                read.add(node.target.attr)
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "self":
                assigned.setdefault(node.attr, f"{filename} line {node.lineno}")
    return [f"{name} ({where})" for name, where in sorted(assigned.items())
            if name not in read]


def test_no_unread_attributes():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_attributes(sources) == []


def test_scan_finds_an_unread_attribute():
    sources = {
        "a.py": ("class K:\n    def __init__(self):\n        self.x = 1\n"
                 "        self.y = 2\n        self.n = 0\n"
                 "    def bump(self):\n        self.n += 1\n"),
        "b.py": "def f(k):\n    return k.x\n",
    }
    assert unread_attributes(sources) == ["y (a.py line 4)"]
