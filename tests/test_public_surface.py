"""Every public name of spinel is reached by the paper's chain.

A public top-level name of src/spinel/*.py, and every name in
spinel.__all__, stays only if something outside its own definition refers
to it: another line of the package (the re-exports in __init__.py do not
count), the benchmark (perfbench/*.py) or the end-to-end criteria
(tests/test_acceptance.py).  Unit tests do not count: a name only they
reach is dead weight.  A reference is a name or an attribute in code or in
a string annotation; an import alone is not one.  KEEP lists the
exceptions, each with its reason.
"""

import ast
import pathlib
from collections import defaultdict

import spinel

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinel"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

#: public names kept although nothing above reaches them: name -> reason
KEEP: dict[str, str] = {}


def _definitions() -> dict[str, list[tuple[pathlib.Path, int, int]]]:
    """name -> [(module, first line, last line)] of each public top-level definition."""
    out = defaultdict(list)
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                start = node.lineno
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names, start = [node.target.id], node.lineno
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    out[name].append((path, start, node.end_lineno))
    return out


def _used_names(tree: ast.AST, line_offset: int = 0):
    """(name, line) of every Name and Attribute, string annotations included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno + line_offset
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno + line_offset
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                yield from _used_names(ast.parse(ann.value, mode="eval"), ann.lineno - 1)


def _references() -> dict[str, set[tuple[pathlib.Path, int]]]:
    refs = defaultdict(set)
    for path in READERS:
        for name, line in _used_names(ast.parse(path.read_text())):
            refs[name].add((path, line))
    return refs


def _unreached(names) -> list[str]:
    defs, refs = _definitions(), _references()

    def outside(name):
        return any(
            not any(path == where and start <= line <= end for where, start, end in defs[name])
            for path, line in refs[name]
        )

    return sorted(name for name in names if name not in KEEP and not outside(name))


def test_public_top_level_names_are_reached():
    assert _unreached(_definitions()) == []


def test_exported_names_are_reached():
    assert set(spinel.__all__) <= set(_definitions()) | set(KEEP)
    assert _unreached(spinel.__all__) == []


def test_keep_entries_give_reasons():
    assert set(KEEP) <= set(_definitions())
    assert all(isinstance(why, str) and why.strip() for why in KEEP.values())
