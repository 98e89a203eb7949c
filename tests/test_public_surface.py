"""Every public name of spinel is reached by the paper's chain.

A public top-level name of src/spinel/*.py, and every name in
spinel.__all__, stays only if something outside its own definition refers
to it: another line of the package (the re-exports in __init__.py do not
count), the benchmark (perfbench/*.py) or the end-to-end criteria
(tests/test_acceptance.py).  Unit tests do not count: a name only they
reach is dead weight.  A reference is a name or an attribute in code or in
a string annotation; an import alone is not one.

The same holds for the public methods and properties of public classes,
reached only through an attribute (`x.reduced_norm()`, `u.x1`).  Operator
methods are called by syntax (`x * y` calls `__mul__`), so OPERATORS lists
the ones each class keeps, each with a chain expression that needs it, and
any other method with a dunder name fails.  A name that two public classes
define is reached for both as soon as one is called, so SHARED lists each
class's method of such a name with a chain expression that needs it, and a
shared name not listed for a class fails.  KEEP lists the exceptions, top
level names and Class.method alike, each with its reason.

The annotated fields of a public dataclass follow the same rule: a field
stays only if a reader above reads it as an attribute outside its own
line, since a field that nothing reads is computed for nothing.  A field
whose name another public class also defines (as a field, a method or
property, or an attribute set on self) is read for both as soon as one is,
so SHARED_FIELDS lists each such field with a chain expression that reads
it for its own class, and a shared field not listed fails.

Each chain expression is written `<code> in <function>` and must stand in
the function it names, `...` marking a gap: `module.function`,
`Class.method`, or `test_acceptance name` for a def nested in that file,
each looked up in the readers above.
"""

import ast
import pathlib
import re
from collections import defaultdict

import spinel

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinel"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

#: the operator methods each public class keeps: name -> a chain expression that needs it
OPERATORS: dict[str, dict[str, str]] = {
    "WeierstrassCurve": {"__str__": 'f"{E}: {n} points, trace {trace}" in cli._cmd_curves'},
    "FiniteField": {"__str__": 'f" over {F}" in WeierstrassCurve.__str__'},
    "IsogenyClass": {"__str__": "[str(c) for c in classes] in cli._cmd_classify"},
    "RationalFunction": {
        "__eq__": "lhs == rhs in lfunc.verify_identity_exact",
        "__str__": "str(lfunc.zeta_spin(p, n)) in cli._cmd_lfunc",
    },
    "QuaternionAlgebra": {"__str__": 'f"algebra: {s.algebra}" in cli._cmd_spin'},
    "Quaternion": {
        "__mul__": "self.u * x.conjugate() * self.u.inverse() in OrthogonalInvolution.apply",
        "__str__": 'f"int({self.u}) o gamma on {self.algebra}" in OrthogonalInvolution.__str__',
    },
    "QuadraticEtale": {"__str__": 'f"clifford: {s.clifford}" in cli._cmd_spin'},
    "EtaleElement": {"__str__": "str(lift.z) in cli._cmd_spin"},
    "OrthogonalInvolution": {"__str__": 'f"involution: {s.sigma}" in cli._cmd_spin'},
}

#: the methods whose name another public class also defines: name -> a chain expression that needs it
SHARED: dict[str, dict[str, str]] = {
    "WeierstrassCurve": {
        "discriminant": "self.discriminant() == 0 in WeierstrassCurve.__post_init__",
        "to_json": '"coeffs": E.to_json() in cli._cmd_curves',
    },
    "IsogenyClass": {"to_json": "[c.to_json() for c in classes] in cli._cmd_classify"},
    "QuaternionAlgebra": {
        "element": "B.element(*(random_fraction(rng, size) for _ in range(4))) in test_acceptance rand_el",
        "to_json": '"algebra": self.algebra.to_json() in SpinStructure.to_json',
    },
    "Quaternion": {"to_json": '"u": self.sigma.u.to_json() in SpinStructure.to_json'},
    "QuadraticEtale": {"element": "lift.z.square() == lift.z.ring.element(-p) in cli._selftest_spin"},
    "OrthogonalInvolution": {
        "discriminant": "QuadraticEtale(self.discriminant()) in OrthogonalInvolution.clifford_algebra",
    },
    "SpinStructure": {"to_json": "s.to_json() in cli._cmd_spin"},
}

#: the dataclass fields whose name another public class also defines: name -> a chain expression that reads it
SHARED_FIELDS: dict[str, dict[str, str]] = {
    "IsogenyClass": {
        "a": "c.a // 2 in spinstruct.has_arithmetic_spin",
        "p": "quat.b_p_infty(c.p) in spinstruct.has_arithmetic_spin",
    },
    "QuaternionAlgebra": {"a": "B.a == -1 in spinstruct._canonical_u"},
    "Quaternion": {
        "algebra": "OrthogonalInvolution(u.algebra, u) in spinstruct.construct_arithmetic_spin",
        "den": "Quaternion(self.algebra, (x0, -x1, -x2, -x3), self.den) in Quaternion.conjugate",
    },
    "OrthogonalInvolution": {
        "algebra": "SpinStructure(c, sigma.algebra, ...) in spinstruct.construct_arithmetic_spin",
    },
    "SpinStructure": {"algebra": 'f"algebra: {s.algebra}" in cli._cmd_spin'},
    "EtaleElement": {"den": "self.den * self.den in EtaleElement.square"},
    "RationalFunction": {"den": "poly_mul(other.num, self.den) in RationalFunction.__eq__"},
    "WeilRep": {"tau": "K.sqrt_rational(r.tau) in spinstruct.spin_lift"},
}

#: construction hooks, called by the class itself
_HOOKS = {"__init__", "__post_init__"}

#: names kept although nothing above reaches them: name or Class.method -> reason
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


def _members() -> dict[str, dict[str, tuple[pathlib.Path, int, int]]]:
    """class -> {method or property: (module, first line, last line)} of each public class.

    A member is a def, or a class-level alias or property (`__radd__ = __add__`,
    `x0 = property(...)`, `c = property(...)`); plain class attributes such
    as `code` and dataclass fields such as `cn` or `_disc` are not.
    """
    out = {}
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            members = out[node.name] = {}
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    start = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    members[item.name] = (path, start, item.end_lineno)
                elif isinstance(item, ast.Assign) and isinstance(item.value, (ast.Name, ast.Call)):
                    for target in item.targets:
                        members[target.id] = (path, item.lineno, item.end_lineno)
    return out


def _fields() -> dict[str, tuple[pathlib.Path, int, int]]:
    """Class.field -> (module, first line, last line) of each public annotated
    field of a public dataclass."""
    out = {}
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
            if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and not item.target.id.startswith("_"):
                    out[f"{node.name}.{item.target.id}"] = (path, item.lineno, item.end_lineno)
    return out


def _owners() -> dict[str, set[str]]:
    """name -> the public classes that define it: as a dataclass field, as a
    member, or as an attribute set on self (`self.p = p` in FiniteField)."""
    out = defaultdict(set)
    for qualified in _fields():
        cls, name = qualified.split(".")
        out[name].add(cls)
    for cls, members in _members().items():
        for name in members:
            out[name].add(cls)
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
                        if isinstance(sub.value, ast.Name) and sub.value.id == "self":
                            out[sub.attr].add(node.name)
    return out


def _references(attributes_only: bool = False) -> dict[str, set[tuple[pathlib.Path, int]]]:
    refs = defaultdict(set)
    for path in READERS:
        tree = ast.parse(path.read_text())
        if attributes_only:
            used = ((n.attr, n.lineno) for n in ast.walk(tree) if isinstance(n, ast.Attribute))
        else:
            used = _used_names(tree)
        for name, line in used:
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


def test_public_methods_are_reached():
    refs = _references(attributes_only=True)
    unreached = []
    for cls, members in _members().items():
        for name, (path, start, end) in members.items():
            if name.startswith("_") or f"{cls}.{name}" in KEEP:
                continue
            if not any(where != path or not start <= line <= end for where, line in refs[name]):
                unreached.append(f"{cls}.{name}")
    assert unreached == []


def test_public_fields_are_read():
    refs = _references(attributes_only=True)
    unread = []
    for qualified, (path, start, end) in _fields().items():
        name = qualified.split(".")[1]
        if qualified in KEEP:
            continue
        if not any(where != path or not start <= line <= end for where, line in refs[name]):
            unread.append(qualified)
    assert unread == []


def test_fields_cover_the_spin_data():
    # the rule sees public dataclass fields, defaulted ones included, and no
    # private field or plain class attribute
    fields = _fields()
    assert {"SpinExistence.witness", "RealizationData.weight", "EtaleElement.den"} <= set(fields)
    assert "OrthogonalInvolution._disc" not in fields and "SpinelError.code" not in fields


def test_coordinate_properties_are_members():
    # Quaternion and EtaleElement keep int numerators over one denominator as
    # dataclass fields, which are not members; the Fraction coordinates read
    # off them are, so the reach check covers them
    members = _members()
    assert {"x0", "x1", "x2", "x3"} <= set(members["Quaternion"])
    assert {"c", "d"} <= set(members["EtaleElement"])
    fields = {"nums", "den", "cn", "dn"}
    assert not fields & (set(members["Quaternion"]) | set(members["EtaleElement"]))


def test_operator_methods_are_listed():
    # a deleted operator that comes back (Quaternion.__add__, say) is unlisted
    found = {
        f"{cls}.{name}"
        for cls, members in _members().items()
        for name in members
        if name.startswith("__") and name.endswith("__") and name not in _HOOKS
    }
    listed = {f"{cls}.{name}" for cls, ops in OPERATORS.items() for name in ops}
    kept = {name for name in KEEP if ".__" in name}
    assert found == listed | kept
    assert not listed & kept


def test_shared_method_names_are_listed():
    # EtaleElement.conjugate would otherwise pass as reached through Quaternion.conjugate
    owners = defaultdict(set)
    for cls, members in _members().items():
        for name in members:
            if not name.startswith("_"):
                owners[name].add(cls)
    shared = {f"{cls}.{name}" for name, classes in owners.items() if len(classes) > 1 for cls in classes}
    listed = {f"{cls}.{name}" for cls, names in SHARED.items() for name in names}
    assert shared == listed


def test_shared_field_names_are_listed():
    # a field only the unit tests read, IdentityProof.p say, would otherwise
    # pass as read through IsogenyClass.p or FiniteField's attribute p
    owners = _owners()
    assert {"IsogenyClass", "FiniteField"} <= owners["p"]
    shared = {name for name in _fields() if len(owners[name.split(".")[1]]) > 1}
    listed = {f"{cls}.{name}" for cls, names in SHARED_FIELDS.items() for name in names}
    assert shared == listed


def test_keep_entries_give_reasons():
    members = {f"{cls}.{name}" for cls, names in _members().items() for name in names}
    assert set(KEEP) <= set(_definitions()) | members | set(_fields())
    assert all(isinstance(why, str) and why.strip() for why in KEEP.values())
    for table in (OPERATORS, SHARED, SHARED_FIELDS):
        assert all(isinstance(why, str) and why.strip() for ops in table.values() for why in ops.values())


def _function_source(where: str) -> str:
    """The source of the function a chain expression names, nested defs
    included, its whitespace runs collapsed to one space; "" if none."""
    scope, _, name = where.replace(" ", ".").rpartition(".")
    for path in READERS:
        text = path.read_text()
        tree = ast.parse(text)
        scopes = [tree] if path.stem == scope else [c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == scope]
        for node in (n for s in scopes for n in ast.walk(s)):
            if isinstance(node, ast.FunctionDef) and node.name == name:
                return " ".join(ast.get_source_segment(text, node).split())
    return ""


def test_chain_expressions_are_in_the_functions_they_name():
    # an entry that cites code since moved or deleted no longer shows that
    # the class needs the name
    missing = []
    for table in (OPERATORS, SHARED, SHARED_FIELDS):
        for cls, entries in table.items():
            for name, entry in entries.items():
                code, _, where = entry.rpartition(" in ")
                pattern = ".*?".join(re.escape(" ".join(part.split())) for part in code.split("..."))
                if not re.search(pattern, _function_source(where)):
                    missing.append(f"{cls}.{name}: {entry}")
    assert missing == []


def test_no_randomized_route():
    # the library has one deterministic code path: no module imports random
    # and no function takes an rng to choose its own route
    found = []
    for path in MODULES + [PACKAGE / "__init__.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [f"{path.name}: import {a.name}" for a in node.names if a.name.split(".")[0] == "random"]
            elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "random":
                found.append(f"{path.name}: from {node.module} import")
            elif isinstance(node, ast.FunctionDef):
                args = node.args
                every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                if "rng" in {a.arg for a in every if a is not None}:
                    found.append(f"{path.name}: {node.name}(rng)")
    assert found == []
