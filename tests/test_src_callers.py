"""Every name that `src/lunet` defines has a caller in `src/lunet` itself.

A module-level function, class or constant, or a method, that only tests
reach is dead weight, and so is a dataclass field nothing reads: this walks
the package with `ast` and fails on any definition nothing in the package
refers to. A module-level name counts as used through a bare `Name`, an
`Attribute` or an import; a method, property, class-level constant or
annotated field only through an attribute load (`obj.name`), so a local
variable or keyword argument of the same name does not keep it alive. Names
are matched bare, not by class: two methods with the same name still hide
each other (an unused `LSTM.step` once passed because `RmsProp.step` is
called).

A name with a leading underscore belongs to its module: no other module in
`src/lunet` imports it or reads it through the module's name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lunet"

# Kept without a production caller, each for the reason given. Empty: the
# tests' own helpers (such as `report_parser.parse_report`) live in tests/.
ALLOWED: set = set()


def _assigned(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for t in targets:
        for n in ast.walk(t):
            if isinstance(n, ast.Name):
                yield n.id


def definitions(tree: ast.Module):
    """(qualified name, bare name, is class member) of every module-level
    function, class and constant, and every method, class-level constant and
    annotated class attribute (dataclass field)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in _assigned(node):
                yield name, name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name, True
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    for name in _assigned(item):
                        yield f"{node.name}.{name}", name, True


def references(tree: ast.Module):
    """(kind, name) of every load: "attr" for `obj.name`, "name" for a bare
    `Name` or an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield "name", node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield "attr", node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (("name", alias.name) for alias in node.names)


def test_every_src_name_has_a_production_caller():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    refs = {ref for tree in trees.values() for ref in references(tree)}
    attrs = {name for kind, name in refs if kind == "attr"}
    used = {name for _, name in refs}
    unused = sorted(
        f"{module}:{qualified}"
        for module, tree in trees.items()
        for qualified, bare, member in definitions(tree)
        if not (bare.startswith("__") and bare.endswith("__"))
        and bare not in (attrs if member else used) and bare not in ALLOWED)
    assert not unused, f"defined in src/lunet but never used there: {unused}"
    assert not ALLOWED & used, "an allowlisted name gained a caller; drop it from ALLOWED"


def private_reads(tree: ast.Module):
    """Every name with a leading underscore (dunders aside) that `tree` reads
    from another lunet module: `from .x import _name`, or `x._name` where
    `x` is bound to a lunet module by `from . import x` (with or without an
    `as`)."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_") and not alias.name.endswith("__"):
                    yield f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.endswith("__")):
            yield f"{node.value.id}.{node.attr}"


def test_no_module_reads_another_modules_private_names():
    reads = sorted(f"{path.name}: {name}" for path in SRC.glob("*.py")
                   for name in private_reads(ast.parse(path.read_text(encoding="utf-8"))))
    assert not reads, f"private names read across src/lunet modules: {reads}"
