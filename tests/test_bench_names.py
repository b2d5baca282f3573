"""The benchmark wraps lunet functions by name: `bench/workloads.py` calls
`tracer.wrap(<owner>, "<attr>", ...)` with owners such as `cli` or
`train.RmsProp`. A rename in `src/lunet` breaks only the benchmark, whose
smoke test lies outside `testpaths`, so these tests read the wrapped names
from the syntax tree of `bench/workloads.py`, without importing `bench/`,
and look each one up in `lunet`."""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


class _Wraps(ast.NodeVisitor):
    """Collects (enclosing function, owner expression, attribute names) of
    every `.wrap(owner, attr, ...)` call; an attribute that is the variable
    of a loop over a tuple of strings stands for each of them."""

    def __init__(self):
        self.calls = []
        self.func = None
        self.loops: dict[str, list[str]] = {}

    def visit_FunctionDef(self, node):
        outer, self.func = self.func, node
        self.generic_visit(node)
        self.func = outer

    def visit_For(self, node):
        items = getattr(node.iter, "elts", None)
        if isinstance(node.target, ast.Name) and items is not None \
                and all(isinstance(e, ast.Constant) for e in items):
            self.loops[node.target.id] = [e.value for e in items]
        self.generic_visit(node)

    def visit_Call(self, node):
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "wrap" and len(node.args) >= 2:
            attr = node.args[1]
            names = [attr.value] if isinstance(attr, ast.Constant) else self.loops[attr.id]
            self.calls.append((self.func, node.args[0], names))
        self.generic_visit(node)


def wrapped_names() -> set[tuple[str, str]]:
    """(owner path in lunet, attribute) of every wrap whose owner is a lunet
    module or an attribute of one. An owner that is a parameter of the
    enclosing function stands for each argument its callers pass there;
    other owners (layer and model instances) are made at run time."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "lunet"
               for a in node.names}
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]

    def owner_paths(owner, func) -> list[str]:
        if isinstance(owner, ast.Attribute):
            return [f"{p}.{owner.attr}" for p in owner_paths(owner.value, func)]
        if not isinstance(owner, ast.Name):
            return []
        if owner.id in modules:
            return [owner.id]
        params = [a.arg for a in func.args.args] if func is not None else []
        if owner.id not in params:
            return []
        k = params.index(owner.id)
        return [p for c in calls
                if isinstance(c.func, ast.Name) and c.func.id == func.name and len(c.args) > k
                for p in owner_paths(c.args[k], None)]

    visitor = _Wraps()
    visitor.visit(tree)
    return {(path, name) for func, owner, names in visitor.calls
            for path in owner_paths(owner, func) for name in names}


def test_the_parse_finds_the_wrapped_names():
    names = wrapped_names()
    assert {("cli", "predict_batched"), ("cli", "render_report"),
            ("train.RmsProp", "step"), ("data", "fit_standardization"),
            ("cli", "load_csv"), ("data", "load_csv")} <= names


def test_every_wrapped_name_exists_in_lunet():
    missing = []
    for path, name in sorted(wrapped_names()):
        module, *rest = path.split(".")
        owner = importlib.import_module(f"lunet.{module}")
        for part in rest + [name]:
            if not hasattr(owner, part):
                missing.append(f"{path}.{name}")
                break
            owner = getattr(owner, part)
    assert not missing, f"bench/workloads.py wraps names lunet lacks: {missing}"
