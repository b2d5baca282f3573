"""The benchmark uses lunet names: `bench/workloads.py` calls
`tracer.wrap(<owner>, "<attr>", ...)` with owners such as `cli` or
`train.RmsProp`, and every `bench/*.py` reads attributes of the lunet modules
it imports (`model.LuNetSpec.from_mapping`, `train.TrainConfig`, ...). A
rename in `src/lunet` breaks only the benchmark, whose smoke test lies
outside `testpaths`, so these tests read those names from the syntax trees of
the `bench/` files, without importing `bench/`, and look each one up in
`lunet`."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = BENCH / "workloads.py"


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
    missing = [f"{path}.{name}" for path, name in sorted(wrapped_names())
               if not resolves(f"lunet.{path}.{name}")]
    assert not missing, f"bench/workloads.py wraps names lunet lacks: {missing}"


_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _bindings(scope) -> dict[str, str | None]:
    """Each name `scope` binds: an import from lunet maps to its dotted path,
    any other binding (a parameter, an assignment, a def) to None."""
    out = {}
    if not isinstance(scope, (ast.Module, ast.ClassDef)):
        a = scope.args
        out.update((arg.arg, None) for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                               a.vararg, a.kwarg] if arg)
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out[node.id] = None
        elif isinstance(node, ast.Import):
            for a in node.names:
                bound = a.asname or a.name.split(".")[0]
                path = a.name if a.asname else bound
                out[bound] = path if path.split(".")[0] == "lunet" else None
        elif isinstance(node, ast.ImportFrom):
            lunet = node.level == 0 and node.module.split(".")[0] == "lunet"
            out.update((a.asname or a.name, f"{node.module}.{a.name}" if lunet else None)
                       for a in node.names)
        if isinstance(node, _SCOPES):
            if not isinstance(node, ast.Lambda):
                out[node.name] = None
        else:
            todo.extend(ast.iter_child_nodes(node))
    return out


class _Chains(ast.NodeVisitor):
    """Collects the dotted path in lunet of every attribute chain whose root
    name, in its scope, is bound by an import from lunet."""

    def __init__(self):
        self.scopes: list[dict] = []
        self.paths: set[str] = set()

    def generic_visit(self, node):
        if isinstance(node, _SCOPES):
            self.scopes.append(_bindings(node))
            super().generic_visit(node)
            self.scopes.pop()
        else:
            super().generic_visit(node)

    def visit_Attribute(self, node):
        attrs, root = [], node
        while isinstance(root, ast.Attribute):
            attrs.append(root.attr)
            root = root.value
        if isinstance(root, ast.Name):
            path = next((s[root.id] for s in reversed(self.scopes) if root.id in s), None)
            if path is not None:
                self.paths.add(".".join([path, *reversed(attrs)]))
        self.generic_visit(node)


def lunet_chains(source: str) -> set[str]:
    visitor = _Chains()
    visitor.visit(ast.parse(source))
    return visitor.paths


def bench_chains() -> set[str]:
    return set().union(*(lunet_chains(p.read_text()) for p in sorted(BENCH.glob("*.py"))))


def resolves(path: str) -> bool:
    """Whether the dotted path names something in lunet; a submodule that
    its parent has not imported yet is imported."""
    parts = path.split(".")
    owner = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if hasattr(owner, part):
            owner = getattr(owner, part)
            continue
        try:
            owner = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            return False
    return True


def test_the_chain_parse_follows_scopes():
    source = """
from lunet import model
import lunet.train as t
def shadowed(model):
    return model.not_lunet
def local():
    from lunet import data
    return data.load_csv, model.LuNetSpec.from_mapping, t.fit
"""
    assert lunet_chains(source) == {"lunet.data.load_csv", "lunet.model.LuNetSpec",
                                    "lunet.model.LuNetSpec.from_mapping", "lunet.train.fit"}


def test_the_chain_parse_finds_the_probe_names():
    assert {"lunet.model.LuNetSpec.from_mapping", "lunet.train.TrainConfig",
            "lunet.checkpoint.load_checkpoint", "lunet.data.NSL_KDD"} <= bench_chains()


def test_every_name_the_benchmark_reads_exists_in_lunet():
    missing = sorted(p for p in bench_chains() if not resolves(p))
    assert not missing, f"bench/ reads names lunet lacks: {missing}"
