"""Every name a module of the package exports through ``__all__`` exists,
so ``from omegaflow.<module> import *`` never fails on a stale entry; no
module imports a name it neither uses nor exports, and no function imports
again what its module imports at top level."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import omegaflow

MODULES = sorted(m.name for m in pkgutil.iter_modules(omegaflow.__path__))


def test_modules_found():
    assert {"config", "measures", "transport", "energies", "jko", "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"omegaflow.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"omegaflow.{name}.__all__ names {missing}"


# imports kept on purpose although the module never reads them:
# ``__init__`` loads its submodules, and perfbench's tracer test patches
# ``jko.w2_exact``
_UNUSED_IMPORTS_ALLOWED = {
    "__init__": {"measures", "moduli", "transport"},
    "jko": {"w2_exact"},
}


def _bound_names(node) -> list:
    """The names an import statement binds ([] for any other node)."""
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names]
    return []


def unused_imports(source: str) -> list:
    """Names a module's source imports (at top level or inside a function)
    but neither reads anywhere nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = []
    exported: set = set()
    for node in ast.walk(tree):
        imported += _bound_names(node)
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in imported if name not in used | exported]


def test_unused_import_guard_detects_a_stale_import():
    src = ("import json\nimport math\nfrom .a import b, c\n__all__ = ['c']\n"
           "def f():\n    from .d import e, g\n    return math.pi + g\n")
    assert unused_imports(src) == ["json", "b", "e"]


def local_reimports(source: str) -> list:
    """Names that a function of a module's source imports although the
    module's top level already imports them, or imports from their module."""
    tree = ast.parse(source)
    functions = [n for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    local = {id(n) for f in functions for n in ast.walk(f)}
    origin = lambda n: (n.level, n.module) if isinstance(n, ast.ImportFrom) else None
    top = {name for n in ast.walk(tree) if id(n) not in local
           for name in _bound_names(n)}
    top_origins = {origin(n) for n in ast.walk(tree)
                   if id(n) not in local and _bound_names(n)} - {None}
    return [name for n in ast.walk(tree) if id(n) in local
            for name in _bound_names(n) if name in top or origin(n) in top_origins]


def test_local_reimport_guard_detects_a_reimport():
    src = ("import math\nfrom .a import b\n"
           "def f():\n    import math\n    from .a import b, c\n"
           "    def g():\n        from .d import b\n    return g\n"
           "class K:\n    def h(self):\n        from .e import d\n")
    assert local_reimports(src) == ["math", "b", "c", "b"]


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_local_reimports(name):
    path = pathlib.Path(omegaflow.__file__).with_name(f"{name}.py")
    again = local_reimports(path.read_text())
    assert not again, f"omegaflow/{name}.py imports {again} again inside a function"


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_unused_imports(name):
    path = pathlib.Path(omegaflow.__file__).with_name(f"{name}.py")
    stale = [n for n in unused_imports(path.read_text())
             if n not in _UNUSED_IMPORTS_ALLOWED.get(name, set())]
    assert not stale, f"omegaflow/{name}.py imports {stale} and never uses them"
