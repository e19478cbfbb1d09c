"""Each module's ``__all__`` names only what the module defines, and the package
re-exports only names its home modules export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import expobasis

PACKAGE = Path(expobasis.__file__).parent
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(PACKAGE)]))


def _exported(module: str) -> set[str]:
    """The names ``from expobasis.<module> import *`` binds."""
    namespace: dict = {}
    exec(f"from expobasis.{module} import *", namespace)
    return set(namespace) - {"__builtins__"}


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"expobasis.{name}")
    stale = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not stale, stale


def test_every_reexport_is_in_its_home_modules_all():
    """Eager re-exports are the top-level ``from .x import`` names of
    ``__init__.py``; lazy ones are its ``_LAZY`` table.  Each is in its home
    module's ``__all__``, no name is both, and together they are ``__all__``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    eager = [(alias.name, node.module) for node in imports for alias in node.names]
    lazy = list(expobasis._LAZY.items())
    missing = [f"{module}.{name}" for name, module in eager + lazy
               if name not in _exported(module)]
    assert imports and lazy and not missing, missing
    assert not {name for name, _ in eager} & set(expobasis._LAZY)
    assert sorted(name for name, _ in eager + lazy) == sorted(expobasis.__all__)


def test_the_star_import_binds_every_reexport():
    namespace: dict = {}
    exec("from expobasis import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(expobasis.__all__)
    assert all(namespace[name] is getattr(expobasis, name) for name in expobasis.__all__)
    assert set(expobasis.__all__) <= set(dir(expobasis))
    assert not hasattr(expobasis, "no_such_name")


def test_a_lazy_reexport_is_imported_once_and_kept(monkeypatch):
    from expobasis import verify
    monkeypatch.delitem(vars(expobasis), "verify_certificate", raising=False)
    assert expobasis.verify_certificate is verify.verify_certificate
    assert vars(expobasis)["verify_certificate"] is verify.verify_certificate


def test_every_concrete_error_class_is_raised():
    """Each class of ``expobasis.errors`` that has no subclass is raised by name
    somewhere in the package, so no error type outlives its last raise."""
    from expobasis import errors
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__]
    concrete = {c.__name__ for c in classes
                if not any(o is not c and issubclass(o, c) for o in classes)}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert concrete and not concrete - raised, sorted(concrete - raised)


def test_only_constructions_spells_the_rational_form():
    """The v1 document writes each rational as ``{"num": p, "den": q}``, and
    ``constructions.py`` alone writes and reads it.  A second module that spells
    those keys is a second codec of the format, to be kept in step by hand."""
    owners = {path.name for path in PACKAGE.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Constant) and node.value in ("num", "den")}
    assert owners == {"constructions.py"}, sorted(owners)
