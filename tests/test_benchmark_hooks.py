"""The names the benchmark reads from expobasis still exist: the functions its
tracer wraps, and every attribute and keyword argument its scripts use."""

import ast
import contextlib
import importlib
import inspect
import runpy
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_traced_function_resolves():
    targets = runpy.run_path(str(TRACING), run_name="perfbench_tracing")["TARGETS"]
    missing = [f"{module}.{name}"
               for module, names, _ in targets.values()
               for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert targets and not missing, missing


def _bound_names(tree) -> dict[str, str]:
    """Local name -> dotted expobasis path, for each import of expobasis."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "expobasis":
                    # "import expobasis.cli" binds expobasis, "... as c" binds the submodule
                    bound[alias.asname or "expobasis"] = alias.name if alias.asname else "expobasis"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "expobasis":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bound


def _dotted(node, bound) -> str | None:
    """``xb.GramForm.build`` -> "expobasis.GramForm.build" when ``xb`` is bound."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in bound:
        return ".".join([bound[node.id], *reversed(attrs)])
    return None


def _resolve(dotted: str):
    """The object a dotted path names, importing expobasis modules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if inspect.ismodule(obj) and not hasattr(obj, part):
            with contextlib.suppress(ModuleNotFoundError):  # a submodule not imported yet
                importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def _benchmark_reads():
    """(place, dotted path, keyword names) for every expobasis name a perfbench
    script reads, with the keywords of the calls made through it."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        bound = _bound_names(tree)
        for node in ast.walk(tree):
            place = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.Attribute, ast.Name)) and (name := _dotted(node, bound)):
                yield place, name, ()
            elif isinstance(node, ast.Call) and (name := _dotted(node.func, bound)):
                yield place, name, tuple(k.arg for k in node.keywords if k.arg is not None)


def test_every_name_the_benchmark_reads_resolves():
    reads = list(_benchmark_reads())
    missing = []
    for place, name, _ in reads:
        try:
            _resolve(name)
        except AttributeError:
            missing.append(f"{place} {name}")
    assert {name for _, name, _ in reads} >= {
        "expobasis.riesz_ratio_sample", "expobasis.GramForm.build",
        "expobasis.verify_certificate", "expobasis.jsonio.dumps", "expobasis.cli.main"}
    assert not missing, missing


def _unknown_keywords(reads) -> list[str]:
    """The keyword arguments of ``reads`` that their callee does not take."""
    unknown = []
    for place, name, keywords in reads:
        if not keywords:
            continue
        params = inspect.signature(_resolve(name)).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        unknown += [f"{place} {name}({k}=)" for k in keywords if k not in params]
    return unknown


def test_every_keyword_the_benchmark_passes_is_accepted():
    assert not _unknown_keywords(_benchmark_reads())


def test_a_keyword_the_callee_dropped_is_reported():
    reads = [("ladder.py:1", "expobasis.riesz_ratio_sample", ("trials", "refine"))]
    assert _unknown_keywords(reads) == ["ladder.py:1 expobasis.riesz_ratio_sample(refine=)"]


@pytest.mark.parametrize("source, expected", [
    ("import expobasis as xb\nxb.gone(1)", ["expobasis.gone"]),
    ("from expobasis import jsonio\njsonio.gone", ["expobasis.jsonio.gone"]),
    ("import expobasis.cli\nexpobasis.GramForm.gone", ["expobasis.GramForm.gone"]),
], ids=["import-as", "from-import", "dotted-import"])
def test_the_scan_sees_each_import_form(source, expected):
    tree = ast.parse(source)
    bound = _bound_names(tree)
    dotted = {_dotted(node, bound) for node in ast.walk(tree)} - {None}
    assert [d for d in dotted if d.endswith("gone")] == expected
    with pytest.raises(AttributeError):
        _resolve(expected[0])
