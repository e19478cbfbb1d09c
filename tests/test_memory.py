"""Repeated library calls hold no memory that only a full collection frees.

On CPython, ``tuple(<generator>)`` and ``f(*<generator>)`` build a tuple
whose length is not known in advance: they take a 10-slot tuple and shrink
it.  When the result is freed it lands on the free list for its final size,
so every call adds one entry to that list (up to 2,000 per size) until a
full garbage collection clears it.  Building from a list gives a tuple of
the exact size, which is taken from and returned to the same free list.
"""

import ast
import gc
import tracemalloc
from pathlib import Path

import expobasis as xb
from expobasis import jsonio

SRC = Path(__file__).resolve().parent.parent / "src" / "expobasis"


def _generator_tuple_sites(tree: ast.AST, name: str) -> list[str]:
    sites = []
    for node in sorted(ast.walk(tree), key=lambda n: getattr(n, "lineno", 0)):
        if not isinstance(node, ast.Call):
            continue
        sole_generator = (isinstance(node.func, ast.Name) and node.func.id == "tuple"
                          and len(node.args) == 1 and not node.keywords
                          and isinstance(node.args[0], ast.GeneratorExp))
        starred_generator = any(isinstance(arg, ast.Starred) and isinstance(arg.value, ast.GeneratorExp)
                                for arg in node.args)
        if sole_generator or starred_generator:
            sites.append(f"{name}:{node.lineno}")
    return sites


def test_no_tuple_is_built_from_a_generator():
    sites = [site
             for path in sorted(SRC.glob("*.py"))
             for site in _generator_tuple_sites(ast.parse(path.read_text(), str(path)), path.name)]
    assert not sites, f"build these tuples from a list, not a generator: {sites}"


def test_the_guard_sees_both_forms():
    tree = ast.parse("a = tuple(x for x in xs)\nb = f(1, *(x for x in xs))\nc = tuple([x for x in xs])\n")
    assert _generator_tuple_sites(tree, "m.py") == ["m.py:1", "m.py:2"]


def test_oracle_pipeline_memory_stays_flat():
    cert = xb.construct_interval_removal(17, 5, 0.003)

    def once():
        matrix, _ = xb.associated_matrix(cert)
        xb.singular_values(matrix)
        xb.certificate_from_json(jsonio.loads(jsonio.dumps(xb.certificate_to_json(cert))))

    tracemalloc.start()
    try:
        for _ in range(20):
            once()
        gc.collect()  # empties the free lists: the growth below is what 200 calls leave there
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(200):
            once()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 96 * 1024, f"traced memory grew by {growth / 1024:.1f} KB over 200 calls"


def test_dumps_leaves_nothing_for_the_cyclic_collector():
    doc = xb.certificate_to_json(xb.construct_interval_removal(17, 5, 0.003))
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            jsonio.dumps(doc)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0, f"100 calls left {unreachable} objects in reference cycles"
