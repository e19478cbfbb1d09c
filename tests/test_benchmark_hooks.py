"""The functions the benchmark's tracer wraps by name still exist in expobasis."""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    targets = runpy.run_path(str(TRACING), run_name="perfbench_tracing")["TARGETS"]
    missing = [f"{module}.{name}"
               for module, names, _ in targets.values()
               for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert targets and not missing, missing
