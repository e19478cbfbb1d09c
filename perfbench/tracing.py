"""Spans around the calls into each layer of expobasis, recorded from outside.

``install`` replaces a layer's public functions, in every ``expobasis``
module that binds them, with wrappers that record a span (name, start, end,
parent span, operation) and the counts taken at that boundary. Span times are
process CPU seconds, like the end-to-end times. Only the
outermost call into a span name is recorded, so a function that calls its
sibling (``progression_matrix`` calling ``build_gamma``) counts once. Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    refused: bool = False


def _size(matrix) -> int:
    entries = getattr(matrix, "entries", matrix)
    return int(np.asarray(entries).shape[0])


def _gram_counts(args, kwargs, result):
    size = int(result.shape[0])
    domain = kwargs.get("u", args[1] if len(args) > 1 else ())
    intervals = len(getattr(domain, "intervals", domain))
    return {"gram_entries": size * size, "gram_terms": size * size * intervals,
            "gram_bytes": 16 * size * size}


def _json_bytes(text) -> int:
    return len(text.encode("utf-8")) if isinstance(text, str) else len(text)


# span name -> (module, function names, counts(args, kwargs, result) -> dict)
TARGETS = {
    "cli.main": ("expobasis.cli", ("main",), None),
    "jsonio.dumps": ("expobasis.jsonio", ("dumps",),
                     lambda a, k, r: {"bytes": _json_bytes(r)}),
    "jsonio.loads": ("expobasis.jsonio", ("loads",),
                     lambda a, k, r: {"bytes": _json_bytes(a[0])}),
    "constructions.construct": ("expobasis.constructions", (
        "construct_interval_removal", "construct_perturbed_union", "certify_lattice_subset",
        "certify_lattice_subset_paired", "residue_orthogonal_basis", "complement_certificate"),
        None),
    "constructions.associated_matrix": ("expobasis.constructions", ("associated_matrix",), None),
    "vandermonde.build_gamma": ("expobasis.vandermonde", ("build_gamma", "progression_matrix"),
                                lambda a, k, r: {"entries": r.size * r.size}),
    "clusters.partition": ("expobasis.clusters", ("partition_by_coherence",), None),
    "spectral.oracle": ("expobasis.spectral",
                        ("singular_values", "optimal_frame_constants", "is_singular"),
                        lambda a, k, r: {"entries": _size(a[0]) ** 2}),
    "verify.verify": ("expobasis.verify", ("verify_certificate",), None),
    "verify.gram_build": ("expobasis.verify", ("gram_matrix",), _gram_counts),
    "verify.sample": ("expobasis.verify", ("riesz_ratio_sample",),
                      lambda a, k, r: {"trials": r.trials}),
    "verify.regressions": ("expobasis.verify", ("regression_examples",), None),
}


class Tracer:
    def __init__(self, refusal: type):
        self.refusal = refusal
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = 0

    def wrap(self, name: str, fn, counts):
        tracer = self

        def traced(*args, **kwargs):
            if any(s.name == name for s in tracer.stack):
                return fn(*args, **kwargs)
            parent = tracer.stack[-1].sid if tracer.stack else None
            span = Span(len(tracer.spans), parent, tracer.op, name, time.process_time())
            tracer.spans.append(span)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except tracer.refusal:
                span.refused = True
                raise
            finally:
                span.end = time.process_time()
                tracer.stack.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, _, _ in TARGETS.values():
            importlib.import_module(module)
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "expobasis" or k.startswith("expobasis."))]
        for name, (module, functions, counts) in TARGETS.items():
            for fname in functions:
                original = getattr(sys.modules[module], fname)
                wrapped = self.wrap(name, original, counts)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def summary(self, passes: int) -> dict:
        """Per-pass totals by span name: inclusive time, self time (minus the
        time child spans cover), calls, refusals and summed counts; byte sizes
        of Gram matrices are kept as a maximum."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        out: dict[str, dict] = {}
        for s in self.spans:
            agg = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "refusals": 0})
            agg["s"] += s.end - s.start
            agg["self_s"] += s.end - s.start - child_time.get(s.sid, 0.0)
            agg["calls"] += 1
            agg["refusals"] += int(s.refused)
            for key, value in s.counts.items():
                if key == "gram_bytes":
                    agg["gram_bytes_max"] = max(agg.get("gram_bytes_max", 0), value)
                else:
                    agg[key] = agg.get(key, 0) + value
        for agg in out.values():
            for key in agg:
                if key != "gram_bytes_max":
                    agg[key] /= passes
        return out

    def dump(self) -> list:
        return [{"id": s.sid, "parent": s.parent, "op": s.op, "name": s.name,
                 "start": s.start, "end": s.end, "counts": s.counts, "refused": s.refused}
                for s in self.spans]
