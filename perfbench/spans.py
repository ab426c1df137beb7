"""Spans around calls into tcladder's layers, recorded from outside the package.

:class:`Tracer` replaces each listed function by a recording wrapper at every
module attribute that binds it (the modules import each other's functions by
name, so ``bare_operators`` alone is bound in six modules) and puts the
originals back on :meth:`Tracer.uninstall`.  Spans stay in memory as
``[function, start_ns, end_ns, parent_span, op, extra]`` until written out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = {
    "space": ("build_basis", "bare_operators"),
    "hamiltonian": ("build_hamiltonian",),
    "liouvillian": (
        "build_generator", "evolve", "regression_block", "population_block",
        "raising_coherence_generator",
    ),
    "eigenanalysis": ("complex_eigenenergies", "eps_manifold1", "splitting_roots"),
    "spectrum": ("physical_spectrum", "two_time_correlation", "peak_table"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)


def _nbytes(matrix) -> int:
    """Bytes held by a dense array or a compressed sparse matrix."""
    if isinstance(matrix, np.ndarray):
        return matrix.nbytes
    return sum(getattr(matrix, part).nbytes for part in ("data", "indices", "indptr")
               if hasattr(matrix, part))


def _generator_extra(args, result) -> dict:
    return {"out_mb": _nbytes(result) / 1e6}


def _evolve_extra(args, result) -> dict:
    return {"points": int(np.size(args["t_grid"]))}


def _spectrum_extra(args, result) -> dict:
    refinements = round(math.log2(result.n_time / args["n_time"]))
    return {"n_time": result.n_time, "passes": 1 + refinements}


_EXTRAS = {
    "liouvillian.build_generator": _generator_extra,
    "liouvillian.evolve": _evolve_extra,
    "spectrum.physical_spectrum": _spectrum_extra,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers = {}
        for name in FUNCTIONS:
            module, func = name.split(".")
            original = getattr(importlib.import_module(f"tcladder.{module}"), func, None)
            if original is not None:
                self._wrappers[id(original)] = (original, self._wrap(name, original))

    def _wrap(self, name: str, fn):
        extra = _EXTRAS.get(name)
        signature = inspect.signature(fn) if extra else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(sid)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if extra:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = extra(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "tcladder" or n.startswith("tcladder.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({
            "fields": ["function", "start_ns", "end_ns", "parent", "op", "extra"],
            "spans": self.spans,
        }, separators=(",", ":")))

    def layer_metrics(self) -> dict[str, float]:
        """Per-function metrics, each the median over traced operations of the
        operation's total (``calls``, ``self_s``, ``points``, ``passes``) or
        maximum (``n_time``); ``out_mb`` is the largest generator built."""
        child = [0] * len(self.spans)
        for start, end, parent in ((s[1], s[2], s[3]) for s in self.spans):
            if parent >= 0:
                child[parent] += end - start
        ops = sorted({s[4] for s in self.spans})
        per_op = {op: {} for op in ops}
        out_mb = 0.0
        for span, covered in zip(self.spans, child):
            name, start, end, _, op, extra = span
            acc = per_op[op]
            acc[f"{name}.calls"] = acc.get(f"{name}.calls", 0) + 1
            acc[f"{name}.self_s"] = acc.get(f"{name}.self_s", 0.0) + (end - start - covered) / 1e9
            if extra and "out_mb" in extra:
                out_mb = max(out_mb, extra["out_mb"])
            elif extra and "points" in extra:
                acc[f"{name}.points"] = acc.get(f"{name}.points", 0) + extra["points"]
            elif extra:
                acc[f"{name}.passes"] = acc.get(f"{name}.passes", 0) + extra["passes"]
                acc[f"{name}.n_time"] = max(acc.get(f"{name}.n_time", 0), extra["n_time"])
        keys = [f"{f}.{k}" for f in FUNCTIONS for k in ("calls", "self_s")]
        keys += ["liouvillian.evolve.points", "spectrum.physical_spectrum.passes",
                 "spectrum.physical_spectrum.n_time"]
        metrics = {
            key: statistics.median(per_op[op].get(key, 0) for op in ops) if ops else 0
            for key in keys
        }
        metrics["liouvillian.build_generator.out_mb"] = out_mb
        return metrics
