"""Outside-in layer trace: wraps the public functions of each sblq module.

Nothing under src/ changes.  `Tracer.install` rebinds every public function
of the layer modules in every loaded `sblq.*` namespace (and in the
benchmark's own modules), because the package imports with
`from .linalg import rank`: patching only the defining module would miss
most calls.  Spans (function, start, end, parent span, op id) stay in
memory; per-layer numbers are computed from them at the end of a pass.

Time spent computing counters (for example entry bit sizes) is taken off
the tracer's clock, so it shows in no span; the wrapper's own bookkeeping
remains and is reported as tracing overhead.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from sblq.linalg import Matrix, Subspace

LAYERS = ("classify", "decompose", "pencil", "core", "linalg", "rotations",
          "numcheck")

# the linalg entry points whose input shapes and entry sizes are recorded
ELIMINATIONS = ("rank", "kernel_basis", "image_basis", "solve_right", "inverse",
                "is_invertible", "det", "subspace_intersect", "subspace_sum",
                "rank_power_sequence", "invariant_factors")


_UNITS = {"calls": "count", "self_s": "s"}


def _per_function(names: Sequence[str], stats: Sequence[str]) -> List[Tuple[str, str]]:
    return [(f"{n}.{s}", _UNITS[s]) for n in names for s in stats]

# (metric name, unit), in the order BENCHMARK.json lists them
PER_LAYER: List[Tuple[str, str]] = [
    *_per_function(["pencil.kronecker_blocks"], ["calls", "self_s"]),
    ("pencil.max_pencil_cells", "cells"),
    *_per_function(["core.module_hom_basis"], ["calls", "self_s"]),
    ("core.module_hom_basis.max_unknowns", "count"),
    ("core.module_isomorphic.calls", "count"),
    ("core.module_isomorphic.trials_used", "count"),
    ("core.certificate_valid.calls", "count"),
    ("decompose.match_nonholder.candidates", "count"),
    ("decompose.match_nonholder.useful_ratio", "ratio"),
    *_per_function([f"decompose.{f}" for f in (
        "necessary_conditions", "strip_c0", "holder_normal_form", "decompose")],
        ["calls", "self_s"]),
    *_per_function([f"core.{f}" for f in (
        "validate_datum", "apply_equivalence", "datum_to_module")],
        ["calls", "self_s"]),
    ("classify.classify.calls", "count"),
    *_per_function([f"classify.{f}" for f in (
        "classify", "case_detect", "status_lookup")], ["self_s"]),
    *_per_function([f"linalg.{f}" for f in ELIMINATIONS], ["calls", "self_s"]),
    ("linalg.max_input_cells", "cells"),
    ("linalg.input_cells_total", "cells"),
    ("linalg.max_entry_bits", "bits"),
    *_per_function([f"rotations.{f}" for f in (
        "verify_superposition", "verify_repr", "neumann_solve", "sph_basis")],
        ["calls", "self_s"]),
    ("rotations.sph_basis.points", "count"),
    *_per_function([f"numcheck.{f}" for f in (
        "eval_form", "verify_mikhlin", "check_equivalence_invariance")],
        ["calls", "self_s"]),
    ("numcheck.quad_points", "count"),
    ("numcheck.computed_bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Span recorder for one traced pass at a time."""

    def __init__(self):
        self.names: List[str] = []                 # function index -> "layer.fn"
        self.spans: List[Optional[tuple]] = []     # (fn, start, end, parent, op)
        self.counters: Dict[str, float] = {}
        self.op_id: Optional[int] = None           # spans are recorded only inside an op
        self._stack: List[Tuple[int, int]] = []    # (span index, fn index)
        self._excluded = 0.0
        self._patches: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[int, Tuple[Callable, Callable]] = {}

    # -- counters ---------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def high(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    # -- patching ---------------------------------------------------------

    def install(self, extra_namespaces: Sequence[object] = ()) -> None:
        """Rebind each public layer function wherever a loaded module holds it."""
        if not self._wrappers:
            for layer in LAYERS:
                mod = sys.modules[f"sblq.{layer}"]
                for fname, fn in vars(mod).items():
                    if fname.startswith("_") or not inspect.isfunction(fn) or \
                            fn.__module__ != mod.__name__:
                        continue
                    hook = HOOKS.get(f"{layer}.{fname}")
                    if hook is None and layer == "linalg" and fname in ELIMINATIONS:
                        hook = _linalg_inputs
                    self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn, hook))
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "sblq" or name.startswith("sblq.")]
        namespaces.extend(extra_namespaces)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, hit[1])

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable, hook) -> Callable:
        index = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else (-1, -1)
            stack.append((me, index))
            start = perf_counter() - tracer._excluded
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter() - tracer._excluded
                stack.pop()
                spans[me] = (index, start, end, parent[0], tracer.op_id)
            if hook is not None:
                hook_start = perf_counter()
                hook(tracer, args, kwargs, result, parent[1])
                tracer._excluded += perf_counter() - hook_start
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counters = {}
        self._stack = []

    def layer_stats(self) -> Dict[str, float]:
        """calls and self time per function, plus the counters, for the spans kept."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = dict(self.counters)
        for k, (fn, start, end, _, _) in enumerate(self.spans):
            name = self.names[fn]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + \
                (end - start) - child[k]
        candidates = out.get("decompose.match_nonholder.candidates", 0)
        out["decompose.match_nonholder.useful_ratio"] = \
            out.get("decompose.match_nonholder.certified", 0) / candidates \
            if candidates else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path, spans) -> None:
        """Spans of one pass as gzipped CSV: function index, start and end in
        microseconds from the first span, parent span index (-1 at the top of
        an op) and op id, after a JSON header line naming the functions."""
        origin = spans[0][1] if spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"functions": self.names, "columns": [
                "function", "start_us", "end_us", "parent", "op"]}) + "\n")
            for fn, start, end, parent, op in spans:
                fh.write(f"{fn},{round((start - origin) * 1e6)},"
                         f"{round((end - origin) * 1e6)},{parent},{op}\n")


# -- counter hooks: (tracer, args, kwargs, result, parent function index) ------


def _matrices(args, kwargs):
    for a in (*args, *kwargs.values()):
        if isinstance(a, Subspace):
            a = a.basis
        if isinstance(a, Matrix):
            yield a


def _linalg_inputs(tr: Tracer, args, kwargs, result, parent) -> None:
    cells = 0
    for m in _matrices(args, kwargs):
        cells += m.rows * m.cols
        tr.high("linalg.max_entry_bits", max(
            (max(x.numerator.bit_length(), x.denominator.bit_length())
             for x in m.data), default=0))
    tr.add("linalg.input_cells_total", cells)
    tr.high("linalg.max_input_cells", cells)


def _kronecker(tr: Tracer, args, kwargs, result, parent) -> None:
    a2 = args[0] if args else kwargs["a2"]
    tr.high("pencil.max_pencil_cells", a2.rows * a2.cols)


def _hom_basis(tr: Tracer, args, kwargs, result, parent) -> None:
    a, b = args[:2]
    tr.high("core.module_hom_basis.max_unknowns", a.dim_M * b.dim_M)


def _isomorphic(tr: Tracer, args, kwargs, result, parent) -> None:
    tr.add("core.module_isomorphic.trials_used", result.trials_used)
    if parent >= 0 and tr.names[parent] == "decompose.match_nonholder":
        tr.add("decompose.match_nonholder.candidates", 1)
        tr.add("decompose.match_nonholder.certified", int(bool(result)))


def _sph_basis(tr: Tracer, args, kwargs, result, parent) -> None:
    tr.add("rotations.sph_basis.points", result.shape[0])


def _eval_form(tr: Tracer, args, kwargs, result, parent) -> None:
    spec, quad = args[:2]
    dim = spec.datum.dim_H
    if dim == 0:
        return
    if quad.mode == "tensor":   # the rule and its half-resolution companion
        points = quad.points ** dim + max(quad.points // 2, 4) ** dim
    else:
        points = quad.samples
    tr.add("numcheck.quad_points", points)
    # computed, not measured: the float64 node arrays the rule builds
    tr.add("numcheck.computed_bytes", 8 * dim * points)


HOOKS = {
    "pencil.kronecker_blocks": _kronecker,
    "core.module_hom_basis": _hom_basis,
    "core.module_isomorphic": _isomorphic,
    "rotations.sph_basis": _sph_basis,
    "numcheck.eval_form": _eval_form,
}
