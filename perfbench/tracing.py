"""Span tracing of qevents' layers, installed from outside the package.

``Tracer.install`` wraps public functions of each qevents module and rebinds
every name that refers to them, in the defining module and in the qevents
modules that imported them (``center`` in ``centralizers``, ``centralizer``
in ``events`` and so on).  numpy's ``svd``, ``eigh`` and ``eigvalsh`` are
wrapped the same way in ``numpy.linalg``, including the binding that
``numpy.linalg.norm`` uses internally.  Nothing under ``src/`` is edited.

A span records name, start, end, parent span and op id; spans stay in memory
and are written out when the traced region ends.  Self time is a span's
duration minus that of its child spans.  ``linalg.*`` spans are kernel
leaves: they are timed and counted, but their time stays in the self time of
the qevents span that called them, so layer self times plus the remainder
outside every layer add up to the traced wall time.  ``Tracer.summary``
checks the span tree against the op intervals its caller timed: every span
must lie inside its parent (or its op, or set-up) and not overlap a sibling.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import tracemalloc

# Public names wrapped per qevents module.  Classes are traced through their
# constructor (``__init__`` or the dataclass ``__post_init__``).
LAYERS = {
    "operators": ("validate_projection_family", "operator_norm", "spectral_decompose",
                  "DensityState", "PartitionOfUnity"),
    "algebras": ("commutant", "center", "contains", "full_matrix_algebra",
                 "FiniteAlgebra"),
    "centralizers": ("centralizer", "minimal_projections", "expect_onto_center"),
    "events": ("run_trajectory", "HeisenbergFrame.build", "HeisenbergFrame"),
    "histories": ("sampler_vs_measure", "consistency_check", "lsw_probability",
                  "enumerate_protocols"),
    "mesoscopic": ("sample_protocols", "born_rule_experiment", "posterior_entropies",
                   "log_band_mass", "detection_time", "commuting_realization",
                   "exact_protocol_probability"),
    "cli": ("cmd_trajectory", "cmd_mesoscopic"),
}
KERNELS = ("svd", "eigh", "eigvalsh")
# spans whose tracemalloc peak is recorded
MEMORY = ("centralizers.centralizer", "algebras.commutant", "mesoscopic.commuting_realization")

MB = 1024.0 * 1024.0


def _elements(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) < 2:
        return 0
    n = 1
    for s in shape:
        n *= int(s)
    return n


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = -1
        self.melems: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self._mem: list[list[int]] = []  # open memory spans: [base, highest]
        self._saved: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn, kernel: bool = False):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self
        memory = name in MEMORY
        melems = self.melems

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            if kernel:
                melems[name] = melems.get(name, 0) + (_elements(args[0]) if args else 0)
            else:
                stack.append(len(spans))
            spans.append(rec)
            if memory:
                tracer._mem_enter()
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                if memory:
                    tracer._mem_exit(name)
                if not kernel:
                    stack.pop()

        return functools.wraps(fn)(wrapper)

    def _mem_enter(self):
        cur, peak = tracemalloc.get_traced_memory()
        for m in self._mem:
            m[1] = max(m[1], peak)
        tracemalloc.reset_peak()
        self._mem.append([cur, cur])

    def _mem_exit(self, name: str):
        _, peak = tracemalloc.get_traced_memory()
        base, highest = self._mem.pop()
        highest = max(highest, peak)
        for m in self._mem:
            m[1] = max(m[1], highest)
        self.peaks[name] = max(self.peaks.get(name, 0), highest - base)

    def _rebind(self, original, wrapped, modules):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrapped)

    def install(self):
        import numpy.linalg
        import numpy.linalg._linalg as linalg_impl
        import qevents  # noqa: F401  (loads every layer)

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "qevents" or n.startswith("qevents."))]
        for layer, names in LAYERS.items():
            mod = sys.modules[f"qevents.{layer}"]
            for n in names:
                full = f"{layer}.{n}"
                if "." in n:
                    cls_name, meth = n.split(".")
                    cls = getattr(mod, cls_name)
                    raw = vars(cls)[meth]
                    self._saved.append((cls, meth, raw))
                    setattr(cls, meth, classmethod(self._wrap(full, raw.__func__)))
                    continue
                obj = getattr(mod, n)
                if isinstance(obj, type):
                    hook = "__post_init__" if "__post_init__" in vars(obj) else "__init__"
                    self._saved.append((obj, hook, vars(obj)[hook]))
                    setattr(obj, hook, self._wrap(full, vars(obj)[hook]))
                else:
                    self._rebind(obj, self._wrap(full, obj), modules)
        for k in KERNELS:
            orig = getattr(numpy.linalg, k)
            self._rebind(orig, self._wrap(f"linalg.{k}", orig, kernel=True),
                         [numpy.linalg, linalg_impl])
        return self

    def uninstall(self):
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved.clear()

    # -- output -----------------------------------------------------------

    def write(self, path: str):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": names}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{index[name]},{start:.9f},{end:.9f},{parent},{op}\n")

    def summary(self, region_start: float, loop_start: float, ops: list,
                region_end: float) -> dict:
        """Per-function and per-layer metrics over the traced region.

        The region runs from ``region_start`` to ``region_end``; set-up ends
        at ``loop_start``, and ``ops`` holds each op's (start, end) as timed
        by the caller, on the span clock.  Self times are summed over calls,
        in ms; ``*.peak_alloc_mb`` is the largest tracemalloc peak of one
        call.  ``trace.closure_error_ms`` is the time by which spans leave
        the interval that should hold them (the parent span, else the op or
        set-up) or overlap a sibling; at 0 the layer self times and the
        remainder outside every span split the region's wall time exactly.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        stats: dict[str, list] = {}
        layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        top = 0.0
        draws = 0
        excess = 0.0
        last_end: dict = {}             # enclosing interval -> end of its latest span
        for name, start, end, parent, op in spans:
            if parent >= 0:
                key, (lo, hi) = parent, spans[parent][1:3]
            elif op >= 0:
                key, (lo, hi) = ("op", op), ops[op]
            else:
                key, (lo, hi) = "setup", (region_start, loop_start)
            excess += max(0.0, lo - start) + max(0.0, end - hi)
            if name.startswith("linalg."):
                continue
            excess += max(0.0, last_end.get(key, lo) - start)
            last_end[key] = end
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            own = dur if name.startswith("linalg.") else dur - child[i]
            st = stats.setdefault(name, [0, 0.0])
            st[0] += 1
            st[1] += own
            if name.startswith("linalg."):
                continue
            layer_self[name.split(".")[0]] += own
            if parent < 0:
                top += dur
            if (name == "operators.spectral_decompose" and parent >= 0
                    and spans[parent][0] == "centralizers.minimal_projections"):
                draws += 1
        out: dict[str, float] = {}
        for layer, names in LAYERS.items():
            for n in names:
                calls, own = stats.get(f"{layer}.{n}", (0, 0.0))
                out[f"{layer}.{n}.calls"] = calls
                out[f"{layer}.{n}.self_ms"] = own * 1e3
        for k in KERNELS:
            calls, own = stats.get(f"linalg.{k}", (0, 0.0))
            out[f"linalg.{k}.calls"] = calls
            out[f"linalg.{k}.self_ms"] = own * 1e3
        out["linalg.svd.melems"] = self.melems.get("linalg.svd", 0) / 1e6
        for name in MEMORY:
            out[f"{name}.peak_alloc_mb"] = self.peaks.get(name, 0) / MB
        mp_calls = out["centralizers.minimal_projections.calls"]
        out["centralizers.minimal_projections.draws_per_call"] = (
            draws / mp_calls if mp_calls else 0.0)
        wall_s = region_end - region_start
        for layer, own in layer_self.items():
            out[f"layer.{layer}.self_ms"] = own * 1e3
        out["layer.outside.self_ms"] = (wall_s - top) * 1e3
        out["trace.wall_ms"] = wall_s * 1e3
        out["trace.closure_error_ms"] = excess * 1e3
        out["trace.spans"] = len(spans)
        return out


def import_times_ms(stderr: str) -> tuple[float, float]:
    """(cumulative import time of qevents, summed self time of scipy.*) from -X importtime."""
    qevents_us = 0
    scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        own, cumulative, name = int(parts[0]), int(parts[1]), parts[2].strip()
        if name == "qevents":
            qevents_us = cumulative
        elif name == "scipy" or name.startswith("scipy."):
            scipy_us += own
    return qevents_us / 1e3, scipy_us / 1e3
