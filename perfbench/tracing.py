"""Span recorder for the traced run, and the per-layer numbers drawn from it.

The traced run wraps catport's public functions from outside; ``src/`` is
not edited.  Modules import names directly (``from .algebra import
overlap``), so each wrapper is installed at every module binding of the
function, not only where it is defined.  A span is (name, start, end,
parent span, op id); spans live in flat arrays while the loop runs and
are written to a binary file when it ends.  A span's self time is its
duration minus the durations of its direct children.

Importing this module loads no numpy and no catport: the parent process
of a run reads span files with it.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from array import array

#: the benchmark's own span around each op; every layer span nests in one
OP_SPAN = "bench.op"

LAYERS = ("algebra", "bell", "fock", "protocol", "reports", "cli")

#: wrapped public functions; a name is the function's path below catport
TARGETS = (
    "algebra.overlap", "algebra.partial_overlap", "algebra.tensor",
    "algebra.norm", "algebra.normalize", "algebra.fidelity",
    "algebra.gram_matrix",
    *(f"algebra.CoherentSuperposition.{m}"
      for m in ("__init__", "coherent", "scaled", "__add__", "__sub__",
                "displace", "parity", "rotate", "cross_kerr_pi",
                "permute_modes")),
    "bell.make_cat", "bell.make_quasi_bell", "bell.QuasiBellSet.build",
    "bell.generate_from_dynamics", "bell.measurement_bits",
    "fock.to_fock", "fock.apply_single_mode", "fock.half_line_projector",
    "fock.fock_displacement", "fock.fock_parity",
    "protocol.run_teleport_ideal", "protocol.run_teleport_homodyne",
    "protocol.three_mode_state", "protocol.LowdinMeasurement.from_set",
    "protocol.LowdinMeasurement.collapse", "protocol.apply_correction",
    "protocol.classical_baseline",
    "reports.run_to_rows", "reports.rows_to_csv", "reports.run_to_json_doc",
    "cli.main",
)


def _add(counters, key, n):
    counters[key] = counters.get(key, 0) + n


def _terms_kept(counters, args, result):
    bra, ket = args[0], args[1]
    _add(counters, "algebra.partial_overlap.terms_formed",
         len(bra.terms) * len(ket.terms))
    _add(counters, "algebra.partial_overlap.terms_kept", len(result.terms))


def _tensor_bytes(counters, args, result):
    # computed, not measured: 16 bytes per complex amplitude formed
    _add(counters, "fock.tensor_bytes", 16 * math.prod(result.dims))


#: counters recorded when a wrapped call returns
_HOOKS = {"algebra.partial_overlap": _terms_kept,
          "fock.to_fock": _tensor_bytes,
          "fock.apply_single_mode": _tensor_bytes}


_COLUMNS = (("name_id", "i"), ("start", "q"), ("end", "q"), ("parent", "q"),
            ("op", "q"))


class Spans:
    """Spans as columns: span i is (names[name_id[i]], start[i] ns, end[i] ns,
    parent[i], op[i]); parent is a span index, -1 for an op's own span."""

    def __init__(self, names):
        self.names = list(names)
        for column, code in _COLUMNS:
            setattr(self, column, array(code))

    def __len__(self):
        return len(self.start)

    def write(self, path):
        with open(path, "wb") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "count": len(self)}).encode() + b"\n")
            for column, _ in _COLUMNS:
                getattr(self, column).tofile(fh)

    @classmethod
    def read(cls, path) -> "Spans":
        with open(path, "rb") as fh:
            head = json.loads(fh.readline())
            spans = cls(head["names"])
            for column, _ in _COLUMNS:
                getattr(spans, column).fromfile(fh, head["count"])
        return spans

    def self_times(self) -> array:
        """Each span's duration minus the durations of its direct children."""
        duration = array("q", (e - s for s, e in zip(self.start, self.end)))
        own = array("q", duration)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= duration[i]
        return own


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans = Spans([OP_SPAN])
        self.counters = {}
        self.caches = {}
        self._stack = [-1]
        self._op = -1
        self._restore = []

    def _open(self, nid):
        sp = self.spans
        idx = len(sp.start)
        sp.name_id.append(nid)
        sp.parent.append(self._stack[-1])
        sp.op.append(self._op)
        sp.end.append(0)
        self._stack.append(idx)
        sp.start.append(time.perf_counter_ns())

    def _close(self):
        self.spans.end[self._stack.pop()] = time.perf_counter_ns()

    def begin_op(self, op: int):
        self._op = op
        self._open(0)

    def end_op(self):
        self._close()

    def _wrap(self, name, fn, hook):
        nid = len(self.spans.names)
        self.spans.names.append(name)
        counters = self.counters

        def traced(*args, **kwargs):
            self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if hook is not None:
                hook(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target at each of its bindings in catport's modules."""
        for layer in LAYERS:
            importlib.import_module("catport." + layer)
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "catport" or k.startswith("catport.")]
        for name in TARGETS:
            path = name.split(".")
            owner = sys.modules["catport." + path[0]]
            for part in path[1:-1]:
                owner = getattr(owner, part)
            attr, hook = path[-1], _HOOKS.get(name)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, hook))
                else:
                    new = self._wrap(name, raw, hook)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            orig = getattr(owner, attr)
            if hasattr(orig, "cache_info"):
                # the wrapper hides the lru_cache; keep the original to read it
                self.caches[name] = orig
            new = self._wrap(name, orig, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, new)

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def cache_info(self) -> dict:
        """{span name: [hits, misses, currsize]} of every wrapped lru_cache."""
        out = {}
        for name, cached in self.caches.items():
            info = cached.cache_info()
            out[name] = [info.hits, info.misses, info.currsize]
        return out


def layer_metrics(spans, ops: int, counters: dict, caches_before: dict,
                  caches_after: dict) -> dict:
    """Per-layer numbers of a traced run, averaged over its ``ops`` ops.

    Returns {metric name: (value, unit)}: calls and self time per op for
    every wrapped function, self time per op for every layer, and the
    ratios read from counters and lru_cache statistics (0 when the layer
    never ran).
    """
    n_names = len(spans.names)
    calls_by_id, self_by_id = [0] * n_names, [0] * n_names
    for nid, own in zip(spans.name_id, spans.self_times()):
        calls_by_id[nid] += 1
        self_by_id[nid] += own
    calls = dict(zip(spans.names, calls_by_id))
    self_ns = dict(zip(spans.names, self_by_id))
    out = {}
    for name in TARGETS:
        out[f"{name}.calls_per_op"] = (calls.get(name, 0) / ops, "count")
        out[f"{name}.self_ms_per_op"] = (self_ns.get(name, 0) / ops / 1e6, "ms")
    for layer in LAYERS:
        total = sum(v for k, v in self_ns.items() if k.startswith(layer + "."))
        out[f"{layer}.self_ms_per_op"] = (total / ops / 1e6, "ms")
    formed = counters.get("algebra.partial_overlap.terms_formed", 0)
    kept = counters.get("algebra.partial_overlap.terms_kept", 0)
    out["algebra.partial_overlap.terms_kept_ratio"] = (
        kept / formed if formed else 0.0, "ratio")
    out["fock.tensor_bytes_per_op"] = (
        counters.get("fock.tensor_bytes", 0) / ops, "bytes")
    for name, (hits, misses, size) in caches_after.items():
        h0, m0, _ = caches_before[name]
        looked_up = (hits - h0) + (misses - m0)
        out[f"{name}.hit_ratio"] = ((hits - h0) / looked_up if looked_up
                                    else 0.0, "ratio")
        out[f"{name}.cache_entries"] = (size, "count")
    return out

