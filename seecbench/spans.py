"""Layer spans for one benchmark child process, and their aggregation.

A child that runs traced wraps the public functions of each seec module
listed in ``LAYERS``: the wrapper replaces the attribute in the layer's
module and the alias the ``seec`` package re-exports, so calls between
modules and from library users go through it.  Each call records a span
(name, parent span, start, end, work count) in flat arrays; the spans of
one op share the op id and are written to one ``.npz`` file when the
child exits.  A function that no longer exists is reported absent.

No source under ``src/`` knows about this module.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# layer -> (module, public functions whose calls are spans of that layer)
LAYERS = {
    "cli": ("seec.cli", ("main", "_write_text")),
    "criterion": ("seec.criterion", ("criterion_f", "threshold_eta0", "marginal",
                                     "integral_bundle", "shannon_entropy", "is_entangled")),
    "quadrature": ("seec.quadrature", ("entropy_integral_numeric", "legendre_panel_rule",
                                       "entropy_panel_boundaries", "gauss_hermite_rule",
                                       "integrate_panels")),
    "specfun": ("seec.specfun", ("entropy_integral_closed_form", "hermite_roots",
                                 "log_potential", "hermite_values")),
    "kernels": ("seec._kernels", ("hermite_values", "entropy_weighted_sum")),
    "oscillator": ("seec.oscillator", ("diagonalize", "reconstruct", "wavefunction", "energy")),
    "verification": ("seec.verification", ("collect_checks",)),
    "svgplot": ("seec.svgplot", ("line_plot",)),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns)

# cached functions whose cache_info() the trace reports: span -> (module, name)
CACHES = {"criterion.standard_entropy": ("seec.criterion", "standard_entropy")}


def _size(x):
    return int(getattr(x, "size", 1))


def _hermite_flops(n, points):
    # recurrence H_{k+1} = 2 z H_k - 2 k H_{k-1}: 4 flops per step, 1 to start
    return points * (1 + 4 * (n - 1)) if n >= 1 else 0


# work counted for a span: span -> f(args, result) -> (count, flops, bytes);
# flops and bytes are computed from array sizes, not measured
WORK = {
    "kernels.hermite_values": lambda a, r: (
        _size(a[1]), _hermite_flops(a[0], _size(a[1])), 16 * _size(a[1])),
    # per node: the recurrence, then h^2, log, z^2, exp and two products (9),
    # and a multiply-add of the dot product (2)
    "kernels.entropy_weighted_sum": lambda a, r: (
        _size(a[1]), _hermite_flops(a[0], _size(a[1])) + 11 * _size(a[1]), 16 * _size(a[1])),
    "quadrature.legendre_panel_rule": lambda a, r: (r.nodes.size, 0, 0),
    "oscillator.wavefunction": lambda a, r: (_size(r), 0, 0),
    "svgplot.line_plot": lambda a, r: (sum(len(pts) for _, pts in a[0]), 0, 0),
    "verification.collect_checks": lambda a, r: (len(r), 0, 0),
}


class Recorder:
    """Spans of one op, kept in memory until ``save``."""

    def __init__(self, op_id, imports):
        self.op_id = op_id
        self.imports = imports
        self.names = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = array("d")
        self.flops = array("d")
        self.bytes = array("d")
        self.stack = [-1]
        self.absent = []

    def wrap(self, name_id, fn, work):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        counts, flops, nbytes, stack = self.counts, self.flops, self.bytes, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            counts.append(0.0)
            flops.append(0.0)
            nbytes.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if work is not None:
                counts[sid], flops[sid], nbytes[sid] = work(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self):
        """Wrap every listed function that exists; record the rest absent."""
        package = importlib.import_module("seec")
        for name_id, name in enumerate(SPAN_NAMES):
            layer, fn_name = name.split(".", 1)
            try:
                module = importlib.import_module(LAYERS[layer][0])
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(module, fn_name, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            traced = self.wrap(name_id, fn, WORK.get(name))
            setattr(module, fn_name, traced)
            if getattr(package, fn_name, None) is fn:
                setattr(package, fn_name, traced)

    def _cache_info(self):
        info = {}
        for span, (module_name, fn_name) in CACHES.items():
            module = sys.modules.get(module_name)
            fn = getattr(module, fn_name, None)
            if hasattr(fn, "cache_info"):
                hits, misses, _, _ = fn.cache_info()
                info[span] = [hits, misses]
        return info

    def save(self, path):
        """Write the op's spans; called once, when the child exits."""
        import numpy as np

        meta = {
            "op": self.op_id,
            "names": SPAN_NAMES,
            "absent": self.absent,
            "imports": self.imports,
            "caches": self._cache_info(),
        }
        np.savez(
            path,
            meta=np.array(json.dumps(meta)),
            name=np.frombuffer(self.names, dtype=np.uint16),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            count=np.frombuffer(self.counts, dtype=np.float64),
            flops=np.frombuffer(self.flops, dtype=np.float64),
            bytes=np.frombuffer(self.bytes, dtype=np.float64),
        )


class Totals:
    """Per-span sums over the span files of a traced run."""

    def __init__(self):
        import numpy as np

        size = len(SPAN_NAMES)
        self.calls = np.zeros(size)
        self.incl = np.zeros(size)
        self.self_ = np.zeros(size)
        self.count = np.zeros(size)
        self.flops = np.zeros(size)
        self.bytes = np.zeros(size)
        self.imports = {}
        self.caches = {}
        self.absent = set()
        self.ops = 0

    def add(self, path):
        import numpy as np

        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            if list(meta["names"]) != list(SPAN_NAMES):
                raise ValueError(f"{path}: span table differs from this spans.py's")
            name, parent = data["name"].astype(np.int64), data["parent"]
            dur = data["end"] - data["start"]
            size = len(SPAN_NAMES)
            nested = parent >= 0
            child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
            self.calls += np.bincount(name, minlength=size)
            self.incl += np.bincount(name, weights=dur, minlength=size)
            self.self_ += np.bincount(name, weights=dur - child_time, minlength=size)
            self.count += np.bincount(name, weights=data["count"], minlength=size)
            self.flops += np.bincount(name, weights=data["flops"], minlength=size)
            self.bytes += np.bincount(name, weights=data["bytes"], minlength=size)
        for key, seconds in meta["imports"].items():
            self.imports[key] = self.imports.get(key, 0.0) + seconds
        for key, (hits, misses) in meta["caches"].items():
            old = self.caches.get(key, (0, 0))
            self.caches[key] = (old[0] + hits, old[1] + misses)
        self.absent.update(meta["absent"])
        self.ops += 1

    def span(self, name):
        return SPAN_NAMES.index(name)

    def layer(self, layer):
        return [i for i, name in enumerate(SPAN_NAMES) if name.split(".", 1)[0] == layer]
