"""Per-layer spans around the public functions of each stiffgeo module.

The tracer swaps module attributes for timing wrappers while it is installed
and restores them afterwards; no file under src/ changes.  The library looks
these functions up as module attributes at call time (transport_ode calls
kernels.transport_segment, triangle_experiment calls travel_time, ...), so
calls between layers are timed as well.  Spans nest on a stack: a span's self
time is its duration minus the spans that ran inside it.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from stiffgeo import geodesics, kernels, metrics, models, transport
from stiffgeo.errors import DomainError

# (module, attribute, layer name)
TARGETS = [
    (models, "parse_model", "models.parse_model"),
    (transport, "transport_ray", "transport.transport_ray"),
    (transport, "transport_arc", "transport.transport_arc"),
    (transport, "transport_ode", "transport.transport_ode"),
    (transport, "holonomy_loop", "transport.holonomy_loop"),
    (kernels, "transport_segment", "kernels.transport_segment"),
    (kernels, "h_geodesic_sample", "kernels.h_geodesic_sample"),
    (metrics, "h_geodesic", "metrics.h_geodesic"),
    (geodesics, "travel_time", "geodesics.travel_time"),
    (geodesics, "solve_geodesic", "geodesics.solve_geodesic"),
    (geodesics, "find_s0", "geodesics.find_s0"),
]
KERNELS = ("kernels.transport_segment", "kernels.h_geodesic_sample")


class Layer:
    __slots__ = ("calls", "busy", "self_time", "steps", "status_nonok")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.steps = 0
        self.status_nonok = 0


class Tracer:
    """Collects calls, busy and self time per layer while installed.

    Kernel spans also add up the attempted steps and non-OK statuses the
    kernels return, and keep the first record_limit[name] calls of each kernel
    so they can be replayed on another backend.
    """

    def __init__(self, record_limit: dict | None = None):
        self.layers = defaultdict(Layer)
        self.refusals = 0
        self.recorded = {name: [] for name in KERNELS}
        self.record_limit = record_limit or {}
        self._stack = []
        self._saved = []
        self._transport_depth = 0

    def install(self) -> None:
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, name):
        layer = self.layers[name]
        stack = self._stack
        kernel = name in KERNELS
        transport_layer = name.startswith("transport.")
        recorded = self.recorded.get(name)
        limit = self.record_limit.get(name, 0)
        clock = time.perf_counter

        def span(*args, **kwargs):
            if kernel and len(recorded) < limit:
                recorded.append((tuple(np.array(a) if isinstance(a, np.ndarray)
                                       else a for a in args), dict(kwargs)))
            if transport_layer:
                self._transport_depth += 1
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except DomainError:
                # count each refused request once, at its outermost transport call
                if transport_layer and self._transport_depth == 1:
                    self.refusals += 1
                raise
            finally:
                dur = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                layer.calls += 1
                layer.busy += dur
                layer.self_time += dur - child
                if transport_layer:
                    self._transport_depth -= 1
            if kernel:
                layer.steps += int(out[2])
                layer.status_nonok += int(out[3] != kernels.STATUS_OK)
            return out

        return span

    def metrics(self) -> dict:
        """Per-layer numbers by metric name (times in ms)."""
        out = {}
        for _, _, name in TARGETS:
            layer = self.layers[name]
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.busy_ms"] = layer.busy * 1e3
            out[f"{name}.self_ms"] = layer.self_time * 1e3
            if name in KERNELS:
                out[f"{name}.steps"] = layer.steps
                out[f"{name}.status_nonok"] = layer.status_nonok
        out["transport.refusals"] = self.refusals
        return out
