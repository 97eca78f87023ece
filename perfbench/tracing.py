"""Outside-in spans around the program's public entry points.

The traced run wraps a fixed set of public callables (``WRAPPED``) in
memory-held spans -- name, start, end, parent span, request id -- and
restores the originals afterwards.  Nothing under ``src/`` changes:
the wrappers are installed by attribute assignment on the modules and
classes the allocator looks them up from at call time.

A layer is the part of a span name before the first dot (``encoder``,
``optimize``, ``certify``, ...).  A span's *self time* is its duration
minus the durations of its direct child spans, so nested layers (a
certifier callback inside ``bin_search``) are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

#: (module, owner attribute path, span name).  ``owner`` is ``""`` for
#: a module-level function, else a class inside the module.
WRAPPED = (
    ("repro.core.allocator", "", "ProblemEncoding", "encoder.encode"),
    ("repro.core.allocator", "", "bin_search", "optimize.bin_search"),
    ("repro.core.allocator", "", "check_allocation", "analysis.verify"),
    ("repro.bounds.providers", "", "resolve_bounds", "bounds.resolve"),
    ("repro.certify", "ProbeCertifier", "__init__", "certify.init"),
    ("repro.certify", "ProbeCertifier", "on_probe", "certify.on_probe"),
    ("repro.certify", "ProbeCertifier", "finalize", "certify.finalize"),
    ("repro.robust.checkpoint", "SearchCheckpoint", "save",
     "robust.checkpoint_save"),
)

#: Layers whose self time the per-layer report splits out.
LAYERS = ("encoder", "optimize", "certify", "bounds", "analysis", "robust")


class Tracer:
    """Collects spans in memory; one request in flight at a time."""

    def __init__(self):
        #: (span id, name, request id, parent span id, start, end)
        self.spans: list[tuple] = []
        #: Set by the driver before each request; read when a span opens
        #: (worker threads of an in-process server see the same value).
        self.request_id: object = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every entry point of :data:`WRAPPED`."""
        for module_name, owner_name, attr, span_name in WRAPPED:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, span_name))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


class _Span:
    __slots__ = ("tracer", "name", "sid", "rid", "parent", "t0")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer._stack()
        self.sid = next(self.tracer._ids)
        self.rid = self.tracer.request_id
        self.parent = stack[-1] if stack else None
        stack.append(self.sid)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        self.tracer._stack().pop()
        with self.tracer._lock:
            self.tracer.spans.append(
                (self.sid, self.name, self.rid, self.parent, self.t0, t1)
            )


def self_times(spans: list[tuple]) -> dict:
    """``{request id: {layer: self seconds}}`` over all layer spans."""
    children: dict[int, float] = defaultdict(float)
    for _sid, _name, _rid, parent, t0, t1 in spans:
        if parent is not None:
            children[parent] += t1 - t0
    out: dict = defaultdict(lambda: defaultdict(float))
    for sid, name, rid, _parent, t0, t1 in spans:
        layer = name.split(".", 1)[0]
        out[rid][layer] += (t1 - t0) - children[sid]
    return out
