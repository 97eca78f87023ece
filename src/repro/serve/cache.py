"""Warm-start cache: reuse optima across related requests.

Production allocation traffic is heavily repetitive: the same scenario
is re-solved after small perturbations (a task's WCET bumped, a message
rerouted), and often re-solved *unchanged* (a retry, a second client).
The cache exploits both without ever weakening the answer:

- the key is ``(scenario, request-fingerprint, code-fingerprint)``:

  * *scenario* is the client's stable label for a family of related
    systems (defaults to the task-set name),
  * *request fingerprint* is :meth:`repro.core.api.SolveRequest.
    fingerprint` of the **identity options** (objective, encoder
    config, certify) -- deadlines and budgets are excluded, they never
    change the optimum,
  * *code fingerprint* is :func:`repro.fabric.jobs.code_fingerprint`
    over the package sources, so a server restarted onto changed solver
    code can never serve (or warm-start from) a stale optimum computed
    by different code;

- a hit is only a **warm hint**, even for the very system that was
  solved: the server wraps it in a ``repro.bounds.HintBoundsProvider``
  (cached optimum as the claimed upper, cached allocation as the witness) on
  ``SolveRequest.bounds``, and the allocator re-audits the witness with
  the independent analysis before trusting anything -- a probe-*count*
  change, never a correctness shortcut: the binary search still
  certifies the optimum (bit-identical ``{cost, proven, status}``
  envelope, asserted in tests).

Entries are LRU-evicted.  ``serve.cache`` is a named chaos site: an
injected fault degrades a lookup to a miss and a store to a no-op --
the cache can make the server faster, never wrong and never down.

An entry may also carry the scenario's **encoding template**
(:class:`repro.core.template.EncodingTemplate`): a warm request whose
system has the template's shape replays it instead of encoding.  Like
the optimum it is stored only with a proven optimum; the allocator
checks its shape before every replay, so a stale template costs one
fresh encoding, never a wrong formula.  Templates are the bulk of the
cache's bytes: their total is capped at :data:`TEMPLATE_BYTES_CAP`
(over it, the least recently used entries lose their templates first,
and keep optimum and witness), :meth:`WarmCache.shrink` drops them all,
and :meth:`WarmCache.drop_templates` releases them when the server
stops.

The cache is also a **memory-watermark citizen**: every entry carries
an approximate byte size (JSON length of envelope + witness, plus the
template's bytes), summed by :meth:`WarmCache.memory_bytes`, and
:meth:`WarmCache.shrink` evicts the LRU half on demand -- the
``shrink`` response of the resource governor (:mod:`repro.governor`).
Shrinking only ever costs probe count and encode time on future
requests, never correctness.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

from repro.chaos import chaos_point

__all__ = ["WarmCache", "WarmEntry", "TEMPLATE_BYTES_CAP"]

#: Most bytes of encoding templates one cache holds (about ten served
#: scenarios of ~100k clauses each).
TEMPLATE_BYTES_CAP = 16 << 20


@dataclass(frozen=True)
class WarmEntry:
    """One cached optimum for a scenario/request/code key."""

    optimum: int
    envelope: dict
    #: JSON allocation payload of the optimum (a warm-start witness for
    #: perturbed requests); None when the solve produced no allocation.
    allocation: dict | None = None
    #: Approximate in-memory footprint (JSON length plus the template's
    #: bytes), for the governor.
    approx_bytes: int = 0
    #: The scenario's encoding template, or None.
    template: object | None = None

    def without_template(self) -> "WarmEntry":
        """This entry with its template (and the template's bytes)
        dropped."""
        if self.template is None:
            return self
        return replace(self, template=None,
                       approx_bytes=self.approx_bytes
                       - self.template.nbytes)


class WarmCache:
    """Thread-safe LRU of proven optima, keyed to be staleness-proof."""

    def __init__(self, size: int = 64):
        if size < 1:
            raise ValueError("cache size must be >= 1")
        self.size = size
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, WarmEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.faults = 0
        self.shrinks = 0

    @staticmethod
    def _key(scenario: str, request_fp: str, code_fp: str | None) -> tuple:
        if code_fp is None:
            from repro.fabric.jobs import code_fingerprint

            code_fp = code_fingerprint()
        return (scenario, request_fp, code_fp)

    def lookup(
        self, scenario: str, request_fp: str, code_fp: str | None = None
    ) -> WarmEntry | None:
        """The cached entry, or None.  Faults degrade to a miss."""
        try:
            chaos_point("serve.cache")
            key = self._key(scenario, request_fp, code_fp)
        except OSError:
            self.faults += 1
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def store(
        self,
        scenario: str,
        request_fp: str,
        optimum: int,
        envelope: dict,
        code_fp: str | None = None,
        allocation: dict | None = None,
        template=None,
    ) -> None:
        """Record a *proven* optimum (with the scenario's encoding
        template, if any).  Faults degrade to a no-op."""
        try:
            chaos_point("serve.cache")
            key = self._key(scenario, request_fp, code_fp)
        except OSError:
            self.faults += 1
            return
        try:
            approx = len(json.dumps(envelope, default=str)) + (
                len(json.dumps(allocation, default=str))
                if allocation is not None else 0
            ) + 128  # key/tuple/dataclass overhead, roughly
        except (TypeError, ValueError):
            approx = 1024
        if template is not None:
            approx += template.nbytes
        entry = WarmEntry(
            optimum=optimum, envelope=dict(envelope),
            allocation=allocation, approx_bytes=approx, template=template,
        )
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.size:
                self._entries.popitem(last=False)
            held = sum(e.template.nbytes for e in self._entries.values()
                       if e.template is not None)
            for k, e in self._entries.items():
                if held <= TEMPLATE_BYTES_CAP:
                    break
                if e.template is not None:
                    held -= e.template.nbytes
                    self._entries[k] = e.without_template()

    def memory_bytes(self) -> int:
        """Approximate bytes held by cached entries (a governor memory
        source)."""
        with self._lock:
            return sum(e.approx_bytes for e in self._entries.values())

    def drop_templates(self) -> int:
        """Release every entry's encoding template (optimum and witness
        stay); returns the approximate bytes released."""
        released = 0
        with self._lock:
            for k, e in self._entries.items():
                if e.template is not None:
                    released += e.template.nbytes
                    self._entries[k] = e.without_template()
        return released

    def shrink(self) -> int:
        """Drop every encoding template and evict the least-recently-used
        half of the entries; returns the approximate bytes released.
        The governor's ``shrink`` response -- a probe-count and
        encode-time cost on future requests, never a correctness
        change."""
        released = self.drop_templates()
        with self._lock:
            drop = len(self._entries) // 2
            for _ in range(drop):
                _key, entry = self._entries.popitem(last=False)
                released += entry.approx_bytes
            if drop:
                self.shrinks += 1
        return released

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.size,
                "hits": self.hits,
                "misses": self.misses,
                "faults": self.faults,
                "shrinks": self.shrinks,
                "approx_bytes": sum(
                    e.approx_bytes for e in self._entries.values()
                ),
                "templates": sum(
                    e.template is not None for e in self._entries.values()
                ),
            }
