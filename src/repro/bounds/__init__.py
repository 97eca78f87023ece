"""Certified dual-bounds sidecar for the binary search.

Two halves, both audited before they may touch the certified interval:

- **Lower bounds** (:mod:`repro.bounds.relaxation`): greedy-dual /
  LP-style relaxations whose :class:`repro.certify.bounds.
  BoundCertificate` an independent auditor re-derives from the model.
- **Upper bounds**: repaired heuristic allocations whose witness the
  independent analysis re-checks; the recomputed cost -- never the
  claim -- becomes the bound.

Everything reaches :func:`repro.core.optimize.bin_search` through the
:class:`repro.core.api.BoundsProvider` protocol and the single resolver
:func:`repro.bounds.providers.resolve_bounds`; see ``docs/BOUNDS.md``.
"""

from repro.bounds.providers import HintBoundsProvider, resolve_bounds
from repro.bounds.relaxation import (
    RelaxationBoundsProvider,
    dual_floor,
    repaired_upper,
)

__all__ = [
    "HintBoundsProvider",
    "RelaxationBoundsProvider",
    "dual_floor",
    "repaired_upper",
    "resolve_bounds",
]
