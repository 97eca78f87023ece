"""The paper's primary contribution: SAT-based optimal task and message
allocation for hierarchical architectures.

- :mod:`repro.core.config` -- encoder configuration knobs,
- :mod:`repro.core.encoder` -- transformation of the allocation problem
  into integer-arithmetic formulae (sections 3 and 4: eqs. 4-14),
- :mod:`repro.core.objectives` -- cost functions (token-ring TRT, sum of
  TRTs, CAN bus utilization, sum of response times),
- :mod:`repro.core.optimize` -- the SOLVE / BIN_SEARCH optimization loop
  of section 5.2, with optional learnt-clause reuse between probes
  (section 7),
- :mod:`repro.core.allocator` -- the :class:`Allocator` facade returning
  a concrete, independently re-checked :class:`repro.analysis.Allocation`.

Typical use::

    from repro.core import Allocator, MinimizeTRT

    result = Allocator(tasks, arch).minimize(MinimizeTRT("ring"))
    print(result.cost, result.allocation.task_ecu)
"""

from repro.core.allocator import AllocationResult, Allocator
from repro.core.api import (
    BoundsProvider,
    BoundsReport,
    ExitCode,
    SolveReport,
    SolveRequest,
    solve,
)
from repro.core.config import EncoderConfig
from repro.core.encoder import ProblemEncoding
from repro.core.objectives import (
    MinimizeCanUtilization,
    MinimizeMaxUtilization,
    MinimizeSumResponseTimes,
    MinimizeSumTRT,
    MinimizeTRT,
    objective_from_spec,
)
from repro.core.optimize import OptimizationOutcome, bin_search

__all__ = [
    "Allocator",
    "AllocationResult",
    "EncoderConfig",
    "ProblemEncoding",
    "MinimizeTRT",
    "MinimizeSumTRT",
    "MinimizeCanUtilization",
    "MinimizeSumResponseTimes",
    "MinimizeMaxUtilization",
    "objective_from_spec",
    "bin_search",
    "OptimizationOutcome",
    "ExitCode",
    "BoundsProvider",
    "BoundsReport",
    "SolveRequest",
    "SolveReport",
    "solve",
]
