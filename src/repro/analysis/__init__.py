"""Schedulability analysis (paper section 2).

Implements the exact response-time analyses the encoding is built on:

- :func:`repro.analysis.rta.task_response_time` -- preemptive
  fixed-priority task RTA, the fixed point of eq. 1,
- :func:`repro.analysis.bus.can_response_time` -- priority-bus (CAN)
  message RTA, eq. 2,
- :func:`repro.analysis.bus.tdma_response_time` -- TDMA/token-ring
  message RTA with the slot-blocking term, eq. 3,
- :mod:`repro.analysis.feasibility` -- a complete checker for concrete
  allocations (task placement + priorities + message paths + slot
  tables), including the section 4 jitter propagation across media.

The checker is deliberately independent of the SAT encoder: integration
tests validate every optimizer output against it, and the heuristic
baselines use it as their fitness oracle.
"""

from repro.analysis.allocation import Allocation, MsgRef
from repro.analysis.chains import ChainLatency, chain_latencies
from repro.analysis.feasibility import FeasibilityReport, check_allocation
from repro.analysis.rta import deadline_monotonic_order, task_response_time
from repro.analysis.sensitivity import task_wcet_slack, wcet_scaling_margin

__all__ = [
    "Allocation",
    "MsgRef",
    "FeasibilityReport",
    "check_allocation",
    "task_response_time",
    "deadline_monotonic_order",
    "ChainLatency",
    "chain_latencies",
    "wcet_scaling_margin",
    "task_wcet_slack",
]
