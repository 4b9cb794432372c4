"""Discrete-event simulation: dynamic maintenance (Section 2.3), churn, and
failure injection / fault-isolation measurements."""

from .async_lookup import AsyncEngine, AsyncResult
from .data import DataItem, DataLayer
from .events import (
    ConstantLatency,
    MessageLayer,
    MessageStats,
    Simulator,
)
from .failures import (
    IsolationReport,
    fail_outside_domain,
    fail_random,
    intra_domain_isolation,
    path_stays_inside,
    survival_under_random_failures,
)
from .protocol import ProtocolNode, RingState, SimulatedCrescendo

__all__ = [
    "AsyncEngine",
    "AsyncResult",
    "ConstantLatency",
    "DataItem",
    "DataLayer",
    "IsolationReport",
    "MessageLayer",
    "MessageStats",
    "ProtocolNode",
    "RingState",
    "SimulatedCrescendo",
    "Simulator",
    "fail_outside_domain",
    "fail_random",
    "intra_domain_isolation",
    "path_stays_inside",
    "survival_under_random_failures",
]
