"""Fault tolerance for the distributed layers (retry, breakers, fault injection).

The paper's headline deployment — DV3D driving a multi-node hyperwall
over long-running, time-varying data — makes node loss the steady
state, not the exception.  This package is the shared vocabulary the
distributed seams (hyperwall server, workflow executor, ESG
federation) use to survive it:

* :class:`RetryPolicy` — attempt budgets, exponential backoff with
  *deterministic* jitter (seeded via :mod:`repro.util.rng`), and
  wall-clock deadline budgets;
* :class:`CircuitBreaker` — consecutive-failure tripping with
  half-open probing and an injectable clock;
* :mod:`repro.resilience.faults` — a deterministic fault-injection
  registry: tests arm ``drop``/``exit``/``raise``/``delay``/``corrupt``
  faults at named sites (``hyperwall.server.recv``,
  ``hyperwall.client.execute``, ``executor.module``, ...) so every
  recovery path is exercised exactly, not probabilistically.

Observability: ``resilience.retries`` / ``resilience.degraded`` /
``resilience.faults.fired`` counters, ``resilience.breaker.state``
gauges and ``resilience.recovery.seconds`` histograms flow into
:mod:`repro.obs`.
"""

from repro.resilience import faults
from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    CircuitOpenError,
)
from repro.resilience.faults import Fault, FaultRegistry
from repro.resilience.policy import FAIL_FAST, RetryPolicy
from repro.util.errors import InjectedFault, ResilienceError

__all__ = [
    "CLOSED",
    "FAIL_FAST",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
    "CircuitOpenError",
    "Fault",
    "FaultRegistry",
    "InjectedFault",
    "ResilienceError",
    "RetryPolicy",
    "faults",
]
