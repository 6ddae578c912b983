"""The deterministic fault-injection registry.

Every recovery path in the distributed layers is exercised by *armed*
faults, not by probabilistic chaos: a test (or benchmark) arms a
:class:`Fault` at a named **site** — a string like ``"hyperwall.server.recv"``
or ``"executor.module"`` — and the instrumented code calls
:func:`check` at that site on every pass, supplying its labels
(client id, cell, module name, ...).  A fault
fires only when its ``match`` predicate is a subset of the supplied
labels, only after ``after`` matching visits have passed, and at most
``times`` times — so "kill client 2 on its first execute" or "drop the
socket on the second reply from client 3" are exact, repeatable
scenarios.

Fault actions:

``raise``
    raise :class:`~repro.util.errors.InjectedFault` at the site;
``exit``
    ``os._exit(exit_code)`` — a hard process kill (hyperwall client
    processes; never fired in the test runner's own process by the
    instrumented sites, which only place it in child processes);
``delay``
    sleep ``delay`` seconds, then continue;
``drop`` / ``corrupt``
    returned to the caller, which interprets them (e.g. the hyperwall
    server closes the connection for ``drop``; the protocol layer
    flips payload bytes for ``corrupt``).

Fork semantics: the registry is plain process-global state, so faults
armed *before* client processes fork are inherited by the
children; fire counts are per-process.  Sites therefore pass
discriminating labels (``client``, ``cell``) and faults
match on them, keeping injection deterministic across process trees.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro import obs
from repro.util.errors import InjectedFault, ResilienceError

ACTIONS = ("raise", "exit", "delay", "drop", "corrupt")


@dataclass
class Fault:
    """One armed fault: what to do, where it applies, and how often."""

    action: str
    site: str = ""
    match: Dict[str, Any] = field(default_factory=dict)
    times: int = 1  # fire at most this many times (<= 0 means unlimited)
    after: int = 0  # let this many matching visits pass unharmed first
    delay_seconds: float = 0.0
    exit_code: int = 9
    message: str = ""
    #: per-process state
    visits: int = 0
    fired: int = 0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ResilienceError(
                f"unknown fault action {self.action!r}; expected one of {ACTIONS}"
            )

    def matches(self, labels: Dict[str, Any]) -> bool:
        return all(labels.get(k) == v for k, v in self.match.items())

    def exhausted(self) -> bool:
        return self.times > 0 and self.fired >= self.times


class FaultRegistry:
    """Process-global registry of armed faults, keyed by site name."""

    def __init__(self) -> None:
        self._sites: Dict[str, List[Fault]] = {}
        self._lock = threading.Lock()

    # -- arming ------------------------------------------------------------

    def arm(self, site: str, action: str, **kwargs: Any) -> Fault:
        """Arm a fault at *site*; returns it (inspectable: ``fault.fired``)."""
        fault = Fault(action=action, site=site, **kwargs)
        with self._lock:
            self._sites.setdefault(site, []).append(fault)
        return fault

    def disarm(self, site: Optional[str] = None) -> None:
        """Remove every fault at *site* (or everywhere when None)."""
        with self._lock:
            if site is None:
                self._sites.clear()
            else:
                self._sites.pop(site, None)

    def armed(self, site: Optional[str] = None) -> bool:
        with self._lock:
            if site is None:
                return any(self._sites.values())
            return bool(self._sites.get(site))

    # -- firing ------------------------------------------------------------

    def check(self, site: str, **labels: Any) -> Optional[Fault]:
        """Visit *site*; fire the first matching armed fault, if any.

        ``raise``/``exit``/``delay`` faults act here; ``drop``/``corrupt``
        faults are returned for the caller to interpret.  Returns None
        when nothing fired.
        """
        with self._lock:
            candidates = self._sites.get(site)
            if not candidates:
                return None
            fault = None
            for candidate in candidates:
                if candidate.exhausted() or not candidate.matches(labels):
                    continue
                candidate.visits += 1
                if candidate.visits <= candidate.after:
                    continue
                candidate.fired += 1
                fault = candidate
                break
        if fault is None:
            return None
        if obs.enabled():
            obs.counter("resilience.faults.fired", site=site, action=fault.action)
        if fault.action == "raise":
            raise InjectedFault(
                fault.message or f"injected fault at {site} ({labels})"
            )
        if fault.action == "exit":
            os._exit(fault.exit_code)
        if fault.action == "delay":
            time.sleep(fault.delay_seconds)
            return fault
        return fault


#: the process-global registry used by all instrumented sites
_REGISTRY = FaultRegistry()


def arm(site: str, action: str, **kwargs: Any) -> Fault:
    """Arm a fault on the global registry (see :meth:`FaultRegistry.arm`)."""
    return _REGISTRY.arm(site, action, **kwargs)


def disarm(site: Optional[str] = None) -> None:
    _REGISTRY.disarm(site)


def armed(site: Optional[str] = None) -> bool:
    return _REGISTRY.armed(site)


def check(site: str, **labels: Any) -> Optional[Fault]:
    """Site hook: no-op (and allocation-free) unless a fault is armed."""
    if not _REGISTRY.armed(site):
        return None
    return _REGISTRY.check(site, **labels)


class injected:
    """Context manager arming one fault for the duration of a block::

        with faults.injected("executor.module", "raise", match={"module": "X"}):
            ...

    Disarms only the faults it armed, restoring prior state.
    """

    def __init__(self, site: str, action: str, **kwargs: Any) -> None:
        self.site = site
        self.action = action
        self.kwargs = kwargs
        self.fault: Optional[Fault] = None

    def __enter__(self) -> Fault:
        self.fault = arm(self.site, self.action, **self.kwargs)
        return self.fault

    def __exit__(self, *exc_info: Any) -> None:
        with _REGISTRY._lock:
            site_faults = _REGISTRY._sites.get(self.site, [])
            if self.fault in site_faults:
                site_faults.remove(self.fault)
            if not site_faults:
                _REGISTRY._sites.pop(self.site, None)


def iter_faults() -> Iterator[Fault]:
    """Snapshot of every armed fault (diagnostics and test assertions)."""
    with _REGISTRY._lock:
        snapshot = [f for faults in _REGISTRY._sites.values() for f in faults]
    return iter(snapshot)
