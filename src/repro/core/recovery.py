"""Crash injection and recovery verification helpers (§2.2).

The paper's reliability claim is that a *single workstation crash* never
costs the client its pages.  :class:`CrashInjector` kills a chosen server
at a chosen simulated instant — exactly what the paper's fault model
covers (software crash / hardware error; power failures are excluded as
UPS-handled, and network partitions block rather than crash).
"""

from __future__ import annotations

from ..sim import Process, Simulator
from .server import MemoryServer

__all__ = ["CrashInjector"]


class CrashInjector:
    """Schedules server crashes at simulated instants.

    >>> injector = CrashInjector(sim)
    >>> injector.crash_at(server, 12.5)   # server dies at t=12.5 s
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.crashes: list = []

    def crash_at(self, server: MemoryServer, at_time: float) -> Process:
        """Kill ``server`` at ``at_time`` (must not be in the past)."""
        if at_time < self.sim.now:
            raise ValueError(f"crash time {at_time} is in the past (now {self.sim.now})")
        return self.sim.process(
            self._crash(server, at_time), name=f"crash:{server.name}"
        )

    def crash_after_pageouts(self, server: MemoryServer, pageouts: int) -> None:
        """Kill ``server`` the instant it finishes its ``pageouts``-th
        pageout — deterministic mid-workload fault injection.

        Event-driven: hooks the server's pageout counter directly, so no
        polling process clutters the kernel's heap and the crash lands at
        the exact store that crosses the threshold (the old 10 ms poll
        could let extra pageouts slip through the detection window).
        """
        if pageouts < 0:
            raise ValueError(f"negative pageout count: {pageouts}")
        if server.counters["pageouts"] >= pageouts:
            self._kill(server)
            return

        def watcher(count: int) -> None:
            if count >= pageouts:
                server.remove_pageout_watcher(watcher)
                self._kill(server)

        server.add_pageout_watcher(watcher)

    def _crash(self, server: MemoryServer, at_time: float):
        yield self.sim.timeout(at_time - self.sim.now)
        self._kill(server)

    def _kill(self, server: MemoryServer) -> None:
        if server.is_alive:
            server.crash()
            self.crashes.append((self.sim.now, server.name))
