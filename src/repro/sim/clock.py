"""Simulated wall clock shared by every component of one node/cluster."""

from __future__ import annotations


class SimClock:
    """Monotonic simulated time in seconds.

    All simulated components hold a reference to one clock; the workload
    driver advances it as operations consume simulated resources.
    """

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new time.

        Raises:
            ValueError: on negative increments — simulated time is monotonic.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds}s")
        self._now += seconds
        return self._now
