"""Simulated disk with a FIFO service queue.

The queue is the load signal §3.3.2's write-back cache polls: "we use the
I/O queue length as an indication" of idleness. Requests are served in
submission order at the cost model's service rate; a foreground request's
latency is its wait behind the queue plus its own service time.

Only the completion time of a queued request is ever read back, so the
queue holds nothing else: a deque of floats. Requests complete in
submission order, so those times never decrease and the finished
requests are always a prefix of the queue: reaping pops from the left
until the first time still in the future.
"""

from __future__ import annotations

from collections import deque

from repro.obs.tracing import NULL_TRACER, Tracer
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel


class SimDisk:
    """FIFO disk: requests serialize behind ``busy_until``.

    Background requests (write-backs) are fire-and-forget: they occupy the
    queue but nobody waits on them. Foreground requests return the latency
    the issuing operation must absorb.
    """

    def __init__(self, clock: SimClock, costs: CostModel | None = None) -> None:
        self.clock = clock
        self.costs = costs if costs is not None else CostModel()
        #: Completion times of the requests not yet reaped, oldest first.
        self._pending: deque[float] = deque()
        self._busy_until = 0.0
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: Optional fault hook ``(kind, nbytes) -> None``; may raise
        #: :class:`repro.sim.faults.TransientIOError`, in which case the
        #: request never enters the queue and the caller must retry.
        self.interceptor = None
        #: Tracer the device attributes ``disk_s`` (service time) to —
        #: the owning node installs the cluster's shared tracer.
        self.tracer: Tracer = NULL_TRACER

    def queue_length(self) -> int:
        """Outstanding (unfinished) requests at the current simulated time."""
        pending = self._pending
        now = self.clock.now
        while pending and pending[0] <= now:
            pending.popleft()
        return len(pending)

    def is_idle(self) -> bool:
        """True when no request is outstanding (§3.3.2's idleness signal)."""
        return self.queue_length() == 0

    def submit(self, kind: str, nbytes: int) -> float:
        """Enqueue a request; returns its latency from now until completion.

        The caller decides whether to absorb the latency (foreground read/
        write) or ignore it (background write-back).
        """
        if kind == "read":
            is_read = True
        elif kind == "write":
            is_read = False
        else:
            raise ValueError(f"unknown disk request kind {kind!r}")
        if nbytes < 0:
            raise ValueError(f"negative request size {nbytes}")
        if self.interceptor is not None:
            self.interceptor(kind, nbytes)
        now = self.clock.now
        pending = self._pending
        while pending and pending[0] <= now:
            pending.popleft()
        busy = self._busy_until
        start = busy if busy > now else now  # max(now, busy), same float
        service = self.costs.disk_time(nbytes)
        completes = start + service
        self._busy_until = completes
        pending.append(completes)
        if is_read:
            self.reads += 1
            self.bytes_read += nbytes
        else:
            self.writes += 1
            self.bytes_written += nbytes
        self.tracer.add_cost("disk_s", service)
        return completes - now

    def read(self, nbytes: int) -> float:
        """Foreground read; returns latency to absorb."""
        return self.submit("read", nbytes)

    def write(self, nbytes: int) -> float:
        """Foreground write; returns latency to absorb."""
        return self.submit("write", nbytes)
