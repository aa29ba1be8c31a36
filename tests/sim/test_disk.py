"""Simulated FIFO disk and its queue-length idleness signal."""

from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.tracing import NULL_TRACER, Tracer
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.disk import SimDisk
from repro.sim.faults import TransientIOError


@pytest.fixture()
def clock() -> SimClock:
    return SimClock()


@pytest.fixture()
def disk(clock) -> SimDisk:
    return SimDisk(clock, CostModel())


class TestService:
    def test_single_request_latency_is_service_time(self, disk):
        latency = disk.read(1024)
        assert latency == pytest.approx(CostModel().disk_time(1024))

    def test_requests_queue_fifo(self, disk):
        first = disk.read(1024)
        second = disk.read(1024)
        assert second == pytest.approx(2 * first)

    def test_queue_drains_with_time(self, clock, disk):
        disk.write(1024)
        disk.write(1024)
        assert disk.queue_length() == 2
        clock.advance(1.0)
        assert disk.queue_length() == 0
        assert disk.is_idle()

    def test_idleness_threshold(self, clock, disk):
        # Idle means an empty queue: one outstanding request is busy.
        latency = disk.write(1024)
        assert not disk.is_idle()
        clock.advance(latency)
        assert disk.is_idle()

    def test_counters(self, disk):
        disk.read(100)
        disk.write(200)
        disk.write(300)
        assert disk.reads == 1
        assert disk.writes == 2
        assert disk.bytes_read == 100
        assert disk.bytes_written == 500

    def test_invalid_kind(self, disk):
        with pytest.raises(ValueError):
            disk.submit("erase", 10)

    def test_negative_size(self, disk):
        with pytest.raises(ValueError):
            disk.read(-1)

    def test_larger_requests_take_longer(self, disk):
        small = CostModel().disk_time(1024)
        large = CostModel().disk_time(10 * 1024 * 1024)
        assert large > small

    def test_background_pressure_delays_foreground(self, clock, disk):
        # A burst of background writes makes the next foreground read wait —
        # exactly the Fig. 13b mechanism.
        baseline = disk.read(1024)
        clock.advance(10.0)
        for _ in range(10):
            disk.submit("write", 64 * 1024)
        delayed = disk.read(1024)
        assert delayed > baseline * 5


# The disk as it was while its queue held one frozen ``DiskRequest`` per
# request, copied verbatim as the reference the float queue must match.


@dataclass(frozen=True)
class DiskRequest:
    """One queued request: completion timestamp and size, for accounting."""

    kind: str  # "read" | "write"
    nbytes: int
    completes_at: float


class ReferenceDisk:
    """FIFO disk: requests serialize behind ``busy_until``.

    Background requests (write-backs) are fire-and-forget: they occupy the
    queue but nobody waits on them. Foreground requests return the latency
    the issuing operation must absorb.
    """

    def __init__(self, clock: SimClock, costs: CostModel | None = None) -> None:
        self.clock = clock
        self.costs = costs if costs is not None else CostModel()
        self._pending: deque[DiskRequest] = deque()
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

    def _reap(self) -> None:
        now = self.clock.now
        while self._pending and self._pending[0].completes_at <= now:
            self._pending.popleft()

    def queue_length(self) -> int:
        """Outstanding (unfinished) requests at the current simulated time."""
        self._reap()
        return len(self._pending)

    def is_idle(self, max_queue: int = 0) -> bool:
        """True when at most ``max_queue`` requests are outstanding."""
        return self.queue_length() <= max_queue

    def submit(self, kind: str, nbytes: int) -> float:
        """Enqueue a request; returns its latency from now until completion.

        The caller decides whether to absorb the latency (foreground read/
        write) or ignore it (background write-back).
        """
        if kind not in ("read", "write"):
            raise ValueError(f"unknown disk request kind {kind!r}")
        if nbytes < 0:
            raise ValueError(f"negative request size {nbytes}")
        if self.interceptor is not None:
            self.interceptor(kind, nbytes)
        self._reap()
        now = self.clock.now
        start = max(now, self._busy_until)
        service = self.costs.disk_time(nbytes)
        completes = start + service
        self._busy_until = completes
        self._pending.append(DiskRequest(kind, nbytes, completes))
        if kind == "read":
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


def _state(disk) -> tuple:
    if isinstance(disk, ReferenceDisk):
        queue = [request.completes_at for request in disk._pending]
    else:
        queue = list(disk._pending)
    return (queue, disk._busy_until, disk.reads, disk.writes,
            disk.bytes_read, disk.bytes_written)


def _fail(kind, nbytes):
    raise TransientIOError(f"{kind} of {nbytes} B")


OPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["submit", "fail"]),
            st.sampled_from(["read", "write", "erase"]),
            st.integers(-2, 1 << 20),
        ),
        st.tuples(st.just("advance"), st.floats(0.0, 0.05, allow_nan=False)),
        # Up to the last request's completion, often exactly: a request
        # finishing at ``now`` is no longer queued.
        st.tuples(st.just("advance_latency")),
        st.tuples(st.just("queue_length")),
        st.tuples(st.just("is_idle")),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(OPS)
def test_property_float_queue_matches_the_request_queue(ops):
    """Same latencies (``==``, not approx), queue lengths, idleness and
    counters as the reference under any mix of requests and clock
    advances; a rejected or interrupted request changes neither."""
    clock = SimClock()
    disk, reference = SimDisk(clock), ReferenceDisk(clock)
    latency = 0.0
    for op in ops:
        name, *args = op
        if name == "advance":
            clock.advance(args[0])
        elif name == "advance_latency":
            clock.advance(latency)
        elif name == "queue_length":
            assert disk.queue_length() == reference.queue_length()
        elif name == "is_idle":
            assert disk.is_idle() == reference.is_idle()
        else:
            kind, nbytes = args
            seen = []
            for device in (disk, reference):
                device.interceptor = _fail if name == "fail" else (
                    lambda k, n: seen.append((k, n))
                )
            before = _state(disk)
            outcomes = []
            for device in (disk, reference):
                try:
                    outcomes.append(device.submit(kind, nbytes))
                except (ValueError, TransientIOError) as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1]
            if isinstance(outcomes[0], float):
                latency = outcomes[0]
            if outcomes[0] in (ValueError, TransientIOError):
                assert _state(disk) == before
                assert _state(reference) == before
            if outcomes[0] is ValueError:
                assert seen == []  # rejected before the interceptor runs
            elif name == "submit":
                assert seen == [(kind, nbytes)] * 2
        assert _state(disk) == _state(reference)
