"""Memory-system models: a per-core fair-share channel and a shared server.

Two levels of fidelity are provided:

* :class:`MemoryChannel` — the fast path. All cores in the evaluated
  workloads are symmetric, so each one sees ``MBW / cores`` of bandwidth in
  steady state; a single-core simulation against this channel is exact for
  throughput and far cheaper than a full multi-core event simulation. Its
  batched :meth:`MemoryChannel.request_many` scan services ad-hoc request
  batches, and its :meth:`MemoryChannel.wave_scan` block-scan API services
  the exact multi-core backend's 2-D ``(wave, core)`` request matrices —
  any number of interleaved waves per call — in one vectorized pass.
* :class:`SharedMemoryServer` — an event-ordered FIFO bandwidth server that
  resolves arbitrarily ordered cross-core requests with a heap. Retained as
  the reference formulation the batched wave scan is validated against in
  the tests.

Both track busy cycles so memory utilization (Table 3) can be reported.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.errors import SimulationError


class MemoryChannel:
    """Fair-share bandwidth channel with latency exposure.

    A request of ``nbytes`` occupies the channel for ``nbytes /
    bytes_per_cycle`` cycles starting no earlier than the previous request
    finished service. Its completion additionally waits for the *exposed*
    part of the access latency: prefetchers overlap most of the latency
    with earlier transfers, so only a configurable fraction remains visible
    (Section 9.3's +Reads L2 / +DECA prefetcher ladder).
    """

    def __init__(self, bytes_per_cycle: float, latency_cycles: float) -> None:
        if bytes_per_cycle <= 0:
            raise SimulationError("bytes_per_cycle must be positive")
        if latency_cycles < 0:
            raise SimulationError("latency_cycles must be non-negative")
        self.bytes_per_cycle = bytes_per_cycle
        self.latency_cycles = latency_cycles
        self._free_at = 0.0
        self._busy_cycles = 0.0

    def request(
        self, issue_cycle: float, nbytes: float, exposed_latency: float = 0.0
    ) -> float:
        """Issue a read; returns the cycle at which the data is usable.

        ``exposed_latency`` is the fraction of the access latency not
        hidden by prefetching (0 = perfectly prefetched, 1 = fully
        demand-fetched).
        """
        if nbytes < 0:
            raise SimulationError("request size must be non-negative")
        if not 0.0 <= exposed_latency <= 1.0:
            raise SimulationError("exposed_latency must be in [0, 1]")
        start = max(issue_cycle, self._free_at)
        service = nbytes / self.bytes_per_cycle
        self._free_at = start + service
        self._busy_cycles += service
        return self._free_at + exposed_latency * self.latency_cycles

    def request_many(
        self,
        issue_cycles: np.ndarray,
        nbytes: np.ndarray,
        exposed_latency: float = 0.0,
    ) -> np.ndarray:
        """Issue a batch of reads in order; returns per-request data-ready cycles.

        Equivalent to calling :meth:`request` once per element, but computed
        as one array scan. The FIFO recurrence

            free[i] = max(issue[i], free[i-1]) + service[i]

        is evaluated in relative coordinates: with ``C`` the running cumsum
        of service times, ``free[i] = C[i] + max_{j<=i}(issue[j] - C[j-1])``
        (clamped below by the channel's current ``free_at``). The scan is a
        single ``np.maximum.accumulate`` pass. Results match the scalar path
        to within reassociation rounding (identical when the recurrence is
        evaluated in the same relative coordinates).
        """
        issue_cycles = np.asarray(issue_cycles, dtype=float)
        nbytes = np.asarray(nbytes, dtype=float)
        if issue_cycles.shape != nbytes.shape:
            raise SimulationError("issue_cycles and nbytes must align")
        if nbytes.size == 0:
            return np.zeros(0)
        if np.any(nbytes < 0):
            raise SimulationError("request size must be non-negative")
        if not 0.0 <= exposed_latency <= 1.0:
            raise SimulationError("exposed_latency must be in [0, 1]")
        service = nbytes / self.bytes_per_cycle
        cum = np.cumsum(service)
        cum_prev = np.concatenate(([0.0], cum[:-1]))
        peak = np.maximum.accumulate(
            np.maximum(issue_cycles - cum_prev, self._free_at)
        )
        free = peak + cum
        self._free_at = float(free[-1])
        self._busy_cycles += float(cum[-1])
        return free + exposed_latency * self.latency_cycles

    def wave_scan(
        self,
        nbytes_per_wave: np.ndarray,
        lanes: int,
        exposed_latency: float = 0.0,
    ) -> "WaveBlockScan":
        """Open a block-scan cursor over a wave-interleaved request stream.

        The multi-core event backend issues fetches in *waves* — one
        request per core (lane), all waves of one stream sharing the
        wave's byte count. :class:`WaveBlockScan` services that stream
        through this channel in FIFO order, any number of waves per
        :meth:`WaveBlockScan.drain` call, and its relative-coordinate
        algebra is *partition-independent*: draining one wave at a time
        and draining whole window-blocks produce bit-identical
        completion times (the service cumsum is precomputed once here,
        and the running peak is carried through exact ``max`` ops).
        """
        return WaveBlockScan(self, nbytes_per_wave, lanes, exposed_latency)

    @property
    def busy_cycles(self) -> float:
        """Total cycles the channel spent transferring data."""
        return self._busy_cycles

    def utilization(self, makespan_cycles: float) -> float:
        """Fraction of the makespan the channel was busy."""
        if makespan_cycles <= 0:
            raise SimulationError("makespan must be positive")
        return min(1.0, self._busy_cycles / makespan_cycles)

    def reset(self) -> None:
        """Forget all previous requests."""
        self._free_at = 0.0
        self._busy_cycles = 0.0


class WaveBlockScan:
    """A stateful FIFO scan over a 2-D ``(wave, core)`` request stream.

    One instance serves one simulation: ``nbytes_per_wave[w]`` is the
    byte count every lane fetches in wave ``w``, and successive
    :meth:`drain` calls consume consecutive waves. The FIFO recurrence

        ``free[r] = max(issue[r], free[r-1]) + service[r]``

    is evaluated in *global* relative coordinates: ``C`` is the cumsum
    of service times over the whole stream (precomputed once, so it is
    identical no matter how the stream is partitioned into drains), and

        ``free[r] = C[r] + max_{q<=r}(max(issue[q] - C[q-1], peak0))``

    where the running peak carries across drains through exact ``max``
    operations. Because every float op on a given request is identical
    regardless of block boundaries, a per-wave drain loop and a blocked
    drain produce bit-identical completion times — the property the
    multi-core engine equivalence tests assert.
    """

    def __init__(
        self,
        channel: MemoryChannel,
        nbytes_per_wave: np.ndarray,
        lanes: int,
        exposed_latency: float = 0.0,
    ) -> None:
        if lanes < 1:
            raise SimulationError("wave scan needs at least one lane")
        if not 0.0 <= exposed_latency <= 1.0:
            raise SimulationError("exposed_latency must be in [0, 1]")
        nbytes_per_wave = np.asarray(nbytes_per_wave, dtype=float).ravel()
        if np.any(nbytes_per_wave < 0):
            raise SimulationError("request size must be non-negative")
        self._channel = channel
        self._lanes = int(lanes)
        self._exposed = exposed_latency * channel.latency_cycles
        service = nbytes_per_wave / channel.bytes_per_cycle
        n = service.size * self._lanes
        if service.size and np.all(service == service[0]):
            # Uniform stream (scalar bytes_per_tile): the cumsum is an
            # exact multiple of one service time. Used by both the
            # blocked and the per-wave engine, so they stay
            # bit-identical to each other.
            self._cum = np.arange(1, n + 1) * float(service[0])
            self._cum_prev = np.arange(n) * float(service[0])
        else:
            flat = np.repeat(service, self._lanes)
            self._cum = np.cumsum(flat)
            self._cum_prev = np.concatenate(([0.0], self._cum[:-1]))
        # Completion = peak + cum + exposed; the last two are constants
        # per request, pre-added so a drain is one add, not two.
        self._cum_exposed = self._cum + self._exposed
        self._cursor = 0
        # The peak starts at the channel's current free time: in relative
        # coordinates the floor `issue >= free_at` is `peak >= free_at`.
        self._peak = channel._free_at
        # The scan owns the channel between drains: interleaved traffic
        # would invalidate the precomputed cumsum (guarded in drain()).
        self._channel_free = channel._free_at

    @property
    def waves_remaining(self) -> int:
        """Waves not yet drained."""
        return (self._cum.size - self._cursor) // self._lanes

    def drain(self, issue_matrix: np.ndarray) -> np.ndarray:
        """Service the next ``issue_matrix.shape[0]`` waves; data-ready times.

        ``issue_matrix`` is ``(waves, lanes)``, each row one wave's
        per-lane issue times *already ordered the way the FIFO should
        see them* (the engine orders within a wave by issue time). The
        return has the same shape: per-request data-ready cycles.
        """
        issue_matrix = np.asarray(issue_matrix, dtype=float)
        if issue_matrix.ndim != 2 or issue_matrix.shape[1] != self._lanes:
            raise SimulationError(
                f"issue matrix must be (waves, {self._lanes}), got "
                f"{issue_matrix.shape}"
            )
        n = issue_matrix.size
        if self._cursor + n > self._cum.size:
            raise SimulationError(
                "wave scan drained past the end of its request stream"
            )
        if self._channel._free_at != self._channel_free:
            raise SimulationError(
                "the channel serviced other requests while this wave scan "
                "was active; a WaveBlockScan needs exclusive use of its "
                "channel between drains"
            )
        window = slice(self._cursor, self._cursor + n)
        # peak[r] = max(peak_carry, max_{q<=r}(issue[q] - cum_prev[q])),
        # computed in place; completion = peak + (cum + exposed).
        slack = issue_matrix.reshape(-1) - self._cum_prev[window]
        np.maximum(slack, self._peak, out=slack)
        np.maximum.accumulate(slack, out=slack)
        self._peak = float(slack[-1])
        ready = slack + self._cum_exposed[window]
        start_cum = self._cum_prev[self._cursor]
        self._cursor += n
        self._channel._free_at = self._peak + float(self._cum[self._cursor - 1])
        self._channel._busy_cycles += float(self._cum[self._cursor - 1] - start_cum)
        self._channel_free = self._channel._free_at
        return ready.reshape(issue_matrix.shape)


class SharedMemoryServer:
    """Event-ordered FIFO bandwidth server shared by many cores.

    Requests are serviced in arrival order at the aggregate bandwidth.
    Because completion times feed back into future issue times, callers
    must issue requests in nondecreasing ``issue_cycle`` order *per core*;
    cross-core ordering is resolved with an internal heap.
    """

    def __init__(self, bytes_per_cycle: float, latency_cycles: float) -> None:
        if bytes_per_cycle <= 0:
            raise SimulationError("bytes_per_cycle must be positive")
        self.bytes_per_cycle = bytes_per_cycle
        self.latency_cycles = latency_cycles
        self._free_at = 0.0
        self._busy_cycles = 0.0
        self._pending: List[Tuple[float, int, float, float]] = []
        self._sequence = 0

    def enqueue(
        self, issue_cycle: float, nbytes: float, exposed_latency: float = 0.0
    ) -> int:
        """Queue a request; returns a ticket used to read the completion."""
        ticket = self._sequence
        self._sequence += 1
        heapq.heappush(
            self._pending, (issue_cycle, ticket, nbytes, exposed_latency)
        )
        return ticket

    def drain(self) -> dict:
        """Service every queued request in issue order.

        Returns a dict mapping tickets to completion cycles. Draining in
        batches is exact as long as no future request could have been
        issued earlier than the latest queued one — the tile-stream
        simulator guarantees this by draining once per simulation.
        """
        completions = {}
        while self._pending:
            issue, ticket, nbytes, exposed = heapq.heappop(self._pending)
            start = max(issue, self._free_at)
            service = nbytes / self.bytes_per_cycle
            self._free_at = start + service
            self._busy_cycles += service
            completions[ticket] = self._free_at + exposed * self.latency_cycles
        return completions

    @property
    def busy_cycles(self) -> float:
        """Total cycles spent transferring data."""
        return self._busy_cycles

    def utilization(self, makespan_cycles: float) -> float:
        """Fraction of the makespan the server was busy."""
        if makespan_cycles <= 0:
            raise SimulationError("makespan must be positive")
        return min(1.0, self._busy_cycles / makespan_cycles)
