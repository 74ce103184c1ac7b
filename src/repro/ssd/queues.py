"""Execution queues for SSD computation resources.

The paper adds a dedicated execution queue to each SSD computation resource
(ISP, PuD-SSD, IFP) so that (1) the offloader can track each resource's
utilization through its queueing delay and (2) multiple resources can
execute independent instructions concurrently (Section 5.1, "NDP
Extensions").  Conduit's cost function consumes the *resource queueing
delay*: the cumulative estimated execution latency of the instructions
currently enqueued (Section 4.5, footnote 5).

:class:`ExecutionQueue` implements exactly that: a running counter of
pending work plus a reservation-based service model backed by
:class:`repro.ssd.events.MultiServer` so die-/bank-/core-level parallelism
is captured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.common import ResourceLike
from repro.ssd.events import MultiServer, Reservation


@dataclass(slots=True)
class QueueEntry:
    """Bookkeeping for one instruction enqueued on a resource."""

    instruction_id: int
    enqueue_time: float
    estimated_latency: float
    start_time: float = 0.0
    completion_time: float = 0.0


class ExecutionQueue:
    """Execution queue of one SSD computation resource.

    Parameters
    ----------
    resource:
        Which computation resource this queue feeds.
    parallelism:
        Number of sub-units that can execute enqueued instructions
        concurrently (e.g. flash dies for IFP, DRAM banks for PuD-SSD,
        compute cores for ISP).
    """

    def __init__(self, resource: ResourceLike, parallelism: int = 1) -> None:
        self.resource = resource
        self.servers = MultiServer(f"{resource.value}-queue", parallelism)
        #: Running counter of estimated execution latency of enqueued but
        #: not yet completed instructions (the paper's footnote-5 counter).
        self._pending_latency = 0.0
        self._parallelism = self.servers.servers
        self._pending: Dict[int, QueueEntry] = {}
        self.completed: List[QueueEntry] = []

    @property
    def parallelism(self) -> int:
        return self.servers.servers

    @property
    def depth(self) -> int:
        """Number of instructions currently enqueued and not completed."""
        return len(self._pending)

    def queueing_delay(self, now: float) -> float:
        """Estimated delay a new instruction would wait before starting.

        This is the paper's running-counter estimate (Section 4.5, fn. 5):
        the cumulative estimated execution latency of the instructions
        currently enqueued, normalised by the queue's parallelism (a
        resource with many parallel sub-units drains its backlog faster).
        Stall time those instructions spend waiting for their own operands
        is *not* included -- the offloader cannot observe it cheaply.
        """
        return self._pending_latency / self._parallelism

    def pending_latency(self) -> float:
        """The raw running counter of enqueued estimated latencies."""
        return self._pending_latency

    def enqueue(self, instruction_id: int, now: float,
                estimated_latency: float) -> QueueEntry:
        """Record dispatch of an instruction; increments the counter."""
        entry = QueueEntry(instruction_id=instruction_id, enqueue_time=now,
                           estimated_latency=estimated_latency)
        self._pending[instruction_id] = entry
        self._pending_latency += estimated_latency
        return entry

    def reserve(self, instruction_id: int, ready_time: float,
                duration: float) -> Reservation:
        """Reserve an execution slot for an enqueued instruction."""
        entry = self._pending[instruction_id]
        reservation = self.servers.reserve(ready_time, duration)
        entry.start_time = reservation.start
        entry.completion_time = reservation.end
        return reservation

    def complete(self, instruction_id: int) -> QueueEntry:
        """Mark an instruction complete; decrements the counter."""
        entry = self._pending.pop(instruction_id)
        self._pending_latency -= entry.estimated_latency
        if self._pending_latency < 1e-9:
            self._pending_latency = 0.0
        self.completed.append(entry)
        return entry

    def utilization(self, elapsed: float) -> float:
        return self.servers.utilization(elapsed)


class ResourceQueueSet:
    """A read-mostly view over the execution queues of many backends.

    The queues themselves are owned by the registered compute backends
    (each :class:`~repro.core.backends.ComputeBackend` carries its own
    queue); this set is the platform-level aggregate the feature collector
    and utilization-based policies consume.  Construct it from any
    ``identity -> queue`` mapping (the registry's
    :meth:`~repro.core.backends.BackendRegistry.queues` in production,
    hand-built dicts in tests).
    """

    def __init__(self,
                 queues: Mapping[ResourceLike, ExecutionQueue]) -> None:
        self.queues: Dict[ResourceLike, ExecutionQueue] = dict(queues)

    @classmethod
    def of(cls, *queues: ExecutionQueue) -> "ResourceQueueSet":
        """Build a set from queues keyed by their own resource identity."""
        return cls({queue.resource: queue for queue in queues})

    def __getitem__(self, resource: ResourceLike) -> ExecutionQueue:
        return self.queues[resource]

    def __contains__(self, resource: ResourceLike) -> bool:
        return resource in self.queues

    def queueing_delays(self, now: float) -> Dict[ResourceLike, float]:
        return {resource: queue.queueing_delay(now)
                for resource, queue in self.queues.items()}

    def total_completed(self) -> int:
        return sum(len(queue.completed) for queue in self.queues.values())

    def busiest(self, now: float) -> Optional[ResourceLike]:
        delays = self.queueing_delays(now)
        if not delays:
            return None
        return max(delays, key=delays.get)
