"""Several processes sharing the cache and the disk array.

The paper studies one fully-hinted process and defers the multi-process
case to TIP2 (Patterson et al. [25]) and future work: how should buffers
and disk bandwidth be divided among processes, only some of which hint?
:class:`MultiProcessSimulator` models that case on the engine's one event
loop (:class:`~repro.core.engine.Simulator`):

* each process is a *stream* — a ``Simulator`` running its own trace under
  its own policy, with private accounting (compute/driver/stall/elapsed)
  and every engine feature (faults, write-behind, CPU scaling, disk
  models, mirroring, timelines);
* stream 0 owns the clock, the event heap and the one
  :class:`~repro.disk.array.DiskArray`; a free disk is offered to the live
  streams in rotating order, so no process can monopolize the array by
  its position;
* the buffer cache is *partitioned*: every stream owns a
  :class:`_SharedSlice`, and an **allocator** decides the slice sizes:

  - :class:`StaticAllocator` — fixed shares (TIP2's baseline);
  - :class:`CostBenefitAllocator` — TIP2's idea in simplified form:
    periodically move buffers from the process with the lowest recent
    stall-per-buffer toward the one with the highest, since a stalling
    hinting process can convert a buffer directly into prefetch depth.

Block identities are namespaced per stream (stream ``pid`` owns the blocks
``raw + (pid << 32)``), so two traces may use the same small integers
without colliding in the shared array; the engine routes each completion
to its owner by that namespace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.cache import BufferCache
from repro.core.engine import SimConfig, Simulator
from repro.core.policy import PrefetchPolicy
from repro.core.results import SimulationResult
from repro.disk.array import DiskArray
from repro.trace.trace import Trace


@dataclass
class ProcessResult:
    """Per-process outcome plus the shared-run aggregate view."""

    results: List[SimulationResult]

    @property
    def makespan_ms(self) -> float:
        return max(r.elapsed_ms for r in self.results)

    @property
    def total_stall_ms(self) -> float:
        return sum(r.stall_ms for r in self.results)

    def __iter__(self) -> Iterator[SimulationResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> SimulationResult:
        return self.results[index]


class StaticAllocator:
    """Fixed buffer shares, proportional to the given weights."""

    name = "static"
    #: Simulated-time interval between rebalances; None disables them.
    period_ms: Optional[float] = None

    def __init__(self, weights: Optional[Sequence[float]] = None) -> None:
        self.weights = weights

    def initial_shares(self, total: int, num_processes: int) -> List[int]:
        weights = self.weights or [1.0] * num_processes
        if len(weights) != num_processes:
            raise ValueError("one weight per process required")
        scale = total / sum(weights)
        shares = [max(1, int(w * scale)) for w in weights]
        shares[0] += total - sum(shares)  # rounding drift to process 0
        return shares

    def rebalance(self, sim: MultiProcessSimulator) -> None:
        """Static allocation never moves buffers."""


class CostBenefitAllocator(StaticAllocator):
    """Move buffers toward the process whose stalls they can cure.

    Every ``period_ms`` of simulated time, compares each live process's
    stall accumulated since the last rebalance; one buffer (per period,
    per donor) migrates from the least-stalled to the most-stalled process
    when the gap is material.  This is TIP2's cost-benefit estimate with
    the bookkeeping radically simplified: recent stall stands in for the
    marginal benefit of a buffer.
    """

    name = "cost-benefit"

    def __init__(self, weights: Optional[Sequence[float]] = None,
                 period_ms: float = 250.0, min_share: int = 8,
                 step: int = 4) -> None:
        super().__init__(weights)
        self.period_ms = period_ms
        self.min_share = min_share
        self.step = step
        self._last_stall: List[float] = []

    def rebalance(self, sim: MultiProcessSimulator) -> None:
        live = [p for p in sim.processes if not p.done]
        if len(live) < 2:
            return
        if not self._last_stall:
            self._last_stall = [0.0] * len(sim.processes)
        deltas = {
            p.pid: p.stall_total - self._last_stall[p.pid] for p in live
        }
        for p in live:
            self._last_stall[p.pid] = p.stall_total
        needy = max(live, key=lambda p: deltas[p.pid])
        donor = min(live, key=lambda p: deltas[p.pid])
        if needy is donor:
            return
        if deltas[needy.pid] - deltas[donor.pid] <= 1e-9:
            return
        moved = donor.cache.shrink(self.step, floor=self.min_share)
        if moved:
            needy.cache.grow(moved)


class _SharedSlice(BufferCache):
    """A process's partition of the shared cache, resizable at runtime."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self.allow_overflow = True  # shrinks drain via normal evictions

    def shrink(self, count: int, floor: int) -> int:
        """Give up to ``count`` buffers away (capacity floor respected).

        Over-occupancy is tolerated: the slice simply refuses new fetches
        until evictions drain it below the new capacity.
        """
        granted = max(0, min(count, self.capacity - floor))
        self.capacity -= granted
        return granted

    def grow(self, count: int) -> None:
        self.capacity += count

    @property
    def free_buffers(self) -> int:
        return max(0, self.capacity - len(self.resident) - len(self.in_flight))


class _Stream(Simulator):
    """One process of a shared run: a :class:`Simulator` over its trace
    shifted into namespace ``pid`` (blocks ``raw + (pid << 32)``), with a
    resizable cache slice.  Stream 0 builds the disk array, the event heap
    and the loop; a later stream shares them by reference."""

    _cache_class = _SharedSlice
    cache: _SharedSlice

    def __init__(
        self,
        trace: Trace,
        policy: PrefetchPolicy,
        num_disks: int,
        config: SimConfig,
        share: int,
        first: Optional[_Stream],
    ) -> None:
        pid = 0 if first is None else len(first.streams)
        offset = pid << 32
        files = trace.files or {}
        # Placement identity: a block outside any file is offset ``raw`` of
        # file ``pid``.
        identities = {
            raw + offset: files.get(raw, (pid, raw)) for raw in trace.blocks
        }
        self._first = first
        super().__init__(
            replace(
                trace,
                blocks=[raw + offset for raw in trace.blocks],
                files=identities,
            ),
            policy,
            num_disks,
            config.with_(
                cache_blocks=share,
                placement_seed=config.placement_seed + pid,
            ),
        )
        self.pid = pid
        self._shared = True
        if first is not None:
            self.streams = first.streams
            self._live = first._live
            self._offers = first._offers
            self._service_in_progress = first._service_in_progress
            self.streams.append(self)
            self._live.append(self)

    def _push(self, time: float, kind: int, payload: int) -> None:
        # Every stream's events go on stream 0's heap, in its sequence.
        Simulator._push(self.streams[0], time, kind, payload)

    def _build_array(self) -> DiskArray:
        if self._first is None:
            return super()._build_array()
        return self._first.array

    def _placement_order(self, universe: Set[int]) -> Iterable[int]:
        # File starts are drawn in first-reference order.
        return self.index.unique_blocks()

    @property
    def done(self) -> bool:
        """Whether this stream has consumed its whole trace."""
        return self._done


class MultiProcessSimulator:
    """Run several (trace, policy) pairs against shared disks and cache."""

    def __init__(
        self,
        workloads: Sequence[Tuple[Trace, PrefetchPolicy]],
        num_disks: int,
        config: Optional[SimConfig] = None,
        allocator: Optional[StaticAllocator] = None,
    ) -> None:
        if not workloads:
            raise ValueError("need at least one process")
        self.config = config if config is not None else SimConfig()
        self.num_disks = num_disks
        self.allocator = allocator if allocator is not None else StaticAllocator()
        shares = self.allocator.initial_shares(
            self.config.cache_blocks, len(workloads)
        )
        self.processes: List[_Stream] = []
        for (trace, policy), share in zip(workloads, shares):
            first = self.processes[0] if self.processes else None
            self.processes.append(
                _Stream(trace, policy, num_disks, self.config, share, first)
            )
        self.array = self.processes[0].array

    def disk_of(self, block: int) -> int:
        return self.processes[block >> 32].disk_of(block)

    def lbn_of(self, block: int) -> int:
        return self.processes[block >> 32].lbn_of(block)

    def run(self) -> ProcessResult:
        period = self.allocator.period_ms
        self.processes[0]._dispatch(
            lambda: self.allocator.rebalance(self),
            math.inf if period is None else period,
        )
        makespan = max(p.elapsed for p in self.processes)
        utilization = self.array.utilization(makespan)
        return ProcessResult(
            [self._result_for(p, utilization) for p in self.processes]
        )

    def _result_for(
        self, process: _Stream, utilization: float
    ) -> SimulationResult:
        # Utilization and average fetch time are taken over the shared
        # array, as are the fault counters _build_result reads off it;
        # per-disk busy time is left out.
        return replace(
            process._build_result(),
            cache_blocks=process.cache.capacity,
            average_fetch_ms=self.array.average_service_ms(),
            disk_utilization=utilization,
            per_disk_busy_ms=[],
        )
