"""Event-driven trace simulator.

One wall clock drives two kinds of timeline:

* the **application**, which alternates compute (the traced inter-reference
  CPU times), driver work (0.5 ms per I/O issued, charged to the CPU), and
  stalls (waiting for a missing block to arrive); and
* **d disks**, each serving one request at a time from its scheduling queue.

A shared run (:mod:`repro.core.multiprocess`) puts several applications —
*streams* — on the same clock and disks; a solo run is the one-stream case.

Policies are consulted before every reference and at every disk completion;
they issue fetch/eviction pairs, the engine does everything else.  The
run's accounting identity — ``elapsed == compute + driver + stall`` — is
checked exactly at the end of every simulation, which makes the engine
self-auditing.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Type,
)

from repro.core.cache import BufferCache
from repro.core.hints import resolve_hint_view
from repro.core.nextref import EvictionHeap, NextRefIndex, ScanSupport
from repro.core.policy import PrefetchPolicy
from repro.core.results import SimulationResult
from repro.core.timeline import (
    EVICTION,
    FAILOVER,
    FAULT_INJECTED,
    FETCH_DONE,
    FETCH_ISSUED,
    FETCH_RETRY,
    STALL_END,
    STALL_START,
    Timeline,
)
from repro.disk.array import (
    OUTCOME_DEAD,
    OUTCOME_OK,
    DiskArray,
    Placement,
    StripedLayout,
)
from repro.disk.drive import DiskDrive
from repro.disk.geometry import HP97560, HP97560_ZONED, IBM0661, DiskGeometry
from repro.disk.scheduler import Request
from repro.disk.seek import IBM0661_SEEK
from repro.disk.simple import SimpleDrive
from repro.faults.schedule import FaultSchedule, UnrecoverableReadError
from repro.trace.trace import Trace

if TYPE_CHECKING:
    from repro.obs.observer import Observer
    from repro.perf.profiler import PhaseProfiler

_EVENT_DISK = 0  # completions processed before app steps at equal times
_EVENT_APP = 1
_EVENT_RETRY = 2  # a failed demand fetch resubmits after its backoff


@dataclass(frozen=True)
class SimConfig:
    """Simulation-wide knobs, defaulting to the paper's baseline setup."""

    cache_blocks: int = 1280
    driver_overhead_ms: float = 0.5
    discipline: str = "cscan"
    disk_model: str = "hp97560"  # "hp97560", "hp97560-zoned", "ibm0661", "simple"
    simple_access_ms: float = 15.0
    simple_sequential_ms: float = 2.0
    cpu_speedup: float = 1.0
    placement_seed: int = 0
    placement: str = "clustered"  # "clustered" (per-file groups) | "scatter"
    #: RAID-1 mode: disks form mirror pairs; each block lives on both
    #: spindles of its pair and reads dispatch to the less-loaded copy.
    mirrored: bool = False
    readahead: bool = True
    #: Record a per-run event timeline (fetches, completions, stalls) for
    #: post-hoc analysis via repro.core.timeline.
    record_timeline: bool = False
    #: Fault injection: transient read errors, fail-slow spindles, disk
    #: death (see repro.faults).  None (or a null schedule) leaves every
    #: code path and floating-point value of a healthy run untouched.
    faults: Optional[FaultSchedule] = None
    geometry: DiskGeometry = HP97560

    def with_(self, **changes: object) -> "SimConfig":
        return replace(self, **changes)


class Simulator:
    """Run one (trace, policy, array) combination to completion.

    The same class runs every *stream* of a shared run
    (:class:`repro.core.multiprocess.MultiProcessSimulator`): stream 0 owns
    the disk array, the event heap and the loop, and the other streams share
    them by reference.  A solo run is the one-stream case.
    """

    #: A shared run's streams swap in resizable cache slices.
    _cache_class: Type[BufferCache] = BufferCache

    def __init__(
        self,
        trace: Trace,
        policy: PrefetchPolicy,
        num_disks: int,
        config: Optional[SimConfig] = None,
        hints: Optional[List[Optional[int]]] = None,
        profiler: Optional["PhaseProfiler"] = None,
        observer: Optional["Observer"] = None,
    ) -> None:
        self.config = config if config is not None else SimConfig()
        self.trace = trace
        self.policy = policy
        self.num_disks = num_disks

        # The application consumes the *actual* reference stream; policies
        # see the (possibly degraded) hint view.  With perfect hints the two
        # are the same list.
        self.app_blocks: List[int] = trace.blocks
        if hints is None:
            self.blocks: List[int] = trace.blocks
        else:
            self.blocks = resolve_hint_view(trace.blocks, hints)
        speedup = self.config.cpu_speedup
        if speedup == 1.0:
            self.compute_ms = trace.compute_ms
        else:
            self.compute_ms = [c / speedup for c in trace.compute_ms]

        self._mirror_layout: Optional[StripedLayout] = None
        if self.config.mirrored:
            if num_disks < 2 or num_disks % 2:
                raise ValueError("mirroring needs an even number of disks")
            self._mirror_layout = StripedLayout(num_disks // 2)
        # Fault injection: a null schedule is dropped entirely so the
        # healthy path stays bit-for-bit identical to a fault-free run.
        faults = self.config.faults
        self._faults = (
            faults if faults is not None and not faults.is_null else None
        )
        #: Blocks whose every copy is gone (dead spindle, no live mirror).
        #: Scanners skip them; the app consumes their references as
        #: unreadable (partial-data mode) instead of stalling forever.
        self.lost_blocks: Set[int] = set()
        self._fetch_attempts: Dict[int, int] = {}
        self.retry_ms_total = 0.0
        self.failover_reads = 0
        self.failover_writes = 0
        self.abandoned_prefetches = 0
        self.lost_flushes = 0
        self.unreadable_references = 0

        self.index = NextRefIndex(self.blocks)
        self.cache = self._cache_class(self.config.cache_blocks)
        self.eviction_heap = EvictionHeap(self.index, self.cache.resident)
        self.array = self._build_array()
        self._disk: Dict[int, int] = {}
        self._lbn: Dict[int, int] = {}
        self._place_blocks()
        #: Vectorized scan support (None without numpy).  Purely an
        #: accelerator: every consumer re-validates candidates against live
        #: cache state, so results are bit-identical with or without it.
        self.scan: Optional[ScanSupport] = ScanSupport.build(self.blocks)
        if self.scan is not None:
            self.cache.attach_present_mask(self.scan.mask)
            if not self.config.mirrored:
                # Static placement: per-position disk homes can be
                # precomputed.  Mirrored reads are load-dependent, so the
                # policies fall back to disk_of() there.
                self.scan.attach_disks(self._disk)

        #: This stream's position in ``streams``; its app events carry it.
        self.pid = 0
        #: Every stream of the run, and the ones whose trace is unfinished.
        self.streams: List[Simulator] = [self]
        self._live: List[Simulator] = [self]
        self._shared = False  # True for every stream of a shared run
        self._events: List[Tuple[float, int, int, int]] = []
        self._event_seq = 0
        self._offers = itertools.count()  # rotates who is offered a free disk
        self.cursor = 0
        self.now = 0.0
        self._debt = 0.0
        self._waiting_block: Optional[int] = None
        self._retry_miss = False
        self._stall_start = 0.0
        self._done = False

        self._service_in_progress = [0.0] * num_disks
        self._dirty: Set[int] = set()
        self.write_count = 0
        self.flush_count = 0
        self._writes = trace.writes
        self.compute_total = 0.0
        self.driver_total = 0.0
        self.stall_total = 0.0
        self.elapsed = 0.0
        self.fetch_count = 0
        self._requests_started = 0
        #: Total simulator events dispatched by :meth:`run` (app steps, disk
        #: completions, retries) — the denominator for events/sec throughput.
        self.events_dispatched = 0
        self.timeline = Timeline() if self.config.record_timeline else None

        # Instruments shadow methods on this instance (and its policy and
        # array); unattached, the hot path carries no instrumentation calls.
        # The profiler attaches last so its phases include the observer's
        # recording cost (see docs/OBSERVABILITY.md).
        if observer is not None:
            observer.attach(self)
        if profiler is not None:
            profiler.attach(self)
        self.policy.bind(self)

    # -- construction helpers --------------------------------------------------

    def _build_array(self) -> DiskArray:
        config = self.config
        if config.disk_model == "hp97560":
            factory = lambda: DiskDrive(config.geometry, readahead=config.readahead)
        elif config.disk_model == "hp97560-zoned":
            factory = lambda: DiskDrive(HP97560_ZONED, readahead=config.readahead)
        elif config.disk_model == "ibm0661":
            factory = lambda: DiskDrive(
                IBM0661, seek_model=IBM0661_SEEK, readahead=config.readahead
            )
        elif config.disk_model == "simple":
            factory = lambda: SimpleDrive(
                access_ms=config.simple_access_ms,
                sequential_ms=config.simple_sequential_ms,
            )
        else:
            raise ValueError(f"unknown disk model {config.disk_model!r}")
        geometry = {
            "ibm0661": IBM0661,
            "hp97560-zoned": HP97560_ZONED,
        }.get(config.disk_model, config.geometry)
        return DiskArray(
            self.num_disks,
            drive_factory=factory,
            discipline=config.discipline,
            geometry=geometry,
            faults=self._faults,
        )

    def _place_blocks(self) -> None:
        effective_disks = (
            self.num_disks // 2 if self.config.mirrored else self.num_disks
        )
        total = self.array.geometry.total_blocks * effective_disks
        universe = set(self.index.unique_blocks()) | set(self.app_blocks)
        self._scatter_rng: Optional[random.Random] = None
        self._placement: Optional[Placement] = None
        self._files: Dict[int, Tuple[int, int]] = {}
        if self.config.placement == "scatter":
            # Ablation mode: every block lands at an independent random
            # address — no file clustering, no sequentiality for the drive
            # readahead or the CSCAN sweep to exploit.
            self._scatter_rng = random.Random(self.config.placement_seed)
        elif self.config.placement == "clustered":
            self._placement = Placement(total, seed=self.config.placement_seed)
            self._files = self.trace.files or {}
        else:
            raise ValueError(f"unknown placement {self.config.placement!r}")
        self._placement_total = total
        for block in self._placement_order(universe):
            self._place_one(block)

    def _placement_order(self, universe: Set[int]) -> Iterable[int]:
        """The order blocks meet the placement's file-start draws."""
        return sorted(universe, key=str)

    def _place_one(self, block: int) -> None:
        """Assign a (disk, lbn) home to ``block``.

        Called eagerly for every hinted/referenced block and lazily for
        anything else a policy chooses to fetch (heuristic prefetchers may
        speculate past the trace's footprint — any block is addressable).
        In mirrored mode the home is a *pair* index in [0, d/2); the other
        copy lives on spindle home + d/2 and disk_of picks between them.
        """
        layout = (
            self._mirror_layout if self.config.mirrored else self.array.layout
        )
        if self._scatter_rng is not None:
            global_block = self._scatter_rng.randrange(self._placement_total)
        else:
            assert self._placement is not None
            identity = self._files.get(block, block)
            global_block = self._placement.place(identity)
        self._disk[block] = layout.disk_of(global_block)
        self._lbn[block] = layout.lbn_of(global_block)

    # -- policy-facing API -------------------------------------------------------

    def protected_blocks(self) -> Set[int]:
        """Blocks that must not be evicted right now: the block the
        application is stalled on (or about to reference).  With perfect
        hints these are never eviction candidates anyway (their next use is
        the cursor itself); with degraded hints the lying next-use index
        could nominate them, which would livelock the run on an endless
        evict/refetch cycle."""
        protected: Set[int] = set()
        if self._waiting_block is not None:
            protected.add(self._waiting_block)
        if self.cursor < len(self.app_blocks):
            protected.add(self.app_blocks[self.cursor])
        return protected

    def reference_block(self, cursor: int) -> int:
        """The block the application will *actually* reference at ``cursor``
        (identical to ``blocks[cursor]`` unless hints are degraded)."""
        return self.app_blocks[cursor]

    def disk_of(self, block: int) -> int:
        if block not in self._disk:
            self._place_one(block)
        home = self._disk[block]
        if not self.config.mirrored:
            return home
        # RAID-1: the block's pair owns spindles (home, home + pairs);
        # dispatch to whichever is less loaded right now.  A dead spindle
        # is routed around; with both copies dead the request goes to the
        # home disk and fails fast into the partial-data path.
        mirror = home + self.num_disks // 2
        if self._faults is not None:
            home_dead = self._faults.is_dead(home, self.now)
            mirror_dead = self._faults.is_dead(mirror, self.now)
            if home_dead != mirror_dead:
                return mirror if home_dead else home
        array = self.array
        def load(disk: int) -> int:
            return array.queue_length(disk) + (0 if array.is_idle(disk) else 1)
        return home if load(home) <= load(mirror) else mirror

    def _live_twin(self, block: int, failed_disk: int, now: float) -> Optional[int]:
        """In mirrored mode, the other spindle of ``block``'s pair if it is
        still alive; None when there is no surviving copy to fail over to."""
        if not self.config.mirrored:
            return None
        assert self._faults is not None  # only reachable from fault handling
        pairs = self.num_disks // 2
        home = self._disk[block]
        twin = home + pairs if failed_disk == home else home
        if self._faults.is_dead(twin, now):
            return None
        return twin

    def lbn_of(self, block: int) -> int:
        if block not in self._lbn:
            self._place_one(block)
        return self._lbn[block]

    def is_write(self, cursor: int) -> bool:
        return self._writes is not None and self._writes[cursor]

    def _evict(self, victim: Optional[int]) -> None:
        """Shared eviction path: notify the policy and flush dirty data."""
        if victim is None:
            return
        victim_next_use = self.index.next_use(victim, self.cursor)
        self.policy.on_evict(victim, victim_next_use)
        if victim in self._dirty:
            # Write-behind: the dirty block leaves the cache now and its
            # contents drain to disk asynchronously (modelled as flushing
            # from a staging buffer, so the cache buffer frees immediately).
            self._dirty.discard(victim)
            self.array.submit(
                self.disk_of(victim), victim, self.lbn_of(victim),
                kind="write",
            )
            self.driver_total += self.config.driver_overhead_ms
            self._debt += self.config.driver_overhead_ms
            self.flush_count += 1

    def issue_fetch(self, block: int, victim: Optional[int]) -> None:
        """Fetch ``block`` (evicting ``victim``); charges driver overhead."""
        self.cache.begin_fetch(block, victim)
        self._evict(victim)
        disk = self.disk_of(block)
        self.array.submit(disk, block, self.lbn_of(block))
        self.driver_total += self.config.driver_overhead_ms
        self._debt += self.config.driver_overhead_ms
        self.fetch_count += 1
        if self.timeline is not None:
            self.timeline.record(self.now, FETCH_ISSUED, block, disk)
            if victim is not None:
                self.timeline.record(self.now, EVICTION, victim)

    def write_allocate(self, block: int, victim: Optional[int]) -> None:
        """Allocate a buffer for a whole-block write — no disk read."""
        self.cache.begin_fetch(block, victim)
        self._evict(victim)
        self.cache.complete_fetch(block)
        self.eviction_heap.push(block, self.cursor)

    # -- event plumbing ---------------------------------------------------------

    def _push(self, time: float, kind: int, payload: int) -> None:
        self._event_seq += 1
        heapq.heappush(self._events, (time, kind, self._event_seq, payload))

    def _start_disks(self, now: float) -> None:
        for disk in range(self.num_disks):
            started = self.array.start_next(disk, now)
            if started is None:
                continue
            _request, completion, breakdown = started
            self._requests_started += 1
            self._service_in_progress[disk] = breakdown.total
            self._push(completion, _EVENT_DISK, disk)

    # -- event handlers -----------------------------------------------------------

    def _wake_app(self, now: float) -> None:
        """End the application's current stall: account the wait and
        schedule the app step that re-examines the reference."""
        if self.timeline is not None:
            waiting = self._waiting_block
            assert waiting is not None  # callers checked before waking
            self.timeline.record(max(now, self._stall_start), STALL_END, waiting)
        self._waiting_block = None
        self._retry_miss = False
        self.stall_total += max(0.0, now - self._stall_start)
        self._push(max(now, self._stall_start), _EVENT_APP, self.pid)

    def _disk_complete(self, disk: int, now: float) -> None:
        request = self.array.complete(disk)
        block = request.block
        # Stream ``pid`` owns the blocks ``raw + (pid << 32)``.
        owner = self.streams[block >> 32] if self._shared else self
        if self._faults is not None:
            outcome = self.array.take_outcome(disk)
            if outcome is not OUTCOME_OK:
                owner._fault_complete(disk, request, outcome, now)
                return
        if request.kind == "write":
            # A write-behind flush finished; nothing enters the cache, the
            # disk is simply free again.
            self._disk_freed(disk, now, None)
            return
        owner.cache.complete_fetch(block)
        if owner._fetch_attempts:
            owner._fetch_attempts.pop(block, None)
        owner.eviction_heap.push(block, owner.cursor)
        if owner.timeline is not None:
            owner.timeline.record(now, FETCH_DONE, block, disk)
        owner.policy.on_fetch_complete(disk, self._service_in_progress[disk])
        self._disk_freed(disk, now, block)

    def _disk_freed(
        self, disk: int, now: float, arrived: Optional[int]
    ) -> None:
        """The tail of every completion: offer the free disk to each live
        stream, start queued requests, and wake the stream stalled on
        ``arrived`` plus every stream parked on a miss it could not issue
        (a buffer or a disk may have just freed up)."""
        if not self._shared:
            # A solo run: its one stream is this one, and it is live (the
            # loop stops when it finishes).
            self.policy.on_disk_idle(disk, now)
            self._start_disks(now)
            waiting = self._waiting_block
            if waiting is not None and (
                waiting == arrived or self._retry_miss
            ):
                self._wake_app(now)
            return
        live = self._live
        if live:
            # Rotate who goes first, so no stream monopolizes the array by
            # its position in the list.
            count = len(live)
            first = next(self._offers) % count
            for i in range(count):
                live[(first + i) % count].policy.on_disk_idle(disk, now)
        self._start_disks(now)
        for stream in live:
            waiting = stream._waiting_block
            if waiting is not None and (
                waiting == arrived or stream._retry_miss
            ):
                stream._wake_app(now)

    # -- fault handling ---------------------------------------------------------

    def _fault_complete(
        self, disk: int, request: Request, outcome: str, now: float
    ) -> None:
        """A request finished with an injected fault: decide between
        failover (dead spindle, live mirror twin), retry with exponential
        backoff (failed demand fetch), abandonment (failed prefetch or
        flush), and partial-data mode (no copy of the block survives).
        """
        faults = self._faults
        assert faults is not None  # only reachable with fault injection on
        block = request.block
        service_ms = self._service_in_progress[disk]
        if self.timeline is not None:
            self.timeline.record(now, FAULT_INJECTED, block, disk)
        lost = False
        if request.kind == "write":
            if outcome is OUTCOME_DEAD:
                twin = self._live_twin(block, disk, now)
                if twin is not None:
                    self.failover_writes += 1
                    self.retry_ms_total += service_ms
                    self.array.submit(twin, block, self._lbn[block], kind="write")
                    if self.timeline is not None:
                        self.timeline.record(now, FAILOVER, block, twin)
                else:
                    self.lost_flushes += 1
            else:
                # Transient flush error: the buffer is long gone, so the
                # flush is simply dropped (a lost redundancy write).
                self.lost_flushes += 1
        elif outcome is OUTCOME_DEAD:
            twin = self._live_twin(block, disk, now)
            if twin is not None:
                self.failover_reads += 1
                self.retry_ms_total += service_ms
                self.array.submit(twin, block, self._lbn[block])
                if self.timeline is not None:
                    self.timeline.record(now, FAILOVER, block, twin)
            else:
                # No surviving copy anywhere: the block is gone.  Release
                # the buffer and let the app consume its references as
                # unreadable (partial data) instead of crashing the run.
                lost = True
                self.lost_blocks.add(block)
                self._abandon_fetch(block)
        elif self._waiting_block == block:
            # Failed *demand* fetch: retry with exponential backoff until
            # the budget is exhausted, then the data is unrecoverable.
            attempts = self._fetch_attempts.get(block, 0) + 1
            self._fetch_attempts[block] = attempts
            if attempts > faults.max_retries:
                raise UnrecoverableReadError(block, disk, attempts)
            backoff = faults.retry_backoff_ms * (2 ** (attempts - 1))
            self.retry_ms_total += service_ms + backoff
            self._push(now + backoff, _EVENT_RETRY, block)
        else:
            # Failed *prefetch*: abandon it — the bandwidth is already
            # wasted, and the block will surface later as a demand miss.
            self._abandon_fetch(block)
        # A stream stalled on a block that no longer exists wakes into the
        # partial-data path.
        self._disk_freed(disk, now, block if lost else None)

    def _abandon_fetch(self, block: int) -> None:
        """Release the in-flight reservation of a fetch that will never
        complete and re-expose the block to the policy's missing-set."""
        self.cache.abort_fetch(block)
        self._fetch_attempts.pop(block, None)
        self.abandoned_prefetches += 1
        if block not in self.lost_blocks:
            # Lost blocks are *not* re-exposed: scanners skip them and the
            # app consumes their references as unreadable.
            next_use = self.index.next_use(block, self.cursor)
            self.policy.on_evict(block, next_use)

    def _retry_fetch(self, block: int, now: float) -> None:
        """Backoff expired: resubmit the failed demand fetch.  The target
        disk is re-resolved, so a spindle that died during the backoff is
        routed around in mirrored mode."""
        if not self.cache.is_in_flight(block):
            return  # the fetch was aborted meanwhile (block became lost)
        disk = self.disk_of(block)
        self.array.submit(
            disk, block, self.lbn_of(block),
            attempt=self._fetch_attempts.get(block, 0),
        )
        if self.timeline is not None:
            self.timeline.record(now, FETCH_RETRY, block, disk)
        self._start_disks(now)

    def _app_step(self, now: float) -> None:
        if self._done:
            return
        if self._debt > 0.0:
            debt, self._debt = self._debt, 0.0
            self._push(now + debt, _EVENT_APP, self.pid)
            return
        if self.cursor >= len(self.app_blocks):
            self._done = True
            self.elapsed = now
            self._live.remove(self)
            return
        self.policy.before_reference(self.cursor, now)
        if self._debt > 0.0:
            self._start_disks(now)
            debt, self._debt = self._debt, 0.0
            self._push(now + debt, _EVENT_APP, self.pid)
            return
        block = self.app_blocks[self.cursor]
        if block in self.cache:
            if self.is_write(self.cursor):
                self._dirty.add(block)
                self.write_count += 1
            compute = self.compute_ms[self.cursor]
            self.compute_total += compute
            self.policy.on_reference_served(self.cursor, compute)
            self.cursor += 1
            self.eviction_heap.push(block, self.cursor)
            self._push(now + compute, _EVENT_APP, self.pid)
        elif block in self.lost_blocks and not self.is_write(self.cursor):
            # Partial-data mode: every copy of this block is on a dead
            # spindle.  The read cannot be served from anywhere; the run
            # records the unreadable reference and continues (writes still
            # allocate in cache and are handled above/below).
            self.unreadable_references += 1
            compute = self.compute_ms[self.cursor]
            self.compute_total += compute
            self.policy.on_reference_served(self.cursor, compute)
            self.cursor += 1
            self._push(now + compute, _EVENT_APP, self.pid)
        elif self.is_write(self.cursor) and not self.cache.is_in_flight(block):
            # Whole-block write miss: allocate a buffer, no read needed.
            victim = self.policy.choose_victim(self.cursor)
            if victim is False:
                self._start_disks(now)
                debt, self._debt = self._debt, 0.0
                self._waiting_block = block
                self._retry_miss = True
                self._stall_start = now + debt
                if self.timeline is not None:
                    self.timeline.record(self._stall_start, STALL_START, block)
                return
            self.write_allocate(block, victim)
            self._start_disks(now)  # a dirty victim may have queued a flush
            if self._debt > 0.0:
                debt, self._debt = self._debt, 0.0
                self._push(now + debt, _EVENT_APP, self.pid)
                return
            # Re-enter: the block is now resident.
            self._push(now, _EVENT_APP, self.pid)
        elif self.cache.is_in_flight(block):
            self._waiting_block = block
            self._stall_start = now
            if self.timeline is not None:
                self.timeline.record(now, STALL_START, block)
        else:
            self.policy.on_miss(self.cursor, now)
            if not self.cache.present_or_coming(block):
                if not any(s.cache.in_flight for s in self.streams):
                    raise RuntimeError(
                        f"policy {self.policy.name!r} left block {block} "
                        f"unfetched at a miss (cursor {self.cursor})"
                    )
                # No buffer could be freed for the demand fetch (all of
                # them protected or riding in-flight prefetches).  Stall
                # until the next completion frees one, then retry the miss.
                self._start_disks(now)
                debt, self._debt = self._debt, 0.0
                self._waiting_block = block
                self._retry_miss = True
                self._stall_start = now + debt
                if self.timeline is not None:
                    self.timeline.record(self._stall_start, STALL_START, block)
                return
            self._start_disks(now)
            debt, self._debt = self._debt, 0.0
            self._waiting_block = block
            self._stall_start = now + debt
            if self.timeline is not None:
                self.timeline.record(self._stall_start, STALL_START, block)

    # -- main loop ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        self._dispatch()
        return self._build_result()

    def _dispatch(
        self,
        rebalance: Optional[Callable[[], None]] = None,
        period_ms: float = math.inf,
    ) -> None:
        """The event loop, run by stream 0 for every stream of the run.

        In a shared run, ``rebalance`` (the buffer allocator) is called
        after the first event at least ``period_ms`` past the previous call.
        """
        streams = self.streams
        for stream in streams:
            self._push(0.0, _EVENT_APP, stream.pid)
        # Bound once: instruments shadow these when they attach, which is
        # before the run.
        app_steps = [stream._app_step for stream in streams]
        disk_complete = self._disk_complete
        others = streams[1:]  # each stream reads its own ``now``
        events = self._events
        live = self._live
        heappop = heapq.heappop
        dispatched = 0
        last_rebalance = 0.0
        try:
            while events and live:
                now, kind, _seq, payload = heappop(events)
                dispatched += 1
                self.now = now
                if others:
                    for stream in others:
                        stream.now = now
                if kind == _EVENT_DISK:
                    disk_complete(payload, now)
                elif kind == _EVENT_RETRY:
                    owner = streams[payload >> 32] if self._shared else self
                    owner._retry_fetch(payload, now)
                else:
                    app_steps[payload](now)
                if others and now - last_rebalance >= period_ms:
                    last_rebalance = now
                    assert rebalance is not None
                    rebalance()
        finally:
            self.events_dispatched += dispatched
        if live:
            raise RuntimeError("simulation deadlocked before trace completion")

    def _build_result(self) -> SimulationResult:
        elapsed = self.elapsed
        busy = [min(b, elapsed) for b in self.array.busy_time]
        if elapsed > 0:
            utilization = sum(busy) / (self.num_disks * elapsed)
        else:
            utilization = 0.0
        started = max(1, self._requests_started)
        extras: Dict[str, float] = {}
        if self._writes is not None:
            extras["writes"] = self.write_count
            extras["flushes"] = self.flush_count
        if self._faults is not None:
            extras["transient_errors"] = self.array.transient_errors
            extras["dead_errors"] = self.array.dead_errors
            extras["slowed_requests"] = self.array.slowed_requests
            extras["abandoned_prefetches"] = self.abandoned_prefetches
            extras["failover_writes"] = self.failover_writes
            extras["lost_flushes"] = self.lost_flushes
            extras["lost_blocks"] = len(self.lost_blocks)
            extras["unreadable_references"] = self.unreadable_references
        result = SimulationResult(
            trace_name=self.trace.name,
            policy_name=self.policy.name,
            num_disks=self.num_disks,
            cache_blocks=self.config.cache_blocks,
            fetches=self.fetch_count,
            compute_ms=self.compute_total,
            driver_ms=self.driver_total,
            stall_ms=self.stall_total,
            elapsed_ms=elapsed,
            average_fetch_ms=self.array.service_time_total / started,
            disk_utilization=utilization,
            per_disk_busy_ms=busy,
            references=len(self.app_blocks),
            cache_hits=len(self.app_blocks) - self.fetch_count,
            retry_ms=self.retry_ms_total,
            failover_reads=self.failover_reads,
            faults_injected=self.array.faults_injected,
            extras=extras,
        )
        result.check_accounting(tolerance_ms=1e-6 * max(1.0, elapsed))
        return result
