"""The multi-disk aggressive algorithm (after Cao et al.'s single-disk
aggressive).

    Whenever a disk is free, prefetch the first missing block on that disk,
    replacing the block whose next reference is furthest in the future,
    under the condition that the next access to the evicted block is after
    the next access to the block being fetched (do no harm).

Requests are submitted in batches (Table 6) so the disk scheduler can
reorder them.  When several disks are free at once, missing blocks are
considered in increasing request-index order, each routed to its disk,
until every free disk's batch fills or do-no-harm stops further fetching —
exactly the implementation described in section 2.7.
"""

from __future__ import annotations

from typing import Optional, cast

from repro.core.batching import batch_size_for
from repro.core.policy import MissingScanner, PrefetchPolicy, SimulatorLike, Victim


class BatchPrefetcher(PrefetchPolicy):
    """The batch executor shared by aggressive and reverse aggressive.

    Whenever disks are free (idle with an empty queue), missing blocks are
    considered in increasing request-index order, each routed to its disk,
    until every free disk's batch fills or :meth:`_victim_for` refuses a
    victim.  Subclasses differ only in how they pick a victim.
    """

    def __init__(self, batch_size: Optional[int] = None) -> None:
        super().__init__()
        self._batch_override = batch_size
        self.batch_size = 0  # resolved against the array size in bind()
        self._scanner = cast(MissingScanner, None)  # set in bind()

    def bind(self, sim: SimulatorLike) -> None:
        super().bind(sim)
        self.batch_size = batch_size_for(sim.num_disks, self._batch_override)
        self._scanner = MissingScanner(sim)

    def on_evict(self, block: int, next_use: float) -> None:
        self._scanner.invalidate(next_use)

    def before_reference(self, cursor: int, now: float) -> None:
        self._fill_free_disks(cursor)

    def on_disk_idle(self, disk: int, now: float) -> None:
        self._fill_free_disks(self.sim.cursor)

    def _victim_for(self, cursor: int, fetch_position: int) -> Victim:
        """Free buffer (None), a victim to evict, or False to stop."""
        raise NotImplementedError

    def _fill_free_disks(self, cursor: int) -> None:
        sim = self.sim
        array = sim.array
        is_free = array.is_free
        batch_size = self.batch_size
        budgets = [
            batch_size if is_free(disk) else 0
            for disk in range(array.num_disks)
        ]
        remaining = sum(budgets)
        if not remaining:
            return
        scanner = self._scanner
        end = len(sim.blocks)
        new_floor = end
        for position, block in scanner.missing_in(cursor, end):
            disk = sim.disk_of(block)
            budget = budgets[disk]
            if not budget:
                # This block's disk is busy or its batch is full; it stays
                # missing, so the scan floor cannot move past it.  Once
                # every batch is full, that is the floor.
                if position < new_floor:
                    new_floor = position
                if not remaining:
                    break
                continue
            victim = self._victim_for(cursor, position)
            if victim is False:
                # No victim now means none for any later position either.
                if position < new_floor:
                    new_floor = position
                break
            self.issue(block, victim)
            budgets[disk] = budget - 1
            remaining -= 1
        if new_floor > scanner.floor:
            scanner.floor = new_floor


class Aggressive(BatchPrefetcher):
    """Prefetch as early as the do-no-harm rule allows, in batches."""

    def __init__(self, batch_size: Optional[int] = None) -> None:
        super().__init__(batch_size)
        if batch_size is None:
            self.name = "aggressive"
        else:
            self.name = f"aggressive(batch={batch_size})"

    def on_miss(self, cursor: int, now: float) -> None:
        super().on_miss(cursor, now)
        self._scanner.floor = max(self._scanner.floor, cursor + 1)
        self._fill_free_disks(cursor)

    def _victim_for(self, cursor: int, fetch_position: int) -> Victim:
        """Free buffer (None), a do-no-harm-compatible victim, or False."""
        sim = self.sim
        if sim.cache.free_buffers > 0:
            return None
        victim = sim.eviction_heap.best_victim(
            cursor, exclude=sim.protected_blocks()
        )
        if victim is None:
            return False
        # next_use is index.never (> any real fetch position) for a block
        # that is never referenced again, so one exact comparison suffices.
        if sim.index.next_use(victim, cursor) <= fetch_position:
            return False
        return victim
