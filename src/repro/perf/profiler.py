"""Stack-based self-time profiler for the simulator's phases."""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.core.engine import Simulator

#: The engine's phase vocabulary (reports order phases by self time, not
#: by this tuple):
#:
#: * ``policy``   — time inside policy decision points and hooks
#:   (``before_reference``, ``on_disk_idle``, ``on_miss``, …);
#: * ``disk``     — starting queued requests and computing their service
#:   times (:meth:`Simulator._start_disks`);
#: * ``cache``    — issue-side bookkeeping of a fetch (buffer reservation,
#:   eviction, request submission);
#: * ``dispatch`` — the event handlers themselves (app steps, completions,
#:   retries) minus the nested phases above.  The heap pop and the loop's
#:   own bookkeeping run outside every bracket.
PHASES = ("policy", "disk", "cache", "dispatch")


class PhaseProfiler:
    """Accumulates per-phase wall-clock self time.

    ``start(phase)`` pauses the phase currently on top of the stack (if
    any) and begins attributing time to ``phase``; ``stop()`` ends it and
    resumes the parent.  Self times therefore partition the bracketed
    span: a phase's number excludes the nested phases it called into.

    The clock is injectable for deterministic tests; it must be a
    callable returning integer nanoseconds.
    """

    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        self._clock = clock if clock is not None else time.perf_counter_ns
        # (phase, resumed_at_ns) — top is the running phase; the top entry
        # is replaced whenever its phase is paused or resumed.
        self._stack: List[Tuple[str, int]] = []
        self.totals_ns: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}

    def start(self, phase: str) -> None:
        now = self._clock()
        stack = self._stack
        if stack:
            parent, resumed = stack[-1]
            self.totals_ns[parent] = (
                self.totals_ns.get(parent, 0) + now - resumed
            )
            stack[-1] = (parent, now)
        stack.append((phase, now))
        self.counts[phase] = self.counts.get(phase, 0) + 1

    def stop(self) -> None:
        now = self._clock()
        phase, since = self._stack.pop()
        self.totals_ns[phase] = self.totals_ns.get(phase, 0) + now - since
        if self._stack:
            parent, _resumed = self._stack[-1]
            self._stack[-1] = (parent, now)

    # -- instrumentation -----------------------------------------------------

    def attach(self, sim: Simulator) -> None:
        """Shadow the simulator's hot-path methods with phase-bracketed
        versions.

        The same instance-attribute pattern as
        :meth:`repro.obs.Observer.attach`: class methods stay untouched, so
        an unprofiled simulator carries no timing calls, and every shadow
        calls the original once with unchanged arguments, so a profiled run
        is bit-identical.  Attach after any observer so the phases include
        its recording cost.
        """
        for phase, target, names in (
            ("dispatch", sim, ("_app_step", "_disk_complete", "_retry_fetch")),
            ("disk", sim, ("_start_disks",)),
            ("cache", sim, ("issue_fetch",)),
            ("policy", sim.policy, (
                "before_reference", "on_disk_idle", "on_miss", "choose_victim",
                "on_fetch_complete", "on_reference_served", "on_evict",
            )),
        ):
            for name in names:
                inner = getattr(target, name)
                setattr(target, name, self._bracket(phase, inner))

    def _bracket(
        self, phase: str, inner: Callable[..., Any]
    ) -> Callable[..., Any]:
        start, stop, stack = self.start, self.stop, self._stack

        def timed(*args: Any, **kwargs: Any) -> Any:
            # A call from inside the same phase (the base ``on_miss``
            # calling ``self.choose_victim``) is already being timed.
            if stack and stack[-1][0] == phase:
                return inner(*args, **kwargs)
            start(phase)
            try:
                return inner(*args, **kwargs)
            finally:
                stop()

        return timed

    def reset(self) -> None:
        self._stack.clear()
        self.totals_ns.clear()
        self.counts.clear()

    # -- reporting --------------------------------------------------------------

    def ms(self, phase: str) -> float:
        return self.totals_ns.get(phase, 0) / 1e6

    @property
    def total_ms(self) -> float:
        return sum(self.totals_ns.values()) / 1e6

    def _ordered_phases(self) -> List[str]:
        # Hottest first: the report exists to answer "where did the time
        # go", so order by self time descending, name breaking ties.
        return sorted(
            self.totals_ns, key=lambda p: (-self.totals_ns[p], p)
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary: per-phase self-time ms, call counts, shares."""
        total = self.total_ms
        phases: Dict[str, Dict[str, object]] = {}
        for phase in self._ordered_phases():
            ms = self.ms(phase)
            phases[phase] = {
                "ms": round(ms, 3),
                "calls": self.counts.get(phase, 0),
                "share": round(ms / total, 4) if total > 0 else 0.0,
            }
        return {"total_ms": round(total, 3), "phases": phases}

    def report(self) -> str:
        """Human-readable phase breakdown table."""
        total = self.total_ms
        lines = [
            f"{'phase':<10} {'self ms':>10} {'share':>7} {'calls':>10}"
        ]
        for phase in self._ordered_phases():
            ms = self.ms(phase)
            share = ms / total if total > 0 else 0.0
            lines.append(
                f"{phase:<10} {ms:>10.1f} {share:>6.1%} "
                f"{self.counts.get(phase, 0):>10,}"
            )
        lines.append(f"{'total':<10} {total:>10.1f}")
        return "\n".join(lines)
