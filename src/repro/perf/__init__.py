"""Lightweight phase instrumentation for the simulator hot path.

The simulator spends its time in four places: consulting the policy,
modelling disk service, cache bookkeeping, and dispatching events.  This
module attributes wall-clock *self time* to those phases with a plain
start/stop stack — entering a nested phase pauses its parent, so the
reported numbers sum to the bracketed total without double counting.

Profiling is strictly opt-in: :meth:`PhaseProfiler.attach` shadows the
hot-path methods on one simulator instance (the same protocol as
:meth:`repro.obs.Observer.attach`), so a
:class:`~repro.core.engine.Simulator` constructed without a profiler
carries **zero** timing calls, and an attached profiler never changes
simulation behaviour — a profiled run produces a bit-identical
:class:`SimulationResult` (``tests/test_golden_results.py`` pins this).
"""

from repro.perf.profiler import PHASES, PhaseProfiler

__all__ = ["PHASES", "PhaseProfiler"]
